"""The benchmark's workloads: fixed inputs, one round of operations, checks.

Instances are fixed and do not depend on the run seed: ADMM iteration
counts vary several-fold between replications of one cell, so drawing
instances from the seed would make the work per round differ from run to
run.  The seed only orders the operations inside each round.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from groupfuse import cli, datasets, simulation, solver
from groupfuse.model import GroupedDesign, ProblemSpec

ROOT = Path(__file__).resolve().parent.parent
REPS_PER_CELL = 1
ESTIMATORS = ("fused_ls", "adaptive_ls", "fused_quantile", "adaptive_quantile")


@dataclass
class Op:
    """One timed call.  ``count`` is the number of operations it stands for."""

    name: str
    count: int
    run: Callable[[Callable], object]  # takes span(name, fn, label)
    failed: Callable[[object], int]
    spec: object = None


@dataclass
class CheckResult:
    bad: dict[str, int] = field(default_factory=dict)  # op name -> wrong ops
    notes: list[str] = field(default_factory=list)
    lp_gaps: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Monte Carlo replications


def desk_cells() -> list[simulation.ScenarioSpec]:
    """The 8 cells of scripts/desk_grid.conf, replication m = 0 only."""
    return [replace(spec, M=REPS_PER_CELL) for spec in
            simulation.load_scenario_grid(ROOT / "scripts/desk_grid.conf")]


def p3_cells() -> list[simulation.ScenarioSpec]:
    """The p = 3, g = 100 Gaussian cells of scripts/full_grid.conf, m = 0."""
    return [replace(spec, M=REPS_PER_CELL) for spec in
            simulation.load_scenario_grid(ROOT / "scripts/full_grid.conf")
            if spec.p == 3 and spec.g == 100
            and spec.error_dist == "gaussian"]


def cell_name(spec) -> str:
    return (f"p{spec.p}_g{spec.g}_{spec.error_dist}_c{spec.changes:g}")


def _mc_run(spec):
    def run(span):
        report = span("simulation.run_monte_carlo",
                      lambda: simulation.run_monte_carlo(
                          spec, workers=1,
                          solver_cfg=simulation.MC_SOLVER_CONFIG),
                      cell_name(spec))
        return tuple(report.runs[name] for name in ESTIMATORS)
    return run


def mc_ops(cells) -> list[Op]:
    return [Op(name=cell_name(spec), count=spec.M, run=_mc_run(spec),
               failed=lambda outcome: 0, spec=spec)
            for spec in cells]


def _check_fit(b, design, kappa, loss, q, tau, out: CheckResult,
               label: str) -> bool:
    X, y, g, p = design.X, design.y, design.g, design.p
    if loss == "ls":
        viol = checks.ls_certificate(X, y, b, kappa, g, p, q)
        ok = viol <= checks.KKT_TOL
        if not ok:
            out.notes.append(f"{label}: LS first-order violation {viol:.3g}")
        return ok
    if p == 1 or q == 1:
        gap = checks.quantile_lp_gap(X, y, b, kappa, g, p, tau)
        out.lp_gaps.append(gap)
        ok = -checks.LP_SLACK <= gap <= checks.GAP_TOL
        if not ok:
            out.notes.append(f"{label}: gap {gap:.3g} to the exact LP optimum")
        return ok
    excess, width = checks.quantile_l2_bracket(X, y, b, kappa, g, p, tau)
    ok = excess <= checks.BRACKET_TOL and width >= -checks.LP_SLACK
    if not ok:
        out.notes.append(f"{label}: q=2 bracket excess {excess:.3g}, "
                         f"width {width:.3g}")
    return ok


def check_mc(op: Op, outcome, out: CheckResult) -> None:
    """Re-derive each replication through generate_instance and fit.

    The fits follow the paper's protocol (fused pilot at the fused
    schedule, adaptive refit warm-started from it).  MED, MAD and the
    detection scores are recomputed here and must equal the report's; each
    fit must pass the optimality check for its loss and shape.
    """
    spec = op.spec
    cfg = simulation.MC_SOLVER_CONFIG
    runs = dict(zip(ESTIMATORS, outcome))
    for m in range(spec.M):
        label = f"{op.name} m={m}"
        design, beta0, truth = simulation.generate_instance(
            spec, np.random.default_rng((spec.seed, m)))
        n, g, p = design.n, design.g, design.p
        lam_f = checks.schedule_lambda(n, "fused")
        lam_a = checks.schedule_lambda(n, "adaptive")
        good = True
        for loss in ("ls", "quantile"):
            pilot = solver.fit(design, ProblemSpec(
                loss=loss, tau=spec.tau, q=spec.q, lam=lam_f), cfg)
            refit = solver.fit(design, ProblemSpec(
                loss=loss, tau=spec.tau, q=spec.q, lam=lam_a,
                weight_mode="adaptive", gamma=spec.gamma, pilot=pilot.beta),
                replace(cfg, warm_start=pilot.beta))
            weights = checks.adaptive_weights(pilot.beta.flat, g, p, n,
                                              spec.gamma)
            for est, res, kappa in (
                    (f"fused_{loss}", pilot, checks.kappas(n, lam_f, g)),
                    (f"adaptive_{loss}", refit,
                     checks.kappas(n, lam_a, g, weights))):
                good &= _check_fit(res.beta.flat, design, kappa, loss,
                                   spec.q, spec.tau, out, f"{label} {est}")
                med, mad = checks.med_mad(design.y, design.X, res.beta.flat,
                                          beta0.flat)
                hits = set(res.detected_set) & set(truth)
                expect = (med, mad, len(hits) / len(truth),
                          len(res.detected_set) / len(truth),
                          len(set(res.detected_set) - set(truth)))
                got = runs[est][m]
                if (got.med, got.mad, got.recovery, got.overestimation,
                        got.misscls) != expect:
                    good = False
                    out.notes.append(f"{label} {est}: report {tuple(got)[:5]} "
                                     f"!= re-derived {expect}")
        if not good:
            out.bad[op.name] = out.bad.get(op.name, 0) + 1


# ---------------------------------------------------------------------------
# groupfuse fit commands on the hourly air-profile CSV

RESPONSE = "benzene_max"
# Each LS command takes about 57 ms and the three quantile commands about
# 7.7 s together (measured one by one, untraced, one BLAS thread), so 30 of
# each LS form make the LS commands about 40% of a round.  The CSV, CLI and
# JSON layers then weigh in ops_per_s: halving the LS commands' time would
# raise it by about a quarter.
LS_REPEATS = 30
# name -> (extra argv, repeats per round)
CLI_COMMANDS = {
    "ls_fused": (["--auto-lambda"], LS_REPEATS),
    "ls_adaptive_std": (["--adaptive", "--standardize", "--auto-lambda"],
                        LS_REPEATS),
    "ls_q1_std": (["--q", "1", "--standardize", "--auto-lambda"],
                  LS_REPEATS),
    # the paper's application: adaptive fused quantile on standardized data
    "qr_adaptive_std": (["--loss", "quantile", "--adaptive", "--auto-lambda",
                         "--standardize"], 1),
    "qr_fused": (["--loss", "quantile", "--auto-lambda"], 1),
    # stops at max_iter without meeting the default tolerances: exits 2
    "qr_q1": (["--loss", "quantile", "--q", "1", "--auto-lambda"], 1),
}


def air_csv(outdir: Path) -> Path:
    return outdir / "air.csv"


def build_cli_inputs(outdir: Path) -> list[tuple[str, list[str]]]:
    outdir.mkdir(parents=True, exist_ok=True)
    datasets.write_hourly_profile_csv(air_csv(outdir), n_days=357, seed=7)
    commands = []
    for name, (extra, repeats) in CLI_COMMANDS.items():
        argv = ["fit", str(air_csv(outdir)), "--response", RESPONSE,
                *extra, "--out", str(outdir / f"{name}.json")]
        commands += [(name, argv)] * repeats
    return commands


def _cli_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _cli_run(name, argv, out_path):
    def run(span):
        code = span("cli.main", lambda: _cli_main(argv), name)
        digest = (hashlib.sha256(out_path.read_bytes()).hexdigest()
                  if out_path.exists() else None)
        return code, digest
    return run


def cli_ops(outdir: Path) -> list[Op]:
    ops = []
    for name, argv in build_cli_inputs(outdir):
        out_path = Path(argv[argv.index("--out") + 1])
        out_path.unlink(missing_ok=True)
        ops.append(Op(name=name, count=1, run=_cli_run(name, argv, out_path),
                      failed=lambda outcome: int(outcome[0] != 0),
                      spec=argv))
    return ops


def check_cli(op: Op, outcome, out: CheckResult, air) -> None:
    """Check one command's JSON against this module's own parse of the CSV.

    n, g, p and the groups come from the header; lambda from the paper's
    schedules; the standardization from column means and standard
    deviations; the objective from the written coefficients.  The adaptive
    weights need the pilot, which the JSON does not hold, so the pilot is
    refitted as the command fits it.
    """
    argv = op.spec
    code, _ = outcome
    if code not in (0, 2):
        return  # exit 1 writes no result; the command counts as failed
    flags = set(argv)
    loss = argv[argv.index("--loss") + 1] if "--loss" in flags else "ls"
    q = int(argv[argv.index("--q") + 1]) if "--q" in flags else 2
    adaptive = "--adaptive" in flags
    std = "--standardize" in flags
    tau = 0.5
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        res = json.load(fh)
    y, X, groups = air
    n, g, p = len(y), len(groups), len(groups[0])
    problems = []
    lam = checks.schedule_lambda(n, "adaptive" if adaptive else "fused")
    lam_f = checks.schedule_lambda(n, "fused")
    est = res["estimator"]
    if (res["n"], res["g"], res["p"]) != (n, g, p):
        problems.append(f"shape {(res['n'], res['g'], res['p'])}")
    if res["group_columns"] != groups:
        problems.append("group columns differ from the CSV header")
    if (est["loss"], est["q"], est["adaptive"]) != (loss, q, adaptive):
        problems.append(f"estimator {est}")
    if not math.isclose(est["lambda"], lam, rel_tol=1e-12):
        problems.append(f"lambda {est['lambda']} != schedule {lam}")
    if adaptive and not math.isclose(est["pilot_lambda"], lam_f,
                                     rel_tol=1e-12):
        problems.append(f"pilot lambda {est['pilot_lambda']}")
    if std:
        X, mean, sd = checks.standardized(X)
        st = res["standardize"]
        if not (np.allclose(st["mean"], mean, rtol=1e-9, atol=0)
                and np.allclose(st["scale"], sd, rtol=1e-9, atol=0)):
            problems.append("standardization differs")
    elif res["standardize"] is not None:
        problems.append("standardization reported but not asked for")
    b = np.asarray(res["coefficients"], dtype=float).ravel()
    design = GroupedDesign(X=X, y=y, g=g, p=p)
    kappa = checks.kappas(n, lam, g)
    if adaptive:
        pilot = solver.fit(design, ProblemSpec(loss=loss, tau=tau, q=q,
                                               lam=lam_f),
                           solver.SolverConfig())  # the CLI's defaults
        kappa = checks.kappas(n, lam, g, checks.adaptive_weights(
            pilot.beta.flat, g, p, n, 1.0))
    obj = checks.objective(X, y, b, kappa, g, p, q, loss, tau)
    if not math.isclose(res["diagnostics"]["objective"], obj, rel_tol=1e-9):
        problems.append(f"objective {res['diagnostics']['objective']} != "
                        f"recomputed {obj}")
    ok = _check_fit(b, design, kappa, loss, q, tau, out, op.name)
    if code != 0:
        return  # failed by its own report; its LP gap is still recorded
    if problems or not ok:
        out.notes += [f"{op.name}: {msg}" for msg in problems]
        out.bad[op.name] = 1


# ---------------------------------------------------------------------------
# registry

def build(name: str, outdir: Path) -> list[Op]:
    if name == "mc_desk":
        return mc_ops(desk_cells())
    if name == "mc_p3":
        return mc_ops(p3_cells())
    return cli_ops(outdir)


def check(name: str, ops: list[Op], first: dict, outdir: Path) -> CheckResult:
    """Check each distinct operation once; ``first`` maps names to outcomes."""
    out = CheckResult()
    air = (checks.read_grouped_csv(air_csv(outdir), RESPONSE)
           if name == "cli_air" else None)
    seen = set()
    for op in ops:
        if op.name in seen:
            continue
        seen.add(op.name)
        if first[op.name][0] == "error":
            continue  # raised in the timed phase; counted as failed there
        if air is None:
            check_mc(op, first[op.name], out)
        else:
            check_cli(op, first[op.name], out, air)
    return out
