"""Synthetic scenarios and the Monte Carlo evaluation harness.

A scenario draws a dense standard-normal design with n = g*p, a blockwise
piecewise-constant coefficient vector whose change locations are random,
jump magnitudes uniform on [0.5, 2] with random signs, and errors that are
either standard normal or standard Cauchy.  Each replication fits all four
estimators (fused / adaptive fused, LS / quantile) with the default
tuning schedules and scores detection and accuracy.

Replication m of a run with seed s uses the counter-derived substream
``default_rng((s, m))``, so reports are bit-identical for a given seed and
independent of the worker count.
"""

from __future__ import annotations

import itertools
import json
import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .detection import evaluate_detection, format_recovery
from .model import GroupedCoefficients, GroupedDesign, ProblemSpec
from .solver import SolverConfig, default_schedules, fit

ESTIMATORS = ("fused_ls", "adaptive_ls", "fused_quantile", "adaptive_quantile")

# Monte Carlo default: residuals at 1e-4 relative leave objective errors far
# below the Monte Carlo noise floor while cutting iteration counts several-fold
MC_SOLVER_CONFIG = SolverConfig(tol_abs=1e-6, tol_rel=1e-4, max_iter=6000)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: sizes, error law, change count, tuning choices.

    ``changes`` is either an integer count of truly different successive
    pairs or a fraction of n in (0, 1) (e.g. 0.2 for the twenty-percent
    setting).  The sample size is always n = g*p.
    """

    p: int = 1
    g: int = 20
    error_dist: str = "gaussian"
    changes: float = 2
    tau: float = 0.5
    gamma: float = 1.0
    q: int = 2
    seed: int = 0
    M: int = 100
    jump_range: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        if self.p < 1 or self.g < 1:
            raise ValueError("p and g must be positive")
        if self.error_dist not in ("gaussian", "cauchy"):
            raise ValueError(f"unknown error distribution {self.error_dist!r}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.M < 1:
            raise ValueError("M must be at least 1")
        lo, hi = self.jump_range
        if not 0 < lo <= hi:
            raise ValueError("jump_range must satisfy 0 < lo <= hi")
        if self.changes < 0:
            raise ValueError("changes must be nonnegative")
        if self.changes >= 1 and self.changes != int(self.changes):
            raise ValueError("change counts >= 1 must be integers")
        if self.n_changes > self.g - 1:
            raise ValueError(
                f"{self.n_changes} changes do not fit into g={self.g} groups"
            )

    @property
    def n(self) -> int:
        return self.p * self.g

    @property
    def n_changes(self) -> int:
        if 0 < self.changes < 1:
            return int(round(self.changes * self.n))
        return int(self.changes)


class RunMetrics(NamedTuple):
    med: float
    mad: float
    recovery: float
    overestimation: float
    misscls: int
    converged: bool


@dataclass(frozen=True)
class EstimatorSummary:
    """Plain means of the per-run metrics over M replications."""

    med: float
    mad: float
    recovery: float
    overestimation: float
    misscls: float
    converged_fraction: float


@dataclass(frozen=True, eq=True)
class McReport:
    scenario: ScenarioSpec
    M: int
    estimators: dict[str, EstimatorSummary]
    runs: dict[str, tuple[RunMetrics, ...]]
    wall_time: float = field(compare=False, default=0.0)


def draw_errors(dist: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(n)
    if dist == "cauchy":
        return rng.standard_cauchy(n)
    raise ValueError(f"unknown error distribution {dist!r}")


def _draw_change_locations(rng: np.random.Generator, g: int, k: int) -> list[int]:
    if k == 0:
        return []
    candidates = np.arange(2, g + 1)
    if k > candidates.size:
        raise ValueError(f"{k} changes do not fit into g={g} groups")
    # reject adjacent change pairs when there is room to do so; back-to-back
    # changes create single-group segments that are not identifiable at small g
    avoid_adjacent = k >= 2 and g >= 4 * k
    for _ in range(10000):
        locs = np.sort(rng.choice(candidates, size=k, replace=False))
        if not avoid_adjacent or np.all(np.diff(locs) > 1):
            return [int(j) for j in locs]
    # dense non-adjacent draws can defeat rejection; draw exactly instead:
    # adding i to the i-th of k sorted values from {2..g-k+1} maps them one
    # to one onto the non-adjacent k-subsets of {2..g}.  Falling back only
    # here keeps the draw uniform and every draw rejection finds unchanged.
    locs = np.sort(rng.choice(np.arange(2, g - k + 2), size=k,
                              replace=False)) + np.arange(k)
    return [int(j) for j in locs]


def generate_instance(spec: ScenarioSpec, rng: np.random.Generator
                      ) -> tuple[GroupedDesign, GroupedCoefficients, list[int]]:
    """Draw one synthetic instance: design, true coefficients, true change set.

    Covariates are i.i.d. standard normal.  The base block is uniform on
    (-1, 1) per coordinate; at each change location every coordinate jumps
    by an independent uniform(jump_range) magnitude with an independent
    random sign.  Returns the drawn change locations as 1-based pair labels.
    """
    n, g, p = spec.n, spec.g, spec.p
    X = rng.standard_normal((n, g * p))
    locs = _draw_change_locations(rng, g, spec.n_changes)
    loc_set = set(locs)
    lo, hi = spec.jump_range

    blocks = []
    current = rng.uniform(-1.0, 1.0, p)
    blocks.append(current)
    for j in range(2, g + 1):
        if j in loc_set:
            magnitude = rng.uniform(lo, hi, p)
            sign = np.where(rng.random(p) < 0.5, -1.0, 1.0)
            current = current + sign * magnitude
        blocks.append(current)
    beta0 = GroupedCoefficients(tuple(blocks))

    eps = draw_errors(spec.error_dist, n, rng)
    y = X @ beta0.flat + eps
    return GroupedDesign(X=X, y=y, g=g, p=p), beta0, locs


def _score_fit(result, design, beta0, truth) -> RunMetrics:
    report = evaluate_detection(result.detected_set, truth, design.y,
                                design.X @ result.beta.flat, beta0,
                                result.beta)
    return RunMetrics(
        med=report.med,
        mad=report.mad,
        recovery=report.recovery_rate,
        overestimation=report.overestimation_ratio,
        misscls=report.missclassification_count,
        converged=result.converged,
    )


def _replication(spec: ScenarioSpec, cfg: SolverConfig, m: int
                 ) -> dict[str, RunMetrics]:
    rng = np.random.default_rng((spec.seed, m))
    design, beta0, truth = generate_instance(spec, rng)
    n = design.n
    lam_fused, _ = default_schedules(n, "fused")
    lam_adaptive, _ = default_schedules(n, "adaptive")

    out: dict[str, RunMetrics] = {}
    try:
        for family in ("ls", "quantile"):
            pilot_spec = ProblemSpec(loss=family, tau=spec.tau, q=spec.q,
                                     lam=lam_fused)
            pilot = fit(design, pilot_spec, cfg)
            name = "fused_ls" if family == "ls" else "fused_quantile"
            out[name] = _score_fit(pilot, design, beta0, truth)

            adaptive_spec = ProblemSpec(loss=family, tau=spec.tau, q=spec.q,
                                        lam=lam_adaptive,
                                        weight_mode="adaptive",
                                        gamma=spec.gamma, pilot=pilot.beta)
            refit = fit(design, adaptive_spec,
                        replace(cfg, warm_start=pilot.beta))
            name = "adaptive_ls" if family == "ls" else "adaptive_quantile"
            out[name] = _score_fit(refit, design, beta0, truth)
    except Exception as exc:
        raise RuntimeError(
            f"replication {m} with seed {spec.seed} failed: {exc}"
        ) from exc
    return out


def run_monte_carlo(spec: ScenarioSpec, workers: int = 1,
                    solver_cfg: SolverConfig | None = None) -> McReport:
    """Run the four-estimator protocol over M replications and aggregate.

    ``workers`` above 1 runs the replications in a process pool.
    Deterministic given the scenario seed: replication m draws from the
    substream ``default_rng((seed, m))`` and aggregation sums in replication
    order, so the report does not depend on ``workers``.
    """
    if spec.n_changes < 1:
        raise ValueError("scenario needs at least one true change to score")
    cfg = solver_cfg if solver_cfg is not None else MC_SOLVER_CONFIG
    task = partial(_replication, spec, cfg)

    start = time.perf_counter()
    if workers <= 1 or spec.M == 1:
        per_run = [task(m) for m in range(spec.M)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(task, range(spec.M)))
    wall = time.perf_counter() - start

    runs = {name: tuple(r[name] for r in per_run) for name in ESTIMATORS}
    estimators = {}
    for name in ESTIMATORS:
        rs = runs[name]
        estimators[name] = EstimatorSummary(
            med=float(np.mean([r.med for r in rs])),
            mad=float(np.mean([r.mad for r in rs])),
            recovery=float(np.mean([r.recovery for r in rs])),
            overestimation=float(np.mean([r.overestimation for r in rs])),
            misscls=float(np.mean([r.misscls for r in rs])),
            converged_fraction=float(np.mean([r.converged for r in rs])),
        )
    return McReport(scenario=spec, M=spec.M, estimators=estimators,
                    runs=runs, wall_time=wall)


# ---------------------------------------------------------------------------
# scenario grid configs


class ConfigError(ValueError):
    """Malformed scenario config; message carries the line number."""


_LIST_KEYS = ("p", "g", "errors", "changes")
_SCALAR_KEYS = ("M", "seed", "tau", "gamma", "q")


def _parse_number(text: str, line_no: int):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: {text!r} is not a number") from None
    return int(v) if v == int(v) and "." not in text else v


def load_scenario_grid(path) -> list[ScenarioSpec]:
    """Read a key=value grid config and expand it into scenario specs.

    List-valued keys (p, g, errors, changes) take comma-separated values and
    are crossed; M, seed, tau, gamma, q are scalars shared by every cell.
    Lines starting with '#' are comments.
    """
    values: dict[str, object] = {
        "p": [1], "g": [20], "errors": ["gaussian"], "changes": [2],
        "M": 100, "seed": 0, "tau": 0.5, "gamma": 1.0, "q": 2,
    }
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            key, _, rhs = line.partition("=")
            key = key.strip()
            rhs = rhs.strip()
            if not rhs:
                raise ConfigError(f"line {line_no}: empty value for {key!r}")
            if key == "errors":
                dists = [tok.strip().lower() for tok in rhs.split(",")]
                for d in dists:
                    if d not in ("gaussian", "cauchy"):
                        raise ConfigError(
                            f"line {line_no}: unknown error distribution {d!r}")
                values["errors"] = dists
            elif key in _LIST_KEYS:
                values[key] = [_parse_number(tok.strip(), line_no)
                               for tok in rhs.split(",")]
            elif key in _SCALAR_KEYS:
                values[key] = _parse_number(rhs, line_no)
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")

    specs = []
    for p, g, err, ch in itertools.product(
            values["p"], values["g"], values["errors"], values["changes"]):
        try:
            specs.append(ScenarioSpec(
                p=int(p), g=int(g), error_dist=err, changes=ch,
                tau=float(values["tau"]), gamma=float(values["gamma"]),
                q=int(values["q"]), seed=int(values["seed"]),
                M=int(values["M"])))
        except ValueError as exc:
            raise ConfigError(
                f"invalid scenario p={p} g={g} errors={err} changes={ch}: {exc}"
            ) from exc
    return specs


# ---------------------------------------------------------------------------
# report output (timing deliberately excluded: files must be reproducible)


def _scenario_echo(spec: ScenarioSpec) -> dict:
    return {
        "p": spec.p, "g": spec.g, "n": spec.n, "errors": spec.error_dist,
        "changes": spec.changes, "n_changes": spec.n_changes, "tau": spec.tau,
        "gamma": spec.gamma, "q": spec.q, "seed": spec.seed,
    }


def write_report_csv(reports: list[McReport], path) -> None:
    fields = ["scenario", "p", "g", "n", "errors", "changes", "tau", "gamma",
              "q", "M", "estimator", "med", "mad", "recovery",
              "overestimation", "misscls", "converged_fraction"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for idx, rep in enumerate(reports):
            s = rep.scenario
            for name in ESTIMATORS:
                est = rep.estimators[name]
                writer.writerow([
                    idx, s.p, s.g, s.n, s.error_dist, s.changes, s.tau,
                    s.gamma, s.q, rep.M, name, est.med, est.mad,
                    est.recovery, est.overestimation, est.misscls,
                    est.converged_fraction,
                ])


def write_report_json(reports: list[McReport], path) -> None:
    payload = {
        "schema_version": 1,
        "scenarios": [
            {
                **_scenario_echo(rep.scenario),
                "M": rep.M,
                "estimators": {
                    name: {
                        "med": rep.estimators[name].med,
                        "mad": rep.estimators[name].mad,
                        "recovery": rep.estimators[name].recovery,
                        "overestimation": rep.estimators[name].overestimation,
                        "misscls": rep.estimators[name].misscls,
                        "converged_fraction":
                            rep.estimators[name].converged_fraction,
                    }
                    for name in ESTIMATORS
                },
            }
            for rep in reports
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


_DISPLAY = {
    "fused_ls": "fused LS",
    "adaptive_ls": "adaptive fused LS",
    "fused_quantile": "fused quantile",
    "adaptive_quantile": "adaptive fused quantile",
}


def format_table(reports: list[McReport]) -> str:
    """Text table with the 'recovered/overestimated' two-value convention."""
    lines = []
    for rep in reports:
        s = rep.scenario
        lines.append(
            f"p={s.p} g={s.g} n={s.n} errors={s.error_dist} "
            f"changes={s.n_changes} M={rep.M}"
        )
        lines.append(f"  {'estimator':<26}{'MED':>9}{'MAD':>9}  Recovery")
        for name in ESTIMATORS:
            est = rep.estimators[name]
            rec = format_recovery(est.recovery, est.overestimation)
            lines.append(
                f"  {_DISPLAY[name]:<26}{est.med:>9.2f}{est.mad:>9.2f}  {rec}"
            )
        lines.append("")
    return "\n".join(lines)
