"""SHA-256 digests of many fits, to check that two checkouts fit bit for bit.

    python3 scripts/fit_digest.py [--src DIR] [--quick] [--per-fit OUT]
                                  [--against OTHER]

Imports groupfuse from DIR (default: this checkout's src/) and runs, with
one BLAS thread:

- the four fits of a replication (fused and adaptive, LS and quantile) at
  the Monte Carlo solver settings on the desk-grid cells (m = 0, 1), eight
  p = 2, g = 20 cells (q = 1 and 2) and, unless ``--quick``, the four
  p = 3, g = 100 Gaussian cells of the full grid (m = 0);
- on every cell with p < 3, restarts from the returned coefficients, one
  label each (a warm start is a coefficient vector, so every restart
  runs): ``same_problem`` (the refit warm-started from itself),
  ``double_lambda`` (the fused fit at twice the lambda, from the pilot),
  ``from_ls`` / ``from_quantile`` (the fused fit of the other loss, from
  the pilot), ``pilot_copy`` (the fused fit from a copy of its own
  coefficients, rebuilt by ``GroupedCoefficients.from_flat``) and
  ``max_iter`` (a cold stop at max_iter = 3);
- the same on one desk cell at the default solver settings and on 60 tiny
  instances (g * p <= 4, q = 1 and 2, several tau);
- all-zero designs at g = 1, 3, 5 (p = 1) and g = 2 (p = 2), both losses,
  q = 1 and 2, with and without max_iter = 3 (``zero_design`` and
  ``zero_design_max_iter``).

Prints one JSON object: the fit and iteration counts, the fits per solver
route, a digest over each fit's FitResult fields (coefficients, objective
trace, iteration count, residuals, converged flag, detected set, route and
duality gap), and a digest over ``objective`` evaluated at each fit.
Equal digests mean equal bits.  Only FitResult fields are hashed, so the
digests of any two checkouts since the LP route compare.

``--per-fit OUT`` also writes one JSON record per fit: its index, what it
is (``label``), its loss and shape (``ls_separable`` and ``quantile_lp``
for p = 1 or q = 1, ``ls_q2`` and ``quantile_socp`` otherwise), route,
iterations, duality gap and digest.  ``--against OTHER`` compares the fits
with such a file written from another checkout and adds, per shape and
label, how many fits are equal and how many differ.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def shape(spec, p):
    separable = p == 1 or spec.q == 1
    if spec.loss == "ls":
        return "ls_separable" if separable else "ls_q2"
    return "quantile_lp" if separable else "quantile_socp"


class Digest:
    def __init__(self, gf):
        self.gf = gf
        self.fits = hashlib.sha256()
        self.objectives = hashlib.sha256()
        self.count = self.iterations = 0
        self.records = []
        self._one = None

    def _update(self, data: bytes):
        self.fits.update(data)
        self._one.update(data)

    def _array(self, a):
        if a is None:
            self._update(b"None")
            return
        a = np.ascontiguousarray(a, dtype=float)
        self._update(repr(a.shape).encode())
        self._update(a.tobytes())

    def fit(self, design, spec, cfg=None, label="fit"):
        res = self.gf.fit(design, spec, cfg)
        self._one = hashlib.sha256()
        self.count += 1
        self.iterations += res.iterations
        self._array(res.beta.flat)
        self._array(np.array(res.objective_trace))
        self._update(repr((res.iterations, res.converged,
                           res.primal_residual, res.dual_residual,
                           res.detected_set, res.overparameterized,
                           res.route, res.duality_gap)).encode())
        self.objectives.update(
            repr(self.gf.objective(design, spec, res.beta)).encode())
        self.records.append({
            "i": self.count - 1, "label": label, "loss": spec.loss,
            "shape": shape(spec, design.p), "route": res.route,
            "iterations": res.iterations,
            "duality_gap": res.duality_gap,
            "sha256": self._one.hexdigest()})
        return res


def compare(records, other) -> dict:
    """Per shape and label, how many fits equal the other file's."""
    if len(records) != len(other):
        raise SystemExit(f"{len(records)} fits here, {len(other)} there")
    out = {}
    for mine, theirs in zip(records, other):
        key = f"{mine['shape']}/{mine['label']}"
        tally = out.setdefault(key, {"equal": 0, "differ": 0})
        tally["equal" if mine["sha256"] == theirs["sha256"]
              else "differ"] += 1
    return dict(sorted(out.items()))


def replication(dg, design, cell, cfg, restarts):
    gf = dg.gf
    n = design.n
    lam_f = gf.default_schedules(n, "fused")[0] if n >= 2 else 0.1
    lam_a = gf.default_schedules(n, "adaptive")[0] if n >= 2 else 0.1
    for loss in ("ls", "quantile"):
        fused = gf.ProblemSpec(loss=loss, tau=cell.tau, q=cell.q, lam=lam_f)
        pilot = dg.fit(design, fused, cfg, "pilot")
        adaptive = gf.ProblemSpec(loss=loss, tau=cell.tau, q=cell.q,
                                  lam=lam_a, weight_mode="adaptive",
                                  gamma=cell.gamma, pilot=pilot.beta)
        refit = dg.fit(design, adaptive, replace(cfg, warm_start=pilot.beta),
                       "refit")
        if not restarts:
            continue
        dg.fit(design, adaptive, replace(cfg, warm_start=refit.beta),
               "same_problem")
        dg.fit(design, replace(fused, lam=2.0 * lam_f),
               replace(cfg, warm_start=pilot.beta), "double_lambda")
        other = "quantile" if loss == "ls" else "ls"
        dg.fit(design, replace(fused, loss=other),
               replace(cfg, warm_start=pilot.beta), f"from_{loss}")
        plain = gf.GroupedCoefficients.from_flat(pilot.beta.flat.copy(),
                                                 design.g, design.p)
        dg.fit(design, fused, replace(cfg, warm_start=plain), "pilot_copy")
        dg.fit(design, fused, replace(cfg, max_iter=3), "max_iter")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--quick", action="store_true",
                    help="leave out the p = 3, g = 100 cells")
    ap.add_argument("--per-fit", help="write one JSON record per fit here")
    ap.add_argument("--against",
                    help="a --per-fit file of another checkout to compare")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import groupfuse as gf
    from groupfuse.simulation import (MC_SOLVER_CONFIG, ScenarioSpec,
                                      generate_instance, load_scenario_grid)

    dg = Digest(gf)
    desk = load_scenario_grid(ROOT / "scripts" / "desk_grid.conf")
    full = load_scenario_grid(ROOT / "scripts" / "full_grid.conf")
    p2 = [ScenarioSpec(p=2, g=20, error_dist=e, changes=k, q=q, seed=7)
          for e in ("gaussian", "cauchy") for k in (2, 5) for q in (1, 2)]
    cells = [(c, 2) for c in desk] + [(c, 1) for c in p2]
    if not args.quick:
        cells += [(c, 1) for c in full
                  if (c.p, c.g, c.error_dist) == (3, 100, "gaussian")]
    for cell, reps in cells:
        for m in range(reps):
            design = generate_instance(cell,
                                       np.random.default_rng((cell.seed, m)))[0]
            replication(dg, design, cell, MC_SOLVER_CONFIG, cell.p < 3)
    cell = desk[0]
    design = generate_instance(cell, np.random.default_rng((cell.seed, 5)))[0]
    replication(dg, design, cell, gf.SolverConfig(), True)
    rng = np.random.default_rng(123)
    shapes = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2), (4, 1)]
    for i in range(60):
        g, p = shapes[i % 7]
        n = int(rng.integers(4, 9))
        X = rng.standard_normal((n, g * p))
        y = X @ rng.uniform(-2, 2, g * p) + 0.5 * rng.standard_normal(n)
        cell = ScenarioSpec(p=p, g=g, changes=0, q=1 + i % 2,
                            tau=0.3 + 0.1 * (i % 4))
        replication(dg, gf.GroupedDesign(X=X, y=y, g=g, p=p), cell,
                    gf.SolverConfig(), True)
    for g, p in ((1, 1), (3, 1), (2, 2), (5, 1)):
        design = gf.GroupedDesign(X=np.zeros((6, g * p)), y=np.arange(6.0),
                                  g=g, p=p)
        for loss in ("ls", "quantile"):
            for q in (1, 2):
                spec = gf.ProblemSpec(loss=loss, q=q, lam=0.2)
                dg.fit(design, spec, None, "zero_design")
                dg.fit(design, spec, gf.SolverConfig(max_iter=3),
                       "zero_design_max_iter")
    routes = {}
    for rec in dg.records:
        routes[rec["route"]] = routes.get(rec["route"], 0) + 1
    out = {"fits": dg.count, "iterations": dg.iterations, "routes": routes,
           "fits_sha256": dg.fits.hexdigest(),
           "objectives_sha256": dg.objectives.hexdigest()}
    if args.per_fit:
        with open(args.per_fit, "w", encoding="utf-8") as fh:
            json.dump(dg.records, fh, indent=0)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            out["against"] = compare(dg.records, json.load(fh))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
