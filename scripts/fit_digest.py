"""SHA-256 digests of many fits, to check that two checkouts fit bit for bit.

    python3 scripts/fit_digest.py [--src DIR] [--quick]

Imports groupfuse from DIR (default: this checkout's src/) and runs, with
one BLAS thread:

- the four fits of a replication (fused and adaptive, LS and quantile) at
  the Monte Carlo solver settings on the desk-grid cells (m = 0, 1), eight
  p = 2, g = 20 cells (q = 1 and 2) and, unless ``--quick``, the four
  p = 3, g = 100 Gaussian cells of the full grid (m = 0);
- on every cell with p < 3, restarts from the returned state: the same
  problem, twice the lambda, the other loss, a plain coefficient vector,
  and a stop at max_iter = 3;
- the same on one desk cell at the default solver settings and on 60 tiny
  instances (g * p <= 4, q = 1 and 2, several tau);
- all-zero designs at g = 1, 3, 5 (p = 1) and g = 2 (p = 2), both losses,
  q = 1 and 2, with and without max_iter = 3.

Prints one JSON object: the fit and iteration counts, a digest over each
fit's coefficients, objective trace, iteration count, residuals, converged
flag, detected set and returned warm state, and a digest over
``objective`` evaluated at each fit.  Equal digests mean equal bits.
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


class Digest:
    def __init__(self, gf):
        self.gf = gf
        self.fits = hashlib.sha256()
        self.objectives = hashlib.sha256()
        self.count = self.iterations = 0

    def _array(self, a):
        if a is None:
            self.fits.update(b"None")
            return
        a = np.ascontiguousarray(a, dtype=float)
        self.fits.update(repr(a.shape).encode())
        self.fits.update(a.tobytes())

    def fit(self, design, spec, cfg=None):
        res = self.gf.fit(design, spec, cfg)
        self.count += 1
        self.iterations += res.iterations
        self._array(res.beta.flat)
        self._array(np.array(res.objective_trace))
        self.fits.update(repr((res.iterations, res.converged,
                               res.primal_residual, res.dual_residual,
                               res.detected_set,
                               res.overparameterized)).encode())
        st = res.beta._warm_state
        for a in (st.s, st.u):
            self._array(a)
        self.fits.update(repr((st.rho, st.problem_key, st.stop_primal,
                               st.stop_dual, st.converged)).encode())
        self.objectives.update(
            repr(self.gf.objective(design, spec, res.beta)).encode())
        return res


def replication(dg, design, cell, cfg, restarts):
    gf = dg.gf
    n = design.n
    lam_f = gf.default_schedules(n, "fused")[0] if n >= 2 else 0.1
    lam_a = gf.default_schedules(n, "adaptive")[0] if n >= 2 else 0.1
    for loss in ("ls", "quantile"):
        fused = gf.ProblemSpec(loss=loss, tau=cell.tau, q=cell.q, lam=lam_f)
        pilot = dg.fit(design, fused, cfg)
        adaptive = gf.ProblemSpec(loss=loss, tau=cell.tau, q=cell.q,
                                  lam=lam_a, weight_mode="adaptive",
                                  gamma=cell.gamma, pilot=pilot.beta)
        refit = dg.fit(design, adaptive, replace(cfg, warm_start=pilot.beta))
        if not restarts:
            continue
        dg.fit(design, adaptive, replace(cfg, warm_start=refit.beta))
        dg.fit(design, replace(fused, lam=2.0 * lam_f),
               replace(cfg, warm_start=pilot.beta))
        other = "quantile" if loss == "ls" else "ls"
        dg.fit(design, replace(fused, loss=other),
               replace(cfg, warm_start=pilot.beta))
        plain = gf.GroupedCoefficients.from_flat(pilot.beta.flat.copy(),
                                                 design.g, design.p)
        dg.fit(design, fused, replace(cfg, warm_start=plain))
        dg.fit(design, fused, replace(cfg, max_iter=3))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--quick", action="store_true",
                    help="leave out the p = 3, g = 100 cells")
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
                dg.fit(design, spec)
                dg.fit(design, spec, gf.SolverConfig(max_iter=3))
    print(json.dumps({"fits": dg.count, "iterations": dg.iterations,
                      "fits_sha256": dg.fits.hexdigest(),
                      "objectives_sha256": dg.objectives.hexdigest()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
