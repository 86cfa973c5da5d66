"""Time b-update factorizations, solves, ADMM and interior-point iterations.

    python3 scripts/bench_kernels.py [--src DIR] [--repeat 5]

Imports groupfuse from DIR (default: this checkout's src/), so the same
script times any other checkout too, and runs with one BLAS thread.
Prints one JSON object:

- ``factor_ms``: milliseconds per ``solver._factorize`` call, and
  ``solve_us``: microseconds per solve through the callable it returns,
  for r = 20, 48 (the air dataset's g * p), 100 and 300, on the LS system
  2 X'X + D'D of a random n = r, p = 1 design;
- ``iter_us``: microseconds per ADMM iteration of the fused fits, by loss,
  on the eight desk-grid cells (p = 1, replication m = 0; LS only, since
  their quantile fits take the LP route) and on the p = 3, g = 100,
  two-change Gaussian cell of the full grid, at the Monte Carlo solver
  settings, and on the air dataset (n = 357, g = 24, p = 2, from
  ``datasets.write_hourly_profile_csv(n_days=357, seed=7)``) at the
  defaults of ``groupfuse fit --auto-lambda``.  Each is fit time over
  iterations, so the factorization is included;
- ``lp_route``: the interior-point route, as ``us_per_iter`` (fit time
  over iterations) and ``iters_per_fit``, for the fused quantile fits and
  the adaptive refits warm-started from them on the desk cells at the
  Monte Carlo solver settings, and for ``groupfuse fit --loss quantile
  --q 1 --auto-lambda`` on the air dataset;
- ``polish_us``: microseconds per attempt of the certified exact finish of
  separable LS fits (``solver._ls_finish``: the polish of a difference
  vector, the residuals of the polished point and its dual bound), on the
  differences D b of the points the fused LS fits of the desk cells return
  (a certified fit's fused pairs are exact zeros there; ``desk.r20`` and
  ``desk.r100``, averaged over the four cells of each size, at the Monte
  Carlo solver settings) and of ``groupfuse fit --q 1 --auto-lambda`` on
  the air dataset (``air_q1``, r = 48).

Every figure is the best of ``--repeat`` rounds.
"""

import argparse
import json
import os
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy is first imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


SIZES = (20, 48, 100, 300)


def ls_system(solver, r: int) -> np.ndarray:
    X = np.random.default_rng(r).standard_normal((r, r))
    return 2.0 * (X.T @ X) + solver.DiffOperator(r, 1).gram()


def factor_ms(solver, r: int, repeat: int) -> float:
    M = ls_system(solver, r)
    number = 200 if r <= 100 else 20
    best = min(timeit.repeat(lambda: solver._factorize(M), number=number,
                             repeat=repeat))
    return best / number * 1e3


def solve_us(solver, r: int, repeat: int) -> float:
    solve = solver._factorize(ls_system(solver, r))
    rhs = np.random.default_rng(r + 1).standard_normal(r)
    number = 2000
    best = min(timeit.repeat(lambda: solve(rhs), number=number, repeat=repeat))
    return best / number * 1e6


def cell_designs(cells):
    """(design, tau, q) of replication m = 0 of each scenario cell."""
    from groupfuse.simulation import generate_instance
    return [(generate_instance(c, np.random.default_rng((c.seed, 0)))[0],
             c.tau, c.q) for c in cells]


def air_design():
    """The air dataset as ``groupfuse fit`` reads it: (design, tau, q)."""
    from groupfuse.datasets import load_dataset, write_hourly_profile_csv
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "air.csv"
        write_hourly_profile_csv(path, n_days=357, seed=7)
        return [(load_dataset(path, "benzene_max")[0], 0.5, 2)]


def iter_us(designs, loss: str, cfg, repeat: int) -> float:
    from groupfuse import ProblemSpec
    from groupfuse.solver import default_schedules, fit
    work = []
    for design, tau, q in designs:
        lam = default_schedules(design.n, "fused")[0]
        work.append((design, ProblemSpec(loss=loss, tau=tau, q=q, lam=lam)))
    best = float("inf")
    for _ in range(repeat):
        busy = iters = 0
        for design, spec in work:
            t0 = perf_counter()
            res = fit(design, spec, cfg)
            busy += perf_counter() - t0
            iters += res.iterations
        best = min(best, busy / iters * 1e6)
    return best


def lp_route(designs, cfg, adaptive: bool, repeat: int) -> dict:
    """us per interior-point iteration and iterations per fit."""
    from dataclasses import replace

    from groupfuse import ProblemSpec
    from groupfuse.solver import default_schedules, fit
    best = float("inf")
    for _ in range(repeat):
        busy = iters = fits = 0
        for design, tau, q in designs:
            spec = ProblemSpec(loss="quantile", tau=tau, q=q,
                               lam=default_schedules(design.n, "fused")[0])
            warm = cfg
            if adaptive:
                pilot = fit(design, spec, cfg)
                spec = replace(spec, weight_mode="adaptive", pilot=pilot.beta,
                               lam=default_schedules(design.n, "adaptive")[0])
                warm = replace(cfg, warm_start=pilot.beta)
            t0 = perf_counter()
            res = fit(design, spec, warm)
            busy += perf_counter() - t0
            assert res.route == "ipm"
            iters += res.iterations
            fits += 1
        best = min(best, busy / iters * 1e6)
    return {"us_per_iter": round(best, 1),
            "iters_per_fit": round(iters / fits, 2)}


def polish_us(designs, cfg, repeat: int) -> float:
    """us per polish attempt on the differences of the fused LS fits."""
    from groupfuse import ProblemSpec
    from groupfuse.solver import (DiffOperator, _ls_finish,
                                  default_schedules, fit)
    attempts = []
    for design, _, _ in designs:
        X, y = design.X, design.y
        lam = default_schedules(design.n, "fused")[0]
        res = fit(design, ProblemSpec(loss="ls", q=1, lam=lam), cfg)
        kappa = design.n * lam * np.ones(design.g - 1)
        polish, dual = _ls_finish(design, kappa, 2.0 * (X.T @ X),
                                  2.0 * (X.T @ y))
        # a certified fit's fused pairs are exact zeros of its differences
        zd = DiffOperator(design.g, design.p).apply(res.beta.flat)

        def attempt(polish=polish, dual=dual, zd=zd, X=X, y=y):
            dual(y - X @ polish(zd))
        attempts.append(attempt)
    number = 200
    best = min(timeit.repeat(lambda: [a() for a in attempts], number=number,
                             repeat=repeat))
    return best / number / len(attempts) * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from groupfuse import solver
    from groupfuse.simulation import MC_SOLVER_CONFIG, load_scenario_grid

    desk = load_scenario_grid(ROOT / "scripts" / "desk_grid.conf")
    p3 = [c for c in load_scenario_grid(ROOT / "scripts" / "full_grid.conf")
          if (c.p, c.g, c.error_dist, c.changes) == (3, 100, "gaussian", 2)]
    air = air_design()
    sizes = (("desk", cell_designs(desk), MC_SOLVER_CONFIG),
             ("p3", cell_designs(p3), MC_SOLVER_CONFIG),
             ("air", air, solver.SolverConfig()))
    out = {
        "factor_ms": {r: round(factor_ms(solver, r, args.repeat), 4)
                      for r in SIZES},
        "solve_us": {r: round(solve_us(solver, r, args.repeat), 2)
                     for r in SIZES},
        "iter_us": {f"{label}.{loss}": round(iter_us(designs, loss, cfg,
                                                     args.repeat), 1)
                    for label, designs, cfg in sizes
                    for loss in ("ls", "quantile")
                    if (label, loss) != ("desk", "quantile")},
        # None on a checkout without the LP route
        "lp_route": {
            "desk.fused": lp_route(sizes[0][1], MC_SOLVER_CONFIG, False,
                                   args.repeat),
            "desk.adaptive": lp_route(sizes[0][1], MC_SOLVER_CONFIG, True,
                                      args.repeat),
            "air_q1.fused": lp_route([(d, tau, 1) for d, tau, _ in air],
                                     solver.SolverConfig(), False,
                                     args.repeat),
        } if hasattr(solver, "_lp_ipm") else None,
        # None on a checkout without the certified LS finish
        "polish_us": {
            "desk.r20": round(polish_us([d for d in sizes[0][1]
                                         if d[0].g == 20],
                                        MC_SOLVER_CONFIG, args.repeat), 1),
            "desk.r100": round(polish_us([d for d in sizes[0][1]
                                          if d[0].g == 100],
                                         MC_SOLVER_CONFIG, args.repeat), 1),
            "air_q1": round(polish_us(air, solver.SolverConfig(),
                                      args.repeat), 1),
        } if hasattr(solver, "_ls_finish") else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
