"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one pass/fail line.

The Monte Carlo criteria run at desk scale (M = 100 or 200) with fixed
seeds, so the whole module is deterministic; expect roughly ten minutes of
wall time on two cores.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from groupfuse import ProblemSpec, fit, objective
from groupfuse.cli import main
from groupfuse.losses import prox_check
from groupfuse.penalties import prox_block_norms
from groupfuse.simulation import (MC_SOLVER_CONFIG, ScenarioSpec,
                                  generate_instance, run_monte_carlo)
from helpers import (brute_force_fit, heavy_schedule_misscls,
                     knight_identity_gap, random_tiny_instance,
                     ternary_min_batch)

WORKERS = 2


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


# -- criterion 1: oracle equivalence over the full cell grid ----------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    losses = [("quantile", 0.3), ("quantile", 0.5), ("quantile", 0.8),
              ("ls", 0.5)]
    worst = -np.inf
    cells = 0
    for li, (loss, tau) in enumerate(losses):
        for q in (1, 2):
            for adaptive in (False, True):
                rng = np.random.default_rng(1000 + li * 10 + q * 2 + adaptive)
                for _ in range(50):
                    design, spec = random_tiny_instance(rng, loss, tau, q,
                                                        adaptive)
                    fitted = fit(design, spec)
                    oracle = brute_force_fit(design, spec)
                    gap = objective(design, spec, fitted.beta) - \
                        objective(design, spec, oracle)
                    worst = max(worst, gap)
                cells += 1
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-5 and elapsed < 120.0,
            "solver matches brute-force oracle on 16 x 50 tiny instances",
            f"worst gap {worst:.2e}, {elapsed:.0f}s")


# -- criterion 2: the check-function identity --------------------------------

def test_criterion_2_knight_identity():
    rng = np.random.default_rng(2024)
    x = rng.normal(0.0, 5.0, 100_000)
    y = rng.normal(0.0, 5.0, 100_000)
    tau = rng.uniform(0.01, 0.99, 100_000)
    gap = float(np.max(knight_identity_gap(x, y, tau)))
    _report(2, gap <= 1e-12,
            "check-function identity holds over 1e5 random triples",
            f"max gap {gap:.2e}")


# -- criterion 3: proximal maps match numeric minimization -------------------

def test_criterion_3_prox_correctness():
    rng = np.random.default_rng(33)
    n = 10_000

    v = rng.normal(0.0, 3.0, n)
    alpha = rng.uniform(0.05, 5.0, n)
    tau = rng.uniform(0.05, 0.95, n)
    objective_batch = lambda z: z * (tau - (z < 0)) + (z - v) ** 2 / (2 * alpha)
    oracle = ternary_min_batch(objective_batch, np.full(n, -20.0),
                               np.full(n, 20.0))
    err_check = float(np.max(np.abs(prox_check(v, alpha, tau) - oracle)))

    vq1 = rng.normal(0.0, 3.0, n)
    kq1 = rng.uniform(0.0, 3.0, n)
    obj_q1 = lambda z: kq1 * np.abs(z) + 0.5 * (z - vq1) ** 2
    oracle_q1 = ternary_min_batch(obj_q1, np.full(n, -20.0),
                                  np.full(n, 20.0))
    got_q1 = prox_block_norms(vq1[:, None], kq1, q=1)[:, 0]
    err_q1 = float(np.max(np.abs(got_q1 - oracle_q1)))

    # rotational symmetry reduces the q=2 block prox to its radial part
    V = rng.normal(0.0, 2.0, (n, 2))
    kq2 = rng.uniform(0.0, 3.0, n)
    radii = np.linalg.norm(V, axis=1)
    radial = lambda s: kq2 * s + 0.5 * (s - radii) ** 2
    s_star = np.maximum(ternary_min_batch(radial, np.zeros(n),
                                          radii + kq2 + 1.0), 0.0)
    expect = V * (s_star / radii)[:, None]
    got_q2 = prox_block_norms(V, kq2, q=2)
    err_q2 = float(np.max(np.abs(got_q2 - expect)))

    worst = max(err_check, err_q1, err_q2)
    _report(3, worst <= 1e-6,
            "prox maps match 1-D / componentwise numeric minimization "
            "over 1e4 inputs",
            f"worst error {worst:.2e}")


# -- criteria 4-6: desk-scale Monte Carlo reproductions ----------------------

@pytest.fixture(scope="module")
def gaussian_report():
    spec = ScenarioSpec(p=1, g=100, error_dist="gaussian", changes=2,
                        tau=0.5, q=2, seed=20260810, M=200)
    return run_monte_carlo(spec, workers=WORKERS)


@pytest.fixture(scope="module")
def cauchy_report():
    spec = ScenarioSpec(p=1, g=100, error_dist="cauchy", changes=5,
                        tau=0.5, q=2, seed=20260811, M=200)
    return run_monte_carlo(spec, workers=WORKERS)


def test_criterion_4_gaussian_table_reproduction(gaussian_report):
    start = gaussian_report.wall_time
    adaptive = gaussian_report.estimators["adaptive_ls"]
    fused = gaussian_report.estimators["fused_ls"]
    ok = (adaptive.recovery >= 0.85 and adaptive.overestimation <= 3.0
          and fused.recovery >= 0.95)
    _report(4, ok and start <= 900.0,
            "Gaussian g=100, 2 changes, M=200: adaptive fused LS recovery "
            ">= 0.85, overestimation <= 3.0; fused LS recovery >= 0.95",
            f"adaptive {adaptive.recovery:.3f}/{adaptive.overestimation:.2f}, "
            f"fused recovery {fused.recovery:.3f}, {start:.0f}s")


def test_criterion_5_cauchy_robustness(cauchy_report):
    qt = cauchy_report.estimators["fused_quantile"]
    ls = cauchy_report.estimators["fused_ls"]
    ratio = ls.mad / qt.mad
    runs_qt = cauchy_report.runs["fused_quantile"]
    runs_ls = cauchy_report.runs["fused_ls"]
    frac = float(np.mean([q.mad < l.mad
                          for q, l in zip(runs_qt, runs_ls)]))
    ok = (qt.mad <= 0.5 and ls.mad >= 5.0 and ratio >= 10.0
          and frac >= 0.95 and cauchy_report.wall_time <= 900.0)
    _report(5, ok,
            "Cauchy g=100, 5 changes, M=200: quantile MAD <= 0.5, LS MAD "
            ">= 5, ratio >= 10, quantile beats LS in >= 95% of runs",
            f"quantile MAD {qt.mad:.3f}, LS MAD {ls.mad:.1f}, "
            f"ratio {ratio:.1f}, per-run fraction {frac:.3f}")


@pytest.fixture(scope="module")
def adaptive_grid_reports():
    reports = {}
    for g in (20, 100):
        for changes in (2, 5):
            spec = ScenarioSpec(p=1, g=g, error_dist="gaussian",
                                changes=changes, tau=0.5, q=2,
                                seed=20260812, M=100)
            reports[(g, changes)] = run_monte_carlo(spec, workers=WORKERS)
    return reports


def test_criterion_6_adaptive_false_discovery_reduction(adaptive_grid_reports):
    details = []
    ok = True
    for (g, changes), rep in adaptive_grid_reports.items():
        for fused_name, adaptive_name in (
                ("fused_ls", "adaptive_ls"),
                ("fused_quantile", "adaptive_quantile")):
            fused_mis = rep.estimators[fused_name].misscls
            adaptive_mis = rep.estimators[adaptive_name].misscls
            ok = ok and adaptive_mis <= fused_mis + 0.5
            details.append(f"g={g},k={changes},{fused_name.split('_')[1]}: "
                           f"{adaptive_mis:.2f} vs {fused_mis:.2f}")
    _report(6, ok,
            "adaptive weights do not increase false discoveries on the "
            "Gaussian grid (mean |adaptive \\ truth| <= mean "
            "|fused \\ truth| + 0.5)",
            "; ".join(details))


# -- criterion 7: misclassification growth stays under the target rate ------

def test_criterion_7_missclassification_bound():
    seed = 20260813
    M = 100
    means = {}
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for n in (100, 200, 400):
            args = [(n, seed, m, MC_SOLVER_CONFIG) for m in range(M)]
            means[n] = float(np.mean(list(pool.map(
                heavy_schedule_misscls, args, chunksize=10))))
    bound = lambda n: np.sqrt(n) / np.sqrt(np.log(n))
    c_fit = means[100] / bound(100)
    ok = all(means[n] <= c_fit * bound(n) + 1e-9 for n in (200, 400))
    _report(7, ok,
            "heavy-schedule misclassification grows no faster than "
            "sqrt(n)/sqrt(log n) with the constant fit at n=100",
            f"means {means}, C {c_fit:.3f}, "
            f"bounds {{200: {c_fit * bound(200):.2f}, "
            f"400: {c_fit * bound(400):.2f}}}")


# -- criterion 8: byte-identical simulation outputs ---------------------------

def test_criterion_8_determinism(tmp_path):
    conf = tmp_path / "grid.conf"
    conf.write_text("p = 1\ng = 12\nerrors = gaussian\nchanges = 2\n"
                    "M = 2\nseed = 3\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(conf), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["simulate", str(conf), "--out", str(out2),
                 "--workers", str(WORKERS)]) == 0
    same_csv = (out1 / "report.csv").read_bytes() == \
        (out2 / "report.csv").read_bytes()
    same_json = (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    _report(8, same_csv and same_json,
            "repeated simulate runs with one seed are byte-identical",
            f"csv {same_csv}, json {same_json}")


# -- criterion 9: fusion path monotonicity ------------------------------------

def test_criterion_9_fusion_path_monotone():
    spec = ScenarioSpec(p=1, g=50, error_dist="gaussian", changes=5,
                        seed=0, M=1)
    design, _, _ = generate_instance(spec, np.random.default_rng((0, 0)))
    lams = np.logspace(-2.5, 0.7, 10)
    ok = True
    details = []
    for loss in ("ls", "quantile"):
        counts = []
        for lam in lams:
            result = fit(design, ProblemSpec(loss=loss, tau=0.5, q=2,
                                             lam=float(lam)),
                         MC_SOLVER_CONFIG)
            counts.append(len(result.detected_set))
        ok = ok and all(a >= b for a, b in zip(counts, counts[1:]))
        details.append(f"{loss}: {counts}")
    _report(9, ok,
            "detected-set size is non-increasing along the tuning ladder "
            "(seed-0 instance, g=50, q=2, both losses)",
            "; ".join(details))
