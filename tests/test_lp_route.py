"""The interior-point route of quantile fits with p = 1 or q = 1 (an LP)."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       check_value, objective)
from groupfuse import solver
from groupfuse.detection import segments_from_detected
from groupfuse.simulation import (MC_SOLVER_CONFIG, generate_instance,
                                  load_scenario_grid)
from groupfuse.solver import (DiffOperator, SolverConfig, default_schedules,
                              fit)
from helpers import dense_diff_matrix, lp_optimum


def _instance(rng, n, g, p, tau, lam, adaptive):
    r = g * p
    X = rng.standard_normal((n, r))
    y = X @ rng.uniform(-2.0, 2.0, r) + rng.standard_cauchy(n)
    q = 1 if p > 1 else int(rng.integers(1, 3))
    spec = ProblemSpec(loss="quantile", tau=tau, q=q, lam=lam)
    if adaptive:
        # some pilot pairs exactly fused, so some weights reach sqrt(n)
        blocks = rng.standard_normal((g, p)) * (rng.random((g, 1)) < 0.6)
        pilot = GroupedCoefficients.from_flat(np.cumsum(blocks, axis=0), g, p)
        spec = replace(spec, weight_mode="adaptive", pilot=pilot)
    return GroupedDesign(X=X, y=y, g=g, p=p), spec


def _assert_certified_optimum(design, spec, res):
    assert res.route == "ipm"
    assert res.converged
    obj = objective(design, spec, res.beta)
    assert res.objective == pytest.approx(obj, rel=1e-12, abs=1e-12)
    best = lp_optimum(design, spec)
    scale = max(1.0, abs(best))
    assert (obj - best) / scale <= 1e-7
    # the reported gap bounds the true one, up to the LP solver's tolerance
    assert obj - best <= res.duality_gap * max(1.0, obj) + 1e-8 * scale


@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_lp_route_reaches_the_lp_optimum(p, tau):
    rng = np.random.default_rng(1000 * p + int(10 * tau))
    cases = []
    for lam in (0.0, 0.01, 0.1, 1.0):
        for adaptive in (False, True):
            g = int(rng.integers(2, 9))
            cases.append((int(rng.integers(g * p, 3 * g * p + 4)), g, lam,
                          adaptive))
    # lambda = 0 with r > n (interpolation, A of deficient rank), and g = 1
    g = int(rng.integers(3, 7))
    cases += [(g * p - 2, g, 0.0, False), (g * p // 2 + 1, g, 0.0, True),
              (int(rng.integers(p + 2, 12)), 1, 0.1, False)]
    for n, g, lam, adaptive in cases:
        design, spec = _instance(rng, n, g, p, tau, lam, adaptive)
        _assert_certified_optimum(design, spec, fit(design, spec))


@pytest.mark.parametrize("g", [1, 3])
def test_lp_route_on_an_all_zero_design(g):
    # the coefficients only enter the penalty, so every fused vector is
    # optimal; A is of deficient rank (constant blocks) and needs the ridge
    y = np.arange(6.0) - 2.0
    design = GroupedDesign(X=np.zeros((6, g)), y=y, g=g, p=1)
    spec = ProblemSpec(loss="quantile", tau=0.3, q=1, lam=0.2)
    res = fit(design, spec)
    assert res.route == "ipm" and res.converged
    assert res.objective == pytest.approx(
        float(np.sum(check_value(y, 0.3))), abs=1e-8)
    assert res.detected_set == ()


@pytest.mark.parametrize("p, q, loss, route", [
    (1, 1, "quantile", "ipm"), (1, 2, "quantile", "ipm"),
    (2, 1, "quantile", "ipm"), (2, 2, "quantile", "admm"),
    (1, 1, "ls", "admm"), (2, 2, "ls", "admm")])
def test_route_follows_the_problem_shape(p, q, loss, route):
    rng = np.random.default_rng(7)
    design = GroupedDesign(X=rng.standard_normal((15, 3 * p)),
                           y=rng.standard_normal(15), g=3, p=p)
    res = fit(design, ProblemSpec(loss=loss, q=q, lam=0.1))
    assert res.route == route
    # separable LS fits on ADMM report the gap of their certified finish
    assert (res.duality_gap is None) is (p > 1 and q > 1)
    if route == "ipm":
        assert 0.0 <= res.duality_gap <= SolverConfig().tol_rel
    elif res.duality_gap is not None:
        assert abs(res.duality_gap) <= SolverConfig().tol_rel


def test_lp_route_stops_at_max_iter_unconverged():
    rng = np.random.default_rng(9)
    design = GroupedDesign(X=rng.standard_normal((30, 10)),
                           y=rng.standard_normal(30), g=10, p=1)
    spec = ProblemSpec(loss="quantile", tau=0.5, q=1, lam=0.05)
    res = fit(design, spec, SolverConfig(max_iter=2))
    assert (res.iterations, res.converged) == (2, False)
    assert res.duality_gap > SolverConfig().tol_rel
    assert len(res.objective_trace) == 2
    assert res.objective_trace[1] <= res.objective_trace[0]


def _desk_fused_quantile(cell, m, cfg=MC_SOLVER_CONFIG):
    conf = Path(__file__).resolve().parent.parent / "scripts/desk_grid.conf"
    spec = load_scenario_grid(conf)[cell]
    design = generate_instance(spec, np.random.default_rng((spec.seed, m)))[0]
    fused = ProblemSpec(loss="quantile", tau=spec.tau, q=spec.q,
                        lam=default_schedules(design.n, "fused")[0])
    return spec, design, fused, fit(design, fused, cfg)


# Fused quantile fits of the desk grid in which the exact LP optimum has a
# small difference (|diff| in 2.9e-4 .. 2.9e-3) that ADMM at the Monte
# Carlo tolerances fused; ADMM at tol_rel = 1e-10 finds each of them too.
# At the default tolerance the LP route resolves every one of them; at the
# Monte Carlo tolerance two (6-0-49, 5-1-25) cost less than tol_rel to fuse
# and are reported fused (see the test after this one).
@pytest.mark.parametrize("cell, m, pair", [
    (0, 1, 4), (1, 0, 18), (4, 1, 97), (6, 0, 49),
    (5, 0, 20), (5, 1, 25), (6, 1, 40)])
def test_lp_route_detects_small_true_differences(cell, m, pair):
    *_, res = _desk_fused_quantile(cell, m, SolverConfig())
    assert res.route == "ipm" and res.converged
    assert pair in res.detected_set


@pytest.mark.parametrize("cell, m, pair", [(6, 0, 49), (5, 1, 25)])
def test_differences_below_tol_rel_are_reported_fused(cell, m, pair):
    # the detected set is the support of a point within tol_rel of the
    # optimum: the LP with every unreported pair fused (its runs' columns
    # summed) certifies it, while beta stays the exact optimum
    _, design, fused, res = _desk_fused_quantile(cell, m)
    exact = fit(design, fused)
    assert pair in exact.detected_set and pair not in res.detected_set
    assert set(res.detected_set) < set(exact.detected_set)
    best = lp_optimum(design, fused)
    assert (res.objective - best) / max(1.0, best) <= 1e-7
    runs = segments_from_detected(res.detected_set, design.g)
    merged = GroupedDesign(
        X=np.column_stack([design.X[:, s - 1:e].sum(axis=1) for s, e in runs]),
        y=design.y, g=len(runs), p=1)
    fused_best = lp_optimum(merged, fused)
    assert fused_best - best > 0.0
    assert (fused_best - best <= MC_SOLVER_CONFIG.tol_rel * max(1.0, best)
            + 1e-9 * max(1.0, best))


def test_best_levels_minimize_the_weighted_check_sum():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((40, 7))
    w = rng.uniform(0.0, 2.0, (40, 7)) * (rng.random((40, 7)) < 0.8)
    tau = rng.uniform(0.05, 0.95, (40, 7))
    v = solver._best_levels(t, w, tau)

    def f(rows, vals):
        u = t[rows] - vals[:, None]
        return (w[rows] * u * (tau[rows] - (u < 0))).sum(axis=1)
    rows = np.arange(40)
    # a minimum of a convex piecewise-linear sum sits at one of its kinks
    kinks = np.min([f(rows, t[:, i]) for i in range(7)], axis=0)
    np.testing.assert_allclose(f(rows, v), kinks, rtol=1e-12, atol=1e-12)


def test_stall_at_the_rounding_floor_ends_converged(monkeypatch):
    # desk cell 5 (g = 100, Gaussian, 5 changes), m = 0: with the gap target
    # out of reach the adaptive refit must stop on the stall rule, long
    # before max_iter, and its certified gap still meets tol_rel
    spec, design, _, pilot = _desk_fused_quantile(5, 0)
    adaptive = ProblemSpec(loss="quantile", tau=spec.tau, q=spec.q,
                           lam=default_schedules(design.n, "adaptive")[0],
                           weight_mode="adaptive", gamma=spec.gamma,
                           pilot=pilot.beta)
    monkeypatch.setattr(solver, "IPM_GAP_REL", 0.0)
    res = fit(design, adaptive, SolverConfig(warm_start=pilot.beta))
    assert res.converged
    assert res.iterations < 60
    assert res.duality_gap <= SolverConfig().tol_rel
    trace = np.asarray(res.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)


@pytest.mark.parametrize("g, p", [(1, 2), (2, 1), (5, 1), (4, 3)])
def test_weighted_gram_matches_dense(g, p):
    op = DiffOperator(g, p)
    w = np.random.default_rng(g + p).uniform(0.0, 3.0, op.rows)
    dense = dense_diff_matrix(g, p)
    np.testing.assert_allclose(op.gram(w), dense.T @ (w[:, None] * dense),
                               rtol=1e-15, atol=0.0)
