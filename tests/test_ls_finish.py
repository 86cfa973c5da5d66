"""The certified exact finish of separable LS fits (p = 1 or q = 1)."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       objective)
from groupfuse import solver
from groupfuse.simulation import (MC_SOLVER_CONFIG, generate_instance,
                                  load_scenario_grid)
from groupfuse.solver import SolverConfig, default_schedules, fit
from helpers import brute_force_fit, random_tiny_instance


def _halve_prox_threshold(monkeypatch):
    # the benchmark's fault injection: the difference block is
    # soft-thresholded at half its threshold, so ADMM solves the problem
    # with half the penalty
    clip_bounds = solver._clip_bounds
    monkeypatch.setattr(
        solver, "_clip_bounds",
        lambda alpha, tau, kappa_rho, n_res, p:
            clip_bounds(alpha, tau, kappa_rho / 2.0, n_res, p))


def _true_gap(design, spec, res):
    """(objective - brute-force optimum) / max(1, objective), from above."""
    obj = objective(design, spec, res.beta)
    oracle = objective(design, spec, brute_force_fit(design, spec))
    return (obj - oracle) / max(1.0, obj)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("adaptive", [False, True])
def test_duality_gap_bounds_the_true_gap(q, adaptive):
    rng = np.random.default_rng(70 + 2 * q + adaptive)
    for _ in range(12):
        design, spec = random_tiny_instance(rng, "ls", 0.5, q, adaptive)
        res = fit(design, spec)
        if design.p > 1 and q > 1:
            assert res.duality_gap is None
            continue
        assert res.converged and res.duality_gap <= SolverConfig().tol_rel
        # the brute-force optimum lies above the true one, so this is a
        # lower bound on the true gap, and the certificate must exceed it
        assert _true_gap(design, spec, res) <= res.duality_gap + 1e-12


def _desk_ls_fits(cell, m):
    conf = Path(__file__).resolve().parent.parent / "scripts/desk_grid.conf"
    spec = load_scenario_grid(conf)[cell]
    design = generate_instance(spec, np.random.default_rng((spec.seed, m)))[0]
    n = design.n
    fused = ProblemSpec(loss="ls", q=spec.q,
                        lam=default_schedules(n, "fused")[0])
    pilot = fit(design, fused, MC_SOLVER_CONFIG)
    adaptive = ProblemSpec(loss="ls", q=spec.q,
                           lam=default_schedules(n, "adaptive")[0],
                           weight_mode="adaptive", gamma=spec.gamma,
                           pilot=pilot.beta)
    refit = fit(design, adaptive,
                replace(MC_SOLVER_CONFIG, warm_start=pilot.beta))
    return design, ((fused, pilot), (adaptive, refit))


@pytest.mark.parametrize("cell", [0, 3, 4, 7])
def test_returned_point_meets_the_optimality_conditions(cell):
    # stationarity 2 X'(y - X b) = D's with |s_j| <= kappa_j on fused pairs
    # and s_j = kappa_j sign((D b)_j) on the others; D has full row rank,
    # so s is the negative cumulative block sum of the left side
    design, fits = _desk_ls_fits(cell, 0)
    n, g = design.n, design.g
    for spec, res in fits:
        assert res.converged
        assert res.duality_gap <= MC_SOLVER_CONFIG.tol_rel
        b = res.beta.flat
        kappa = n * spec.lam * spec.pair_weights(n, g)
        grad = 2.0 * design.X.T @ (design.y - design.X @ b)
        s = -np.cumsum(grad)[:-1]
        scale = max(float(kappa.max()), float(np.abs(grad).max()))
        diffs = np.diff(b)
        fused = diffs == 0.0
        assert abs(grad.sum()) <= 1e-9 * scale
        assert np.all(np.abs(s[fused]) <= kappa[fused] + 1e-9 * scale)
        np.testing.assert_allclose(
            s[~fused], kappa[~fused] * np.sign(diffs[~fused]),
            rtol=0.0, atol=1e-9 * scale)
        # the detected set is read off the returned point's own differences
        assert res.detected_set == tuple(int(j) + 2
                                         for j in np.flatnonzero(~fused))


def test_halved_prox_threshold_reports_a_gap_above_tol_rel(monkeypatch):
    # desk cell 0 (g = 20, Gaussian, 2 changes), m = 0: ADMM converges to
    # the half-penalty problem, whose pattern the polish cannot certify
    _, exact = _desk_ls_fits(0, 0)
    _halve_prox_threshold(monkeypatch)
    design, wrong = _desk_ls_fits(0, 0)
    for (spec, res), (_, ref) in zip(wrong, exact):
        assert res.duality_gap > MC_SOLVER_CONFIG.tol_rel
        # the residual rule stopped it, but it is not certified
        assert res.converged is False
        # the certified reference lies within 1e-12 of the optimum, and
        # the reported gap still bounds the wrong fit's distance from it
        obj = objective(design, spec, res.beta)
        assert ref.duality_gap <= 1e-12
        true_gap = (obj - ref.objective) / max(1.0, obj)
        assert 1e-3 < true_gap <= res.duality_gap + 1e-12
    fused, _ = wrong[0]
    res = fit(design, fused)
    assert res.duality_gap > SolverConfig().tol_rel
    assert res.converged is False


def test_residual_stop_without_certificate_is_not_converged():
    # full grid, p = 1, g = 100, Gaussian, 10 changes, m = 4: the fused LS
    # fit meets the residual rule at a certified gap above tol_rel
    conf = Path(__file__).resolve().parent.parent / "scripts/full_grid.conf"
    spec = next(c for c in load_scenario_grid(conf)
                if (c.p, c.g, c.error_dist, c.changes)
                == (1, 100, "gaussian", 10))
    design = generate_instance(spec, np.random.default_rng((spec.seed, 4)))[0]
    fused = ProblemSpec(loss="ls", q=spec.q,
                        lam=default_schedules(design.n, "fused")[0])
    res = fit(design, fused, MC_SOLVER_CONFIG)
    assert res.iterations == 108
    assert res.duality_gap == pytest.approx(5.5e-4, rel=0.01)
    assert res.converged is False


@pytest.mark.parametrize("n, g, p, q", [(20, 5, 1, 2), (20, 4, 2, 1),
                                        (3, 4, 1, 1)])
def test_unpenalized_fit_is_certified(n, g, p, q):
    # at lambda = 0 every pair weight is 0, so the dual point must make
    # every s_j vanish, not scale a to 0 (the last case has r > n)
    rng = np.random.default_rng(90 + g + p)
    design = GroupedDesign(X=rng.standard_normal((n, g * p)),
                           y=rng.standard_normal(n), g=g, p=p)
    res = fit(design, ProblemSpec(loss="ls", q=q, lam=0.0))
    assert res.converged
    assert res.duality_gap <= SolverConfig().tol_rel


@pytest.mark.parametrize("g, p, q", [(1, 1, 1), (3, 1, 2), (2, 2, 1),
                                     (5, 1, 1)])
def test_zero_design_is_certified(g, p, q):
    # the coefficients only enter the penalty: the reduced system is
    # singular, so the gap comes from the incumbent itself
    design = GroupedDesign(X=np.zeros((6, g * p)), y=np.arange(6.0), g=g,
                           p=p)
    res = fit(design, ProblemSpec(loss="ls", q=q, lam=0.2))
    assert res.converged
    assert res.duality_gap == pytest.approx(0.0, abs=1e-12)
    assert res.objective == pytest.approx(55.0)  # y'y


def test_polish_solves_the_reduced_problem_exactly():
    # pattern of the optimum known: a difference mirror with its zeros and
    # signs gives the optimum in one solve, and the dual closes the gap
    rng = np.random.default_rng(80)
    g, p = 6, 2
    X = rng.standard_normal((40, g * p))
    y = X @ np.repeat(rng.standard_normal((3, p)), 2, axis=0).ravel() \
        + 0.1 * rng.standard_normal(40)
    design = GroupedDesign(X=X, y=y, g=g, p=p)
    spec = ProblemSpec(loss="ls", q=1, lam=0.3)
    exact = fit(design, spec, SolverConfig(tol_rel=1e-10, tol_abs=1e-12))
    kappa = 40 * 0.3 * np.ones(g - 1)
    polish, dual = solver._ls_finish(design, kappa, 2.0 * X.T @ X,
                                     2.0 * X.T @ y)
    zd = solver.DiffOperator(g, p).apply(exact.beta.flat)
    b = polish(zd)
    np.testing.assert_allclose(b, exact.beta.flat, rtol=0.0, atol=1e-12)
    obj = objective(design, spec, GroupedCoefficients.from_flat(b, g, p))
    lower = dual(y - X @ b)
    assert lower <= obj
    assert (obj - lower) / obj <= 1e-12
