from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       objective)
from groupfuse import solver
from groupfuse.simulation import (MC_SOLVER_CONFIG, generate_instance,
                                  load_scenario_grid)
from groupfuse.solver import (DiffOperator, SolverConfig, SolverError,
                              default_schedules, fit)
from helpers import (GridSpec, brute_force_fit, dense_diff_matrix,
                     random_tiny_instance)


@pytest.mark.parametrize("g, p", [(1, 1), (1, 3), (2, 2), (5, 1), (4, 3)])
def test_diff_operator_matches_dense(g, p):
    rng = np.random.default_rng(g * 10 + p)
    op = DiffOperator(g, p)
    dense = dense_diff_matrix(g, p)
    assert dense.shape == ((g - 1) * p, g * p)
    for _ in range(5):
        v = rng.standard_normal(g * p)
        d = rng.standard_normal((g - 1) * p)
        np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-12)
        np.testing.assert_allclose(op.adjoint(d), dense.T @ d, atol=1e-12)
    # the closed-form gram is exact: every entry is a small integer
    np.testing.assert_array_equal(op.gram(), dense.T @ dense)


def test_fit_sample_mean():
    design = GroupedDesign(X=np.ones((2, 1)), y=np.array([1.0, 3.0]),
                           g=1, p=1)
    result = fit(design, ProblemSpec(loss="ls", lam=0.0))
    assert result.converged
    assert result.beta.flat[0] == pytest.approx(2.0, abs=1e-6)


def test_fit_unpenalized_ls_matches_lstsq():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    design = GroupedDesign(X=X, y=y, g=2, p=2)
    result = fit(design, ProblemSpec(loss="ls", lam=0.0))
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(result.beta.flat, expected, atol=1e-6)


def two_group_design():
    return GroupedDesign(X=np.eye(2), y=np.array([0.0, 2.0]), g=2, p=1)


def test_fit_partial_fusion_example():
    # subgradient stationarity: 2 b1 = s, 2 (b2 - 2) = -s, s = 1
    result = fit(two_group_design(), ProblemSpec(loss="ls", q=1, lam=0.5))
    np.testing.assert_allclose(result.beta.flat, [0.5, 1.5], atol=1e-6)
    assert result.detected_set == (2,)


def test_fit_full_fusion_example():
    # penalty dominates: both blocks at the argmin of b^2 + (b-2)^2
    result = fit(two_group_design(), ProblemSpec(loss="ls", q=1, lam=2.0))
    np.testing.assert_allclose(result.beta.flat, [1.0, 1.0], atol=1e-6)
    assert result.detected_set == ()


def test_fit_lad_is_sample_median():
    design = GroupedDesign(X=np.ones((3, 1)), y=np.array([1.0, 2.0, 9.0]),
                           g=1, p=1)
    result = fit(design, ProblemSpec(loss="quantile", tau=0.5, lam=0.0))
    assert result.beta.flat[0] == pytest.approx(2.0, abs=1e-5)


def test_fit_never_loses_to_trivial_candidates():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    design = GroupedDesign(X=X, y=y, g=5, p=1)
    for spec in (ProblemSpec(loss="ls", q=2, lam=0.3),
                 ProblemSpec(loss="quantile", tau=0.3, q=1, lam=0.3)):
        result = fit(design, spec)
        zero = GroupedCoefficients.from_flat(np.zeros(5), 5, 1)
        loss_only = fit(design, ProblemSpec(loss=spec.loss, tau=spec.tau,
                                            q=spec.q, lam=0.0))
        assert result.objective <= objective(design, spec, zero) + 1e-8
        assert result.objective <= objective(design, spec,
                                             loss_only.beta) + 1e-8


def test_objective_trace_monotone_and_ends_at_minimum():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    design = GroupedDesign(X=X, y=y, g=8, p=1)
    result = fit(design, ProblemSpec(loss="quantile", tau=0.5, q=2, lam=0.1))
    trace = np.asarray(result.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    assert trace[-1] <= trace.min() + 1e-8
    # the recorded final merit is the true objective of the returned iterate
    assert result.objective == pytest.approx(
        objective(design, ProblemSpec(loss="quantile", tau=0.5, q=2, lam=0.1),
                  result.beta), abs=1e-9)


@pytest.mark.parametrize("spec", [
    ProblemSpec(loss="ls", q=1, lam=0.5),
    ProblemSpec(loss="ls", q=2, lam=0.2),
    ProblemSpec(loss="quantile", tau=0.5, q=2, lam=0.2),
])
def test_warm_start_from_solution_stays_at_the_optimum(spec):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    design = GroupedDesign(X=X, y=y, g=4, p=1)
    first = fit(design, spec)
    assert first.converged
    again = fit(design, spec, SolverConfig(warm_start=first.beta))
    assert again.converged
    if first.route == "ipm":
        # the LP route starts cold and solves to the same point
        assert again.beta.flat.tobytes() == first.beta.flat.tobytes()
        assert again.detected_set == first.detected_set
        return
    # ADMM restarts at the optimum's coefficients, with a zero dual
    assert again.objective <= first.objective + 1e-8


def _result_fields(res):
    return (res.beta.flat.tobytes(), res.objective_trace, res.converged,
            res.iterations, res.primal_residual, res.dual_residual,
            res.detected_set, res.overparameterized, res.route,
            res.duality_gap)


@pytest.mark.parametrize("pilot_spec, spec", [
    (ProblemSpec(loss="ls", q=2, lam=0.2), ProblemSpec(loss="ls", q=2)),
    (ProblemSpec(loss="quantile", tau=0.3, q=2, lam=0.2),
     ProblemSpec(loss="quantile", tau=0.3, q=2)),
    # a quantile fit with q = 1 takes the LP route; its vector feeds ADMM
    (ProblemSpec(loss="quantile", tau=0.3, q=1, lam=0.2),
     ProblemSpec(loss="quantile", tau=0.3, q=2)),
], ids=["admm_ls", "admm_quantile", "lp_start"])
def test_fit_depends_only_on_the_values_of_its_warm_start(pilot_spec, spec):
    # the adaptive refit warm-started from its pilot's returned coefficients
    # and from a copy rebuilt off their values gives the same bits
    rng = np.random.default_rng(22)
    g, p = 4, 2
    design = GroupedDesign(X=rng.standard_normal((24, g * p)),
                           y=rng.standard_normal(24), g=g, p=p)
    pilot = fit(design, pilot_spec)
    adaptive = replace(spec, lam=0.5, weight_mode="adaptive", gamma=1.0,
                       pilot=pilot.beta)
    copy = GroupedCoefficients.from_flat(pilot.beta.flat.copy(), g, p)
    refit = fit(design, adaptive, SolverConfig(warm_start=pilot.beta))
    again = fit(design, adaptive, SolverConfig(warm_start=copy))
    assert refit.route == "admm"
    assert _result_fields(again) == _result_fields(refit)


@pytest.mark.parametrize("q", [1, 2])
def test_warm_start_across_losses(q):
    # an LS state carries no residual mirror, a quantile state carries one
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    design = GroupedDesign(X=X, y=y, g=4, p=1)
    ls = ProblemSpec(loss="ls", q=q, lam=0.2)
    qr = ProblemSpec(loss="quantile", tau=0.5, q=q, lam=0.2)
    cold_ls, cold_qr = fit(design, ls), fit(design, qr)
    for spec, cold, donor in ((qr, cold_qr, cold_ls), (ls, cold_ls, cold_qr)):
        warm = fit(design, spec, SolverConfig(warm_start=donor.beta))
        assert warm.converged
        assert warm.objective == pytest.approx(cold.objective, abs=1e-5)


def test_restart_below_the_starts_gap_is_not_returned_at_once():
    # a warm start is a coefficient vector: at a tolerance tighter than
    # the start's certified gap the fit runs on (the LP route from a cold
    # start, ADMM from the start's coefficients) and ends no worse
    rng = np.random.default_rng(11)
    design = GroupedDesign(X=rng.standard_normal((20, 5)),
                           y=rng.standard_normal(20), g=5, p=1)
    for spec in (ProblemSpec(loss="quantile", q=1, lam=0.1),
                 ProblemSpec(loss="ls", q=1, lam=0.1)):
        first = fit(design, spec)
        assert first.converged and first.duality_gap > 0.0
        again = fit(design, spec, SolverConfig(
            warm_start=first.beta, tol_rel=first.duality_gap / 2))
        assert again.route == first.route
        assert again.iterations > 1
        assert again.objective <= first.objective + 1e-12


def test_single_group_adaptive_refit_restarts_from_its_pilot():
    # at g = 1 there are no pairs, so the adaptive refit is the pilot's own
    # problem; a q = 2, p > 1 quantile fit reports no certified gap, so the
    # refit is not returned at once but restarts from the pilot's
    # coefficients
    rng = np.random.default_rng(1)
    design = GroupedDesign(X=rng.standard_normal((10, 2)),
                           y=rng.standard_normal(10), g=1, p=2)
    pilot = fit(design, ProblemSpec(loss="quantile", tau=0.3, q=2, lam=0.1))
    assert pilot.converged and pilot.duality_gap is None
    adaptive = ProblemSpec(loss="quantile", tau=0.3, q=2, lam=0.5,
                           weight_mode="adaptive", gamma=1.0,
                           pilot=pilot.beta)
    refit = fit(design, adaptive, SolverConfig(warm_start=pilot.beta))
    assert refit.converged
    assert refit.iterations > 1
    assert refit.objective <= pilot.objective


def test_warm_start_plain_coefficients_accepted():
    design = two_group_design()
    spec = ProblemSpec(loss="ls", q=1, lam=0.5)
    start = GroupedCoefficients.from_flat([0.4, 1.6], 2, 1)
    result = fit(design, spec, SolverConfig(warm_start=start))
    np.testing.assert_allclose(result.beta.flat, [0.5, 1.5], atol=1e-6)


def _desk_instance(cell, m):
    conf = Path(__file__).resolve().parent.parent / "scripts/desk_grid.conf"
    spec = load_scenario_grid(conf)[cell]
    rng = np.random.default_rng((spec.seed, m))
    return spec, generate_instance(spec, rng)[0]


def test_plain_warm_start_reports_the_fits_detected_set():
    # desk cell 0 (g = 20, Gaussian, 2 changes), m = 0: a restart from a
    # copy of the fused LS fit's coefficients must not be returned with the
    # detected set of their never exactly fused D b (19 pairs against 13)
    spec, design = _desk_instance(0, 0)
    fused = ProblemSpec(loss="ls", q=spec.q,
                        lam=default_schedules(design.n, "fused")[0])
    first = fit(design, fused, MC_SOLVER_CONFIG)
    plain = GroupedCoefficients.from_flat(first.beta.flat.copy(),
                                          design.g, design.p)
    again = fit(design, fused, replace(MC_SOLVER_CONFIG, warm_start=plain))
    assert len(first.detected_set) == 13
    assert again.converged
    assert again.detected_set == first.detected_set
    assert again.objective == pytest.approx(first.objective, rel=1e-6)


def test_returned_start_keeps_its_fits_detected_set():
    # desk cell 2 (g = 20, Cauchy, 2 changes), m = 1: restarting the
    # adaptive quantile refit on its own problem solves it again from cold
    # and returns the same point with the refit's detected set (0 pairs,
    # not 19)
    spec, design = _desk_instance(2, 1)
    n = design.n
    pilot = fit(design, ProblemSpec(loss="quantile", tau=spec.tau, q=spec.q,
                                    lam=default_schedules(n, "fused")[0]),
                MC_SOLVER_CONFIG)
    adaptive = ProblemSpec(loss="quantile", tau=spec.tau, q=spec.q,
                           lam=default_schedules(n, "adaptive")[0],
                           weight_mode="adaptive", gamma=spec.gamma,
                           pilot=pilot.beta)
    refit = fit(design, adaptive,
                replace(MC_SOLVER_CONFIG, warm_start=pilot.beta))
    again = fit(design, adaptive,
                replace(MC_SOLVER_CONFIG, warm_start=refit.beta))
    np.testing.assert_array_equal(again.beta.flat, refit.beta.flat)
    assert again.detected_set == refit.detected_set == ()


@pytest.mark.parametrize("field", ["tol_abs", "tol_rel", "fusion_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_tolerances(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_warm_start_shape_mismatch():
    design = two_group_design()
    start = GroupedCoefficients.from_flat(np.zeros(3), 3, 1)
    with pytest.raises(ValueError, match="warm start"):
        fit(design, ProblemSpec(loss="ls", lam=0.1),
            SolverConfig(warm_start=start))


def test_pilot_shape_mismatch():
    design = two_group_design()
    pilot = GroupedCoefficients.from_flat(np.zeros(3), 3, 1)
    spec = ProblemSpec(loss="ls", lam=0.1, weight_mode="adaptive",
                       gamma=1.0, pilot=pilot)
    with pytest.raises(ValueError, match="pilot"):
        fit(design, spec)


def test_non_convergence_reports_flag_not_exception():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((30, 30))
    y = rng.standard_normal(30)
    design = GroupedDesign(X=X, y=y, g=30, p=1)
    result = fit(design, ProblemSpec(loss="quantile", tau=0.5, q=2, lam=0.05),
                 SolverConfig(max_iter=3))
    assert not result.converged
    assert result.iterations == 3


def test_nan_iterate_raises_named_iteration(monkeypatch):
    bad = lambda M: (lambda rhs: np.full(2, np.nan))
    monkeypatch.setattr(solver, "_factorize", bad)
    with pytest.raises(SolverError, match="iteration 1"):
        fit(two_group_design(), ProblemSpec(loss="ls", q=1, lam=0.5))


@pytest.mark.parametrize("loss", ["ls", "quantile"])
def test_inf_iterate_raises_named_iteration(monkeypatch, loss):
    bad = lambda M: (lambda rhs: np.full(2, np.inf))
    monkeypatch.setattr(solver, "_factorize", bad)
    with pytest.raises(SolverError, match="iteration 1"):
        fit(two_group_design(), ProblemSpec(loss=loss, q=1, lam=0.5))


_MC_TOLS = {"tol_abs": 1e-6, "tol_rel": 1e-4}


# One small ADMM fit per way a fit stops, with the iteration count,
# converged flag and both residuals that the same rule gave while the dual
# residual was still computed in every iteration (the quantile fits at
# p = 2, q = 2: LP-shaped ones take the interior-point route).  The stall
# fits stop on the step rule with the dual test failing; the max_iter = 7
# fits end on an iteration that is neither a balancing step nor a primal
# pass, the LS one at p = 2, q = 2, since a separable LS fit there is
# certified by its exact finish.
@pytest.mark.parametrize(
    "seed, loss, q, lam, cfg, iterations, converged, primal, dual", [
        (0, "ls", 1, 0.1, {}, 17, True,
         6.762593988962688e-07, 1.5617315851646333e-06),
        (1, "quantile", 2, 0.1, {}, 204, True,
         1.634581560154887e-06, 8.19118724810293e-07),
        (1, "ls", 2, 0.01, _MC_TOLS, 24, True,
         4.867700736144806e-06, 2.4724513026955555e-05),
        (5, "quantile", 2, 0.01, _MC_TOLS, 74, True,
         2.0280599363374357e-05, 4.897987171479434e-05),
        (1, "ls", 2, 0.1, {"max_iter": 7}, 7, False,
         0.007456211108224464, 0.00887223041349185),
        (1, "quantile", 2, 0.1, {"max_iter": 7}, 7, False,
         0.07417608776520598, 0.25823217956728195),
    ], ids=["residual-ls", "residual-quantile", "stall-ls", "stall-quantile",
            "max_iter-ls", "max_iter-quantile"])
def test_stop_residuals_pinned(seed, loss, q, lam, cfg, iterations,
                               converged, primal, dual):
    rng = np.random.default_rng(seed)
    g, p = (4, 1) if seed % 4 == 0 else (3, 2)
    X = rng.standard_normal((10, g * p))
    y = rng.standard_normal(10)
    spec = ProblemSpec(loss=loss, tau=0.3 if loss == "quantile" else 0.5,
                       q=q, lam=lam)
    res = fit(GroupedDesign(X=X, y=y, g=g, p=p), spec, SolverConfig(**cfg))
    assert (res.iterations, res.converged) == (iterations, converged)
    assert res.primal_residual == pytest.approx(primal, rel=1e-9)
    assert res.dual_residual == pytest.approx(dual, rel=1e-9)


def test_overparameterized_flagged():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((3, 4))
    y = rng.standard_normal(3)
    design = GroupedDesign(X=X, y=y, g=4, p=1)
    result = fit(design, ProblemSpec(loss="ls", q=2, lam=0.1))
    assert result.overparameterized
    assert np.all(np.isfinite(result.beta.flat))


def test_fit_handles_all_zero_design():
    # singular normal equations take the pseudo-inverse path
    design = GroupedDesign(X=np.zeros((2, 1)), y=np.array([1.0, 2.0]),
                           g=1, p=1)
    result = fit(design, ProblemSpec(loss="ls", lam=0.0))
    assert np.isfinite(result.objective)


def _ls_system(r):
    rng = np.random.default_rng(r)
    A = rng.standard_normal((r + 3, r))
    return A.T @ A + DiffOperator(r, 1).gram()


def _ill_conditioned_system(r=50, cond=1e5):
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    M = (Q * np.logspace(0.0, np.log10(cond), r)) @ Q.T
    return (M + M.T) / 2.0


@pytest.mark.parametrize("M", [_ls_system(1), _ls_system(20),
                               _ls_system(100), _ls_system(300),
                               _ill_conditioned_system()],
                         ids=["1", "20", "100", "300", "cond1e5"])
def test_factorize_solve_matches_cho_solve(M):
    rng = np.random.default_rng(M.shape[0])
    solve = solver._factorize(M)
    chol = scipy.linalg.cho_factor(M)
    for _ in range(3):
        rhs = rng.standard_normal(M.shape[0])
        kept = rhs.copy()
        x = solve(rhs)
        ref = scipy.linalg.cho_solve(chol, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # the right-hand side is left as it was
        assert rhs.tobytes() == kept.tobytes()


@pytest.mark.parametrize("M", [np.zeros((3, 3)), np.ones((2, 2))])
def test_factorize_singular_system_takes_pinv_path(M):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(M)
    rhs = np.arange(1.0, M.shape[0] + 1.0)
    x = solver._factorize(M)(rhs)
    assert x.tobytes() == (np.linalg.pinv(M) @ rhs).tobytes()


def test_brute_force_matches_lstsq_unpenalized():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    design = GroupedDesign(X=X, y=y, g=3, p=1)
    got = brute_force_fit(design, ProblemSpec(loss="ls", lam=0.0))
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(got.flat, expected, atol=1e-6)


def test_brute_force_confirms_partial_fusion_example():
    design = two_group_design()
    spec = ProblemSpec(loss="ls", q=1, lam=0.5)
    oracle = brute_force_fit(design, spec)
    fitted = fit(design, spec)
    gap = objective(design, spec, fitted.beta) - objective(design, spec,
                                                           oracle)
    assert abs(gap) <= 1e-6


def test_brute_force_guard():
    rng = np.random.default_rng(52)
    design = GroupedDesign(X=rng.standard_normal((5, 4)),
                           y=rng.standard_normal(5), g=4, p=1)
    with pytest.raises(ValueError, match="3"):
        brute_force_fit(design, ProblemSpec(loss="ls", lam=0.1))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points=2)


def test_fit_beats_oracle_on_random_quantile_instances():
    rng = np.random.default_rng(60)
    for _ in range(50):
        design, spec = random_tiny_instance(rng, "quantile", 0.5, 1,
                                            adaptive=False)
        fitted = fit(design, spec)
        oracle = brute_force_fit(design, spec)
        assert objective(design, spec, fitted.beta) <= \
            objective(design, spec, oracle) + 1e-6


@pytest.mark.parametrize("loss, tau", [("ls", 0.5), ("quantile", 0.5)])
@pytest.mark.parametrize("q", [1, 2])
def test_fit_agrees_with_oracle_two_sided(loss, tau, q):
    rng = np.random.default_rng(61)
    for _ in range(50):
        design, spec = random_tiny_instance(rng, loss, tau, q,
                                            adaptive=False)
        fitted = fit(design, spec)
        oracle = brute_force_fit(design, spec)
        gap = objective(design, spec, fitted.beta) - \
            objective(design, spec, oracle)
        assert abs(gap) <= 1e-5


def test_default_schedules_frozen_values():
    lam, b = default_schedules(400, "fused")
    assert lam == pytest.approx(0.006119367076702041, rel=1e-12)
    lam_a, _ = default_schedules(400, "adaptive")
    assert lam_a == pytest.approx(0.21967088174842778, rel=1e-12)
    _, b100 = default_schedules(100, "fused")
    assert b100 == pytest.approx(0.21459660262893474, rel=1e-12)


def test_default_schedules_errors():
    with pytest.raises(ValueError):
        default_schedules(1, "fused")
    with pytest.raises(ValueError):
        default_schedules(100, "something")
