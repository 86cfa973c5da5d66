import numpy as np
import pytest
import scipy.linalg

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       objective)
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
def test_warm_start_from_solution_is_instant(spec):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    design = GroupedDesign(X=X, y=y, g=4, p=1)
    first = fit(design, spec)
    assert first.converged
    again = fit(design, spec, SolverConfig(warm_start=first.beta))
    assert again.converged
    assert again.iterations <= 2
    assert again.objective <= first.objective + 1e-8


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


def test_warm_start_plain_coefficients_accepted():
    design = two_group_design()
    spec = ProblemSpec(loss="ls", q=1, lam=0.5)
    start = GroupedCoefficients.from_flat([0.4, 1.6], 2, 1)
    result = fit(design, spec, SolverConfig(warm_start=start))
    np.testing.assert_allclose(result.beta.flat, [0.5, 1.5], atol=1e-6)


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
    bad = lambda *args, **kwargs: np.full(2, np.nan)
    monkeypatch.setattr(scipy.linalg, "cho_solve", bad)
    with pytest.raises(SolverError, match="iteration 1"):
        fit(two_group_design(), ProblemSpec(loss="ls", q=1, lam=0.5))


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
