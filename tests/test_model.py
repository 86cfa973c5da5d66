import numpy as np
import pytest

from groupfuse import (DimensionMismatchError, FitResult, GroupedCoefficients,
                       GroupedDesign, ProblemSpec, objective)
from groupfuse.model import loss_value


def zero_loss_design(g, p):
    # one observation, all-zero covariates, zero response: the loss term
    # vanishes so the objective reduces to the penalty
    return GroupedDesign(X=np.zeros((1, g * p)), y=np.zeros(1), g=g, p=p)


def test_objective_zero_at_exact_ls_fit():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 4))
    beta = GroupedCoefficients.from_flat(rng.standard_normal(4), g=2, p=2)
    design = GroupedDesign(X=X, y=X @ beta.flat, g=2, p=2)
    assert objective(design, ProblemSpec(loss="ls", lam=0.0), beta) == \
        pytest.approx(0.0, abs=1e-20)


def test_objective_median_check_loss():
    # residuals (-1, 0, 2) at tau = 0.5 sum to 1.5
    design = GroupedDesign(X=np.ones((3, 1)), y=np.array([0.0, 1.0, 3.0]),
                           g=1, p=1)
    beta = GroupedCoefficients.from_flat([1.0], g=1, p=1)
    spec = ProblemSpec(loss="quantile", tau=0.5, lam=0.0)
    assert objective(design, spec, beta) == pytest.approx(1.5)


def test_objective_penalty_q1():
    design = zero_loss_design(3, 1)
    beta = GroupedCoefficients((np.array([1.0]), np.array([3.0]),
                                np.array([3.0])))
    spec = ProblemSpec(loss="ls", q=1, lam=1.0)
    assert objective(design, spec, beta) == pytest.approx(2.0)


def test_objective_penalty_q2_block():
    design = zero_loss_design(2, 2)
    beta = GroupedCoefficients((np.zeros(2), np.array([3.0, 4.0])))
    spec = ProblemSpec(loss="ls", q=2, lam=1.0)
    assert objective(design, spec, beta) == pytest.approx(5.0)


@pytest.mark.parametrize("loss, tau", [("ls", 0.5), ("quantile", 0.3)])
@pytest.mark.parametrize("q", [1, 2])
def test_objective_convexity_probes(loss, tau, q):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((8, 6))
    y = rng.standard_normal(8)
    design = GroupedDesign(X=X, y=y, g=3, p=2)
    spec = ProblemSpec(loss=loss, tau=tau, q=q, lam=0.2)
    for _ in range(250):
        b1 = rng.uniform(-3, 3, 6)
        b2 = rng.uniform(-3, 3, 6)
        t = rng.uniform()
        mix = GroupedCoefficients.from_flat(t * b1 + (1 - t) * b2, 3, 2)
        o_mix = objective(design, spec, mix)
        o1 = objective(design, spec, GroupedCoefficients.from_flat(b1, 3, 2))
        o2 = objective(design, spec, GroupedCoefficients.from_flat(b2, 3, 2))
        assert o_mix <= t * o1 + (1 - t) * o2 + 1e-9


@pytest.mark.parametrize("loss", ["ls", "quantile"])
def test_objective_lambda_zero_is_bare_loss(loss):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    design = GroupedDesign(X=X, y=y, g=3, p=1)
    beta = GroupedCoefficients.from_flat(rng.standard_normal(3), 3, 1)
    spec = ProblemSpec(loss=loss, tau=0.25, lam=0.0)
    assert objective(design, spec, beta) == pytest.approx(
        loss_value(y - X @ beta.flat, spec))


@pytest.mark.parametrize("lam", [0.0, 0.7, 123.0])
def test_objective_equal_blocks_is_bare_loss(lam):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 4))
    y = rng.standard_normal(5)
    design = GroupedDesign(X=X, y=y, g=2, p=2)
    block = rng.standard_normal(2)
    beta = GroupedCoefficients((block, block))
    spec = ProblemSpec(loss="ls", q=2, lam=lam)
    assert objective(design, spec, beta) == pytest.approx(
        loss_value(y - X @ beta.flat, spec))


def test_objective_dimension_error_names_block():
    design = GroupedDesign(X=np.eye(4), y=np.zeros(4), g=2, p=2)
    bad = GroupedCoefficients((np.zeros(2), np.zeros(2), np.zeros(2)))
    with pytest.raises(DimensionMismatchError, match="blocks"):
        objective(design, ProblemSpec(loss="ls", lam=0.0), bad)
    bad_p = GroupedCoefficients.from_flat(np.zeros(2), g=2, p=1)
    with pytest.raises(DimensionMismatchError, match="block 0"):
        objective(design, ProblemSpec(loss="ls", lam=0.0), bad_p)
    # adaptive weights must count exactly g - 1 pairs
    pilot = GroupedCoefficients.from_flat(np.zeros(6), g=3, p=2)
    spec = ProblemSpec(loss="ls", lam=1.0, weight_mode="adaptive",
                       pilot=pilot)
    with pytest.raises(DimensionMismatchError, match="pilot"):
        objective(design, spec, GroupedCoefficients.from_flat(
            np.zeros(4), g=2, p=2))


def test_grouped_design_validation():
    with pytest.raises(ValueError, match="non-finite"):
        GroupedDesign(X=np.array([[np.inf]]), y=np.zeros(1), g=1, p=1)
    with pytest.raises(ValueError, match="missing"):
        GroupedDesign(X=np.ones((1, 1)), y=np.array([np.nan]), g=1, p=1)
    with pytest.raises(DimensionMismatchError):
        GroupedDesign(X=np.ones((2, 3)), y=np.zeros(2), g=2, p=2)


def test_grouped_design_allows_overparameterized():
    # g*p > n is deliberately legal; the solver flags it downstream
    design = GroupedDesign(X=np.ones((2, 6)), y=np.zeros(2), g=3, p=2)
    assert design.r == 6 and design.n == 2


def test_grouped_coefficients_round_trip_and_immutability():
    beta = GroupedCoefficients.from_flat([1.0, 2.0, 3.0, 4.0], g=2, p=2)
    assert beta.g == 2 and beta.p == 2
    np.testing.assert_array_equal(beta.flat, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(beta.successive_differences(),
                                  [[2.0, 2.0]])
    with pytest.raises(ValueError):
        beta.blocks[0][0] = 9.0


def test_grouped_coefficients_validation():
    with pytest.raises(DimensionMismatchError):
        GroupedCoefficients((np.zeros(2), np.zeros(3)))
    with pytest.raises(ValueError, match="non-finite"):
        GroupedCoefficients((np.array([np.nan]),))
    with pytest.raises(DimensionMismatchError):
        GroupedCoefficients.from_flat(np.zeros(5), g=2, p=2)


@pytest.mark.parametrize("g, p", [(1, 1), (1, 3), (4, 1), (5, 2), (100, 3)])
def test_from_flat_equals_the_blockwise_constructor(g, p):
    flat = np.random.default_rng(g * 10 + p).standard_normal(g * p)
    got = GroupedCoefficients.from_flat(flat, g, p)
    ref = GroupedCoefficients(tuple(flat[j * p:(j + 1) * p]
                                    for j in range(g)))
    assert (got.g, got.p) == (ref.g, ref.p)
    for a, b in zip(got.blocks, ref.blocks):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    # the blocks own no view of the caller's vector
    flat[:] = 0.0
    assert got.flat.tobytes() == ref.flat.tobytes()
    for j in (0, g - 1):
        bad = flat.copy()
        bad[j * p + p - 1] = np.nan
        with pytest.raises(ValueError,
                           match=f"^block {j} contains non-finite entries$"):
            GroupedCoefficients.from_flat(bad, g, p)
    with pytest.raises(ValueError, match="at least one"):
        GroupedCoefficients.from_flat([], 0, p)


def test_problem_spec_validation():
    with pytest.raises(ValueError, match="tau"):
        ProblemSpec(loss="quantile", tau=1.2)
    with pytest.raises(ValueError, match="lam"):
        ProblemSpec(loss="ls", lam=-0.5)
    with pytest.raises(ValueError, match="pilot"):
        ProblemSpec(loss="ls", lam=0.1, weight_mode="adaptive")
    with pytest.raises(ValueError, match="gamma"):
        ProblemSpec(loss="ls", lam=0.1, weight_mode="adaptive", gamma=0.0,
                    pilot=GroupedCoefficients.from_flat([0.0], 1, 1))
    with pytest.raises(ValueError, match="q"):
        ProblemSpec(loss="ls", q=3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            ProblemSpec(loss="ls", lam=bad)
        with pytest.raises(ValueError, match="gamma"):
            ProblemSpec(loss="ls", lam=0.1, weight_mode="adaptive", gamma=bad,
                        pilot=GroupedCoefficients.from_flat([0.0], 1, 1))


def test_fit_result_rejects_labels_outside_range():
    beta = GroupedCoefficients.from_flat(np.zeros(3), g=3, p=1)
    with pytest.raises(ValueError, match="pair label"):
        FitResult(beta=beta, detected_set=(4,), objective_trace=(1.0,),
                  converged=True, iterations=1, primal_residual=0.0,
                  dual_residual=0.0)
