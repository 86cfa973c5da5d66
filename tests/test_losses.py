import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupfuse import GroupedCoefficients, GroupedDesign
from groupfuse.losses import check_value, prox_check
from helpers import (central_differences, knight_identity_gap,
                     knight_integral_quad, ls_residual_gradient, ternary_min)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False)
taus = st.floats(0.01, 0.99)


@pytest.mark.parametrize("u, tau, expected", [
    (2.0, 0.3, 0.6),
    (-2.0, 0.3, 1.4),
    (0.0, 0.5, 0.0),
])
def test_check_value_examples(u, tau, expected):
    assert check_value(u, tau) == pytest.approx(expected, abs=1e-15)


def test_check_value_vectorized():
    u = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(check_value(u, 0.5), [0.5, 0.0, 1.0])


@given(finite_floats, taus)
def test_check_value_equivalent_form(u, tau):
    # tau * u+ + (1 - tau) * u-
    expected = tau * max(u, 0.0) + (1.0 - tau) * max(-u, 0.0)
    assert check_value(u, tau) == pytest.approx(expected, abs=1e-12)


away_from_underflow = st.one_of(
    st.just(0.0), st.floats(1e-6, 50.0), st.floats(-50.0, -1e-6))


@given(away_from_underflow, taus)
def test_check_value_nonnegative_zero_iff_zero(u, tau):
    v = check_value(u, tau)
    assert v >= 0.0
    assert (v == 0.0) == (u == 0.0)


def test_check_value_rejects_bad_tau():
    for tau in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            check_value(1.0, tau)


@pytest.mark.parametrize("x, y, tau", [
    (1.0, 0.5, 0.5),
    (-0.3, 2.0, 0.25),
])
def test_knight_identity_examples(x, y, tau):
    assert knight_identity_gap(x, y, tau) <= 1e-12


def test_knight_identity_random_sweep():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 5.0, 5000)
    y = rng.normal(0.0, 5.0, 5000)
    tau = rng.uniform(0.01, 0.99, 5000)
    assert float(np.max(knight_identity_gap(x, y, tau))) <= 1e-12


def test_knight_integral_against_quadrature():
    # the closed-form case analysis inside the identity, cross-checked
    # against adaptive numeric quadrature of the indicator difference
    rng = np.random.default_rng(11)
    lhs_minus_linear = lambda x, y, tau: (
        check_value(x - y, tau) - check_value(x, tau) - y * ((x < 0) - tau))
    for _ in range(200):
        x, y = rng.normal(0.0, 3.0, 2)
        tau = rng.uniform(0.05, 0.95)
        assert lhs_minus_linear(x, y, tau) == pytest.approx(
            knight_integral_quad(x, y), abs=1e-9)


@pytest.mark.parametrize("v, alpha, tau, expected", [
    (2.0, 1.0, 0.5, 1.5),
    (-2.0, 1.0, 0.5, -1.5),
    (0.3, 1.0, 0.5, 0.0),
])
def test_prox_check_examples(v, alpha, tau, expected):
    # frozen values confirmed by the 1-D ternary-search oracle below
    assert prox_check(v, alpha, tau) == pytest.approx(expected, abs=1e-12)
    objective = lambda z: check_value(z, tau) + (z - v) ** 2 / (2.0 * alpha)
    oracle = ternary_min(objective, -10.0, 10.0)
    assert prox_check(v, alpha, tau) == pytest.approx(oracle, abs=1e-8)


def test_prox_check_dead_zone_boundaries():
    # both boundaries map to zero; just outside, the shift formulas apply
    assert prox_check(0.3 * 1.0, 1.0, 0.3) == 0.0
    assert prox_check(-0.7, 1.0, 0.3) == 0.0
    assert prox_check(0.3 + 1e-9, 1.0, 0.3) == pytest.approx(1e-9, abs=1e-15)


@given(finite_floats, finite_floats,
       st.floats(0.05, 10.0), taus)
@settings(max_examples=200)
def test_prox_check_firmly_nonexpansive(v1, v2, alpha, tau):
    p1 = prox_check(v1, alpha, tau)
    p2 = prox_check(v2, alpha, tau)
    assert abs(p1 - p2) <= abs(v1 - v2) + 1e-12
    # monotone in v
    if v1 <= v2:
        assert p1 <= p2 + 1e-12


def test_prox_check_requires_positive_alpha():
    with pytest.raises(ValueError):
        prox_check(1.0, 0.0, 0.5)


def test_ls_gradient_zero_at_exact_fit():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 4))
    beta = GroupedCoefficients.from_flat(rng.standard_normal(4), g=2, p=2)
    design = GroupedDesign(X=X, y=X @ beta.flat, g=2, p=2)
    np.testing.assert_allclose(ls_residual_gradient(design, beta),
                               np.zeros(4), atol=1e-12)


def test_ls_gradient_single_point():
    design = GroupedDesign(X=np.array([[2.0]]), y=np.array([3.0]), g=1, p=1)
    beta = GroupedCoefficients.from_flat(np.array([0.0]), g=1, p=1)
    assert ls_residual_gradient(design, beta)[0] == pytest.approx(-12.0)


def test_ls_gradient_matches_central_differences():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    design = GroupedDesign(X=X, y=y, g=3, p=1)
    point = rng.standard_normal(3)
    beta = GroupedCoefficients.from_flat(point, g=3, p=1)

    loss = lambda b: float(np.sum((y - X @ b) ** 2))
    fd = central_differences(loss, point)
    grad = ls_residual_gradient(design, beta)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_ls_gradient_dimension_mismatch():
    design = GroupedDesign(X=np.eye(2), y=np.zeros(2), g=2, p=1)
    beta = GroupedCoefficients.from_flat(np.zeros(3), g=3, p=1)
    with pytest.raises(ValueError, match="block"):
        ls_residual_gradient(design, beta)
