import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       objective)
from groupfuse.penalties import adaptive_weights, prox_block_norms
from helpers import ternary_min


def coeffs(*blocks):
    return GroupedCoefficients(tuple(np.atleast_1d(np.asarray(b, float))
                                     for b in blocks))


def penalty(beta, q, lam, n=1, pilot=None):
    """The penalty as ``objective`` computes it, read off a design whose
    loss vanishes: n all-zero rows and a zero response.  A pilot makes the
    weights adaptive (gamma = 1)."""
    design = GroupedDesign(X=np.zeros((n, beta.g * beta.p)), y=np.zeros(n),
                           g=beta.g, p=beta.p)
    mode = "uniform" if pilot is None else "adaptive"
    spec = ProblemSpec(loss="ls", q=q, lam=lam, weight_mode=mode,
                       pilot=pilot)
    return objective(design, spec, beta)


def prox_row(v, kappa, q):
    """The block prox of one row through the batched ``prox_block_norms``."""
    return prox_block_norms(np.atleast_2d(np.asarray(v, float)), [kappa], q)[0]


def test_penalty_value_zero_when_equal():
    beta = coeffs([1.0, -2.0], [1.0, -2.0], [1.0, -2.0])
    assert penalty(beta, q=2, lam=3.0, n=10) == 0.0


def test_penalty_value_q1_example():
    assert penalty(coeffs(1.0, 3.0, 3.0), q=1, lam=1.0) == pytest.approx(2.0)


def test_penalty_value_q2_weighted_example():
    # at n = 1 the pilot difference |2| + |0| = 2 gives the weight 1/2
    pilot = coeffs([0.0, 0.0], [2.0, 0.0])
    beta = coeffs([0.0, 0.0], [3.0, 4.0])
    assert penalty(beta, q=2, lam=2.0, pilot=pilot) == pytest.approx(5.0)


def test_penalty_value_single_group_is_zero():
    assert penalty(coeffs([1.0, 2.0]), q=1, lam=5.0, n=7) == 0.0
    assert penalty(coeffs([1.0, 2.0]), q=1, lam=5.0, n=7,
                   pilot=coeffs([0.5, 0.0])) == 0.0


def test_penalty_translation_invariance():
    rng = np.random.default_rng(23)
    pilot = GroupedCoefficients(tuple(rng.standard_normal(2)
                                      for _ in range(4)))
    blocks = [rng.standard_normal(2) for _ in range(4)]
    shift = rng.standard_normal(2)
    before = penalty(GroupedCoefficients(tuple(blocks)), q=2, lam=0.7, n=5,
                     pilot=pilot)
    after = penalty(GroupedCoefficients(tuple(b + shift for b in blocks)),
                    q=2, lam=0.7, n=5, pilot=pilot)
    assert after == pytest.approx(before, abs=1e-12)


def test_adaptive_weights_identical_pilot_hits_floor():
    pilot = coeffs(0.3, 0.3, 0.3)
    np.testing.assert_allclose(adaptive_weights(pilot, n=100, gamma=1.0),
                               [10.0, 10.0])


def test_adaptive_weights_example_gamma_one():
    pilot = coeffs(0.0, 0.5)
    assert adaptive_weights(pilot, n=100, gamma=1.0)[0] == pytest.approx(2.0)


def test_adaptive_weights_example_gamma_two():
    # 0.2^2 + 0.1^2 = 0.05 < 0.1, so the floor binds and the weight is 10
    pilot = GroupedCoefficients((np.array([0.0, 0.0]), np.array([0.2, 0.1])))
    assert adaptive_weights(pilot, n=100, gamma=2.0)[0] == pytest.approx(10.0)


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.2, 3.0), st.integers(2, 10_000))
@settings(max_examples=200)
def test_adaptive_weights_bounded_and_antitone(d1, d2, gamma, n):
    lo, hi = sorted([d1, d2])
    w_small = adaptive_weights(coeffs(0.0, hi), n, gamma)[0]
    w_big = adaptive_weights(coeffs(0.0, lo), n, gamma)[0]
    assert 0.0 < w_small <= n ** 0.5 + 1e-12
    # enlarging the pilot difference never increases the weight
    assert w_small <= w_big + 1e-12


def test_prox_block_norm_q2_example():
    np.testing.assert_allclose(prox_row([3.0, 4.0], 1.0, q=2),
                               [2.4, 3.2], atol=1e-12)


def test_prox_block_norm_q2_annihilates():
    np.testing.assert_array_equal(prox_row([0.3, 0.4], 0.5, q=2),
                                  [0.0, 0.0])


def test_prox_block_norm_q1_example():
    np.testing.assert_allclose(prox_row([1.5, -0.2], 0.5, q=1),
                               [1.0, 0.0], atol=1e-12)


def test_prox_block_norm_q1_matches_componentwise_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.normal(0.0, 2.0, 3)
        kappa = rng.uniform(0.0, 2.0)
        got = prox_row(v, kappa, q=1)
        for k in range(3):
            obj = lambda z: kappa * abs(z) + 0.5 * (z - v[k]) ** 2
            assert got[k] == pytest.approx(
                ternary_min(obj, -6.0, 6.0), abs=1e-8)


def test_prox_block_norm_q2_matches_radial_oracle():
    # by rotational symmetry the block prox reduces to a 1-D problem in the
    # radial coordinate
    rng = np.random.default_rng(37)
    for _ in range(50):
        v = rng.normal(0.0, 2.0, 2)
        kappa = rng.uniform(0.0, 3.0)
        r = np.linalg.norm(v)
        radial = lambda s: kappa * s + 0.5 * (s - r) ** 2
        s_star = max(ternary_min(radial, 0.0, r + kappa + 1.0), 0.0)
        expected = s_star * v / r if r > 0 else np.zeros(2)
        np.testing.assert_allclose(prox_row(v, kappa, q=2), expected,
                                   atol=1e-8)


@pytest.mark.parametrize("q", [1, 2])
def test_prox_block_norm_identity_at_zero_and_shrinks(q):
    rng = np.random.default_rng(41)
    for _ in range(50):
        v = rng.normal(0.0, 3.0, 4)
        np.testing.assert_array_equal(prox_row(v, 0.0, q), v)
        out = prox_row(v, rng.uniform(0.0, 2.0), q)
        assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-12


def test_prox_block_norms_batched_matches_single():
    rng = np.random.default_rng(43)
    V = rng.normal(0.0, 1.0, (5, 3))
    kappas = rng.uniform(0.0, 2.0, 5)
    for q in (1, 2):
        batch = prox_block_norms(V, kappas, q)
        for i in range(5):
            np.testing.assert_allclose(batch[i],
                                       prox_row(V[i], kappas[i], q))


def test_prox_block_norms_rejects_negative_kappa():
    with pytest.raises(ValueError):
        prox_block_norms(np.ones((2, 1)), [0.5, -0.1], q=1)
