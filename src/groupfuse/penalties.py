"""Pieces of the fused penalty: block norms, adaptive weights, block prox.

The penalty is n * lam * sum_{j=2}^{g} w_j * ||b_j - b_{j-1}||_q with q in
{1, 2}.  Uniform mode sets every w_j = 1; adaptive mode builds the weights
from a pilot fit so that pairs with large pilot differences are penalized
less and identical pilot pairs get the maximal weight sqrt(n).
"""

from __future__ import annotations

import numpy as np


def block_norms(diffs: np.ndarray, q: int) -> np.ndarray:
    """Row-wise L_q norms of a (m, p) array of difference blocks."""
    if q == 1:
        return np.abs(diffs).sum(axis=1)
    return np.sqrt((diffs ** 2).sum(axis=1))


def adaptive_weights(pilot, n: int, gamma: float) -> np.ndarray:
    """Per-pair weights 1 / max(n^{-1/2}, sum_k |pilot_{j,k} - pilot_{j-1,k}|^gamma).

    The n^{-1/2} floor is what keeps weights finite (at most sqrt(n)) when a
    pilot pair is exactly fused; it is applied exactly as written, not as an
    epsilon tweak.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    diffs = pilot.successive_differences()
    strength = (np.abs(diffs) ** gamma).sum(axis=1)
    return 1.0 / np.maximum(n ** -0.5, strength)


def prox_block_norms(V: np.ndarray, kappas: np.ndarray, q: int) -> np.ndarray:
    """Row-wise prox of kappa_j * ||.||_q applied to a (m, p) array.

    q = 2 is the block soft threshold (whole rows annihilate when their norm
    is at most kappa), q = 1 the componentwise soft threshold.
    """
    V = np.asarray(V, dtype=float)
    kappas = np.asarray(kappas, dtype=float)
    if np.any(kappas < 0):
        raise ValueError("kappa must be nonnegative")
    if V.shape[0] == 0:
        return V.copy()
    k = kappas[:, None]
    if q == 1:
        return np.sign(V) * np.maximum(np.abs(V) - k, 0.0)
    norms = np.sqrt((V ** 2).sum(axis=1, keepdims=True))
    scale = np.zeros_like(norms)
    np.divide(norms - k, norms, out=scale, where=norms > k)
    return scale * V

