"""Reference computations from the model's definition, apart from groupfuse.

Nothing here imports groupfuse.  The model is

    minimize  loss(y - X b) + sum_j kappa_j ||b_{j+1} - b_j||_q,

with kappa_j = n * lam * w_j, the LS loss sum r_i^2 and the quantile check
loss sum rho_tau(r_i).  Each function below recomputes one thing a fit or a
report claims, so that a wrong answer from the package cannot also be the
reference it is compared with.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

# Fits at Monte Carlo tolerances stop up to about 1e-3 (relative) above
# the exact LP optimum; ten times that is a wrong answer.
GAP_TOL = 1e-2
# A q = 2 quantile fit may lie above the q = 2 objective at the minimizer
# of the bracketing LP by at most this share (up to 8e-3 is seen at p = 3).
BRACKET_TOL = 2.5e-2
# LS first-order certificate: dual feasibility, stationarity along the
# common shift of all blocks, and complementarity, each relative.  Fits at
# Monte Carlo tolerances reach 1e-2; a fit of the problem with half the
# penalty reads 0.5.
KKT_TOL = 5e-2
# a fit cannot beat an exact optimum by more than the LP solver's own
# feasibility tolerance allows
LP_SLACK = 1e-6


def check_loss(resid: np.ndarray, tau: float) -> np.ndarray:
    return np.where(resid >= 0.0, tau * resid, (tau - 1.0) * resid)


def block_diffs(b: np.ndarray, g: int, p: int) -> np.ndarray:
    B = np.asarray(b, dtype=float).reshape(g, p)
    return B[1:] - B[:-1]


def pair_norms(diffs: np.ndarray, q: int) -> np.ndarray:
    if q == 1:
        return np.abs(diffs).sum(axis=1)
    return np.sqrt((diffs ** 2).sum(axis=1))


def objective(X, y, b, kappa, g, p, q, loss, tau=0.5) -> float:
    resid = y - X @ b
    if loss == "ls":
        fit_part = float(resid @ resid)
    else:
        fit_part = float(check_loss(resid, tau).sum())
    return fit_part + float(kappa @ pair_norms(block_diffs(b, g, p), q))


def schedule_lambda(n: int, stage: str) -> float:
    """The paper's schedules, n^-1 (log n)^(1/2) and n^-1 (log n)^(5/2)."""
    ln = math.log(n)
    return math.sqrt(ln) / n if stage == "fused" else ln ** 2.5 / n


def adaptive_weights(pilot: np.ndarray, g: int, p: int, n: int,
                     gamma: float) -> np.ndarray:
    strength = (np.abs(block_diffs(pilot, g, p)) ** gamma).sum(axis=1)
    return 1.0 / np.maximum(n ** -0.5, strength)


def kappas(n: int, lam: float, g: int, weights=None) -> np.ndarray:
    w = np.ones(g - 1) if weights is None else np.asarray(weights)
    return n * lam * w


def med_mad(y, X, b, beta_true) -> tuple[float, float]:
    """MED (median residual) and MAD (mean absolute coefficient error)."""
    return (float(np.median(y - X @ b)),
            float(np.mean(np.abs(np.asarray(beta_true) - b))))


def _diff_matrix(g: int, p: int):
    import scipy.sparse as sp

    m = (g - 1) * p
    rows = np.arange(m)
    return sp.csr_matrix(
        (np.concatenate([-np.ones(m), np.ones(m)]),
         (np.concatenate([rows, rows]), np.concatenate([rows, rows + p]))),
        shape=(m, g * p))


def quantile_l1_lp(X, y, kappa, g, p, tau) -> tuple[float, np.ndarray]:
    """Exact optimum and minimizer of the check loss plus
    sum_j kappa_j ||b_{j+1} - b_j||_1, a linear program.

    Solved through its dual, which is smaller than the Koenker-Bassett
    primal with split residuals and differences:

        max y'a  s.t.  X'a = D's,  tau - 1 <= a_i <= tau,  |s_jk| <= kappa_j.

    The minimizer b is minus the multipliers of the equality rows; its
    primal objective must match the dual optimum, which is checked here.
    For p = 1 this is the quantile model for either q.
    """
    import scipy.optimize
    import scipy.sparse as sp

    n, r = X.shape
    m = (g - 1) * p
    kap = np.repeat(np.asarray(kappa, dtype=float), p)
    A_eq = sp.hstack([sp.csr_matrix(X.T), -_diff_matrix(g, p).T],
                     format="csc")
    c = np.concatenate([-np.asarray(y, dtype=float), np.zeros(m)])
    bounds = [(tau - 1.0, tau)] * n + list(zip(-kap, kap))
    res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=np.zeros(r),
                                 bounds=bounds, method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    best = -res.fun
    b = -res.eqlin.marginals
    at_b = objective(X, y, b, kappa, g, p, 1, "quantile", tau)
    if abs(at_b - best) > LP_SLACK * abs(best):
        raise RuntimeError(f"reference LP: primal {at_b} != dual {best}")
    return best, b


def quantile_lp_gap(X, y, b, kappa, g, p, tau) -> float:
    """Relative gap of ``b``'s objective to the exact LP optimum."""
    best, _ = quantile_l1_lp(X, y, kappa, g, p, tau)
    mine = objective(X, y, b, kappa, g, p, 1, "quantile", tau)
    return (mine - best) / abs(best)


def quantile_l2_bracket(X, y, b, kappa, g, p, tau) -> tuple[float, float]:
    """Bracket a q = 2 quantile fit between a dual bound and a feasible point.

    Since ||v||_1 / sqrt(p) <= ||v||_2, the LP with weights kappa / sqrt(p)
    has an optimum no larger than the q = 2 optimum, and its minimizer is a
    point the q = 2 optimum can be no worse than.  Returns
    ``(excess, width)``: how far the fit's objective lies above that
    point's (must be <= 0 up to tolerance) and how far above the lower
    bound (must be >= 0), both relative to the fit's objective.
    """
    lower, b_lp = quantile_l1_lp(X, y, np.asarray(kappa) / math.sqrt(p),
                                 g, p, tau)
    at_lp = objective(X, y, b_lp, kappa, g, p, 2, "quantile", tau)
    mine = objective(X, y, b, kappa, g, p, 2, "quantile", tau)
    return (mine - at_lp) / mine, (mine - lower) / mine


def ls_certificate(X, y, b, kappa, g, p, q) -> float:
    """Largest relative violation of the LS first-order conditions at ``b``.

    Stationarity reads D^T s = 2 X^T (y - X b) with s_j in
    kappa_j * subdiff ||.||_q at (D b)_j.  D has full row rank, so s is the
    unique negative cumulative block sum of the right side, and the last
    block's equation asks that the blocks of the right side sum to zero.
    What is left to check is that s is dual feasible (||s_j||_* <= kappa_j)
    and complementary (s_j . (D b)_j = kappa_j ||(D b)_j||_q).
    """
    grad = (2.0 * X.T @ (y - X @ b)).reshape(g, p)
    s = -np.cumsum(grad, axis=0)[:-1]
    kappa = np.asarray(kappa, dtype=float)
    kmax = float(kappa.max(initial=0.0))
    scale = max(kmax, float(np.abs(grad).max()), 1e-300)
    shift = float(np.abs(grad.sum(axis=0)).max()) / scale
    if g == 1:
        return shift
    dual = np.abs(s).max(axis=1) if q == 1 else np.sqrt((s ** 2).sum(axis=1))
    # against the common scale: adaptive weights span orders of magnitude,
    # and a small absolute error in s is a large share of the smallest kappa
    feas = float(np.max(np.maximum(dual - kappa, 0.0))) / scale
    diffs = block_diffs(b, g, p)
    pen = float(kappa @ pair_norms(diffs, q))
    resid = y - X @ b
    # against the penalty, which can be a small share of the objective; the
    # floor keeps a fit with every pair fused (pen near 0) from dividing by 0
    floor = 1e-4 * (float(resid @ resid) + pen)
    comp = abs(pen - float(np.sum(s * diffs))) / max(pen, floor, 1e-300)
    return max(shift, feas, comp)


_COLUMN = re.compile(r"^(.*)_(\d+)$")


def read_grouped_csv(path, response: str):
    """Parse the CSV into (y, X, groups), grouping <var>_<index> columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    prefixes, by_index = [], {}
    for col in header:
        if col == response:
            continue
        var, idx = _COLUMN.match(col).groups()
        if var not in prefixes:
            prefixes.append(var)
        by_index.setdefault(int(idx), {})[var] = col
    groups = [[by_index[j][v] for v in prefixes] for j in sorted(by_index)]
    pos = {c: i for i, c in enumerate(header)}
    cols = [pos[c] for grp in groups for c in grp]
    data = np.array([[float(v) for v in r] for r in body])
    return data[:, pos[response]], data[:, cols], groups


def standardized(X: np.ndarray):
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mean) / sd, mean, sd
