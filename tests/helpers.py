"""Shared test oracles, independent of the library code paths they check.

Besides the numeric oracles and the brute-force fit, this module holds the
closed-form check-function identity (``knight_identity_gap``), the LS
gradient (``ls_residual_gradient``) and the dense difference matrix
(``dense_diff_matrix``): references the tests need and the package does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.integrate import quad

from groupfuse import (GroupedCoefficients, GroupedDesign, ProblemSpec,
                       SolverError, check_value, fit)
from groupfuse.detection import score_detection
from groupfuse.model import check_shapes
from groupfuse.simulation import ScenarioSpec, generate_instance
from groupfuse.solver import default_schedules


def ternary_min(f, lo: float, hi: float, iters: int = 160) -> float:
    """Argmin of a convex scalar function on [lo, hi].

    Runs in extended precision: double precision can only localize the
    minimum of a quadratic to about sqrt(eps) ~ 1.5e-8, which is exactly the
    accuracy the oracle comparisons need to beat.
    """
    lo = np.longdouble(lo)
    hi = np.longdouble(hi)
    three = np.longdouble(3.0)
    for _ in range(iters):
        t1 = lo + (hi - lo) / three
        t2 = hi - (hi - lo) / three
        if f(t1) <= f(t2):
            hi = t2
        else:
            lo = t1
    return float((lo + hi) / np.longdouble(2.0))


def ternary_min_batch(f, lo: np.ndarray, hi: np.ndarray,
                      iters: int = 120) -> np.ndarray:
    """Vectorized ternary search; ``f`` maps an array to objective values."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    for _ in range(iters):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        left = f(t1) <= f(t2)
        hi = np.where(left, t2, hi)
        lo = np.where(left, lo, t1)
    return 0.5 * (lo + hi)


def knight_integral_quad(x: float, y: float) -> float:
    """Adaptive quadrature of int_0^y (1{x<=v} - 1{x<=0}) dv."""
    indicator = lambda v: float(x <= v) - float(x <= 0.0)
    interior = min(0.0, y) < x < max(0.0, y)
    val, _ = quad(indicator, 0.0, y,
                  points=[x] if interior else None, limit=200)
    return val


def _indicator_integral(x, y):
    # closed form of int_0^y (1{x <= v} - 1{x <= 0}) dv, by case analysis on
    # the sign ordering of 0, y, x
    return np.where(x > 0, np.maximum(y - x, 0.0), np.maximum(x - y, 0.0))


def knight_identity_gap(x, y, tau: float):
    """|LHS - RHS| of the exact check-function decomposition

        rho_tau(x - y) - rho_tau(x) = y (1{x<0} - tau)
                                      + int_0^y (1{x<=v} - 1{x<=0}) dv,

    with the integral evaluated in closed form.  The gap must vanish to
    rounding error for all finite inputs; ``check_value`` validates tau.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    lhs = check_value(xa - ya, tau) - check_value(xa, tau)
    rhs = ya * ((xa < 0) - tau) + _indicator_integral(xa, ya)
    out = np.abs(lhs - rhs)
    scalar = np.isscalar(x) and np.isscalar(y)
    return float(out) if scalar or out.ndim == 0 else out


def ls_residual_gradient(design: GroupedDesign,
                         beta: GroupedCoefficients) -> np.ndarray:
    """Gradient of sum_i (y_i - x_i' beta)^2, i.e. -2 X'(y - X beta)."""
    check_shapes(design, beta)
    return -2.0 * design.X.T @ (design.y - design.X @ beta.flat)


def dense_diff_matrix(g: int, p: int) -> np.ndarray:
    """The ((g-1)*p) x (g*p) successive-difference matrix, built densely."""
    first_diff = np.zeros((g - 1, g))
    idx = np.arange(g - 1)
    first_diff[idx, idx] = -1.0
    first_diff[idx, idx + 1] = 1.0
    return np.kron(first_diff, np.eye(p))


def central_differences(f, x: np.ndarray) -> np.ndarray:
    """Gradient oracle with per-coordinate steps 1e-6 * (1 + |x_k|)."""
    grad = np.empty_like(x, dtype=float)
    for k in range(x.size):
        h = 1e-6 * (1.0 + abs(x[k]))
        e = np.zeros_like(x)
        e[k] = h
        grad[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


TINY_SHAPES = ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3))


def random_tiny_instance(rng: np.random.Generator,
                         loss: str, tau: float, q: int,
                         adaptive: bool) -> tuple[GroupedDesign, ProblemSpec]:
    """A random instance with n <= 6 and g*p <= 3 plus a matching spec."""
    g, p = TINY_SHAPES[rng.integers(len(TINY_SHAPES))]
    n = int(rng.integers(4, 7))
    X = rng.standard_normal((n, g * p))
    beta_true = rng.uniform(-2.0, 2.0, g * p)
    y = X @ beta_true + 0.5 * rng.standard_normal(n)
    design = GroupedDesign(X=X, y=y, g=g, p=p)
    lam = float(rng.uniform(0.1, 3.0)) / n
    if adaptive:
        pilot = fit(design, ProblemSpec(loss=loss, tau=tau, q=q, lam=lam))
        spec = ProblemSpec(loss=loss, tau=tau, q=q, lam=lam,
                           weight_mode="adaptive", gamma=1.0,
                           pilot=pilot.beta)
    else:
        spec = ProblemSpec(loss=loss, tau=tau, q=q, lam=lam)
    return design, spec


def heavy_schedule_misscls(args) -> int:
    """Worker for the misclassification-rate gate: one fused quantile fit."""
    n, seed, m, cfg = args
    rng = np.random.default_rng((seed, m))
    spec = ScenarioSpec(p=1, g=n, error_dist="gaussian", changes=2,
                        seed=seed, M=1)
    design, _, truth = generate_instance(spec, rng)
    lam_heavy, _ = default_schedules(n, "adaptive")
    result = fit(design, ProblemSpec(loss="quantile", tau=0.5, q=2,
                                     lam=lam_heavy), cfg)
    _, _, misscls = score_detection(result.detected_set, truth)
    return misscls


@dataclass(frozen=True)
class GridSpec:
    """Controls for the tiny-instance grid-search oracle."""

    points: int = 21
    refine_points: int = 13
    obj_tol: float = 1e-7
    max_sweeps: int = 40

    def __post_init__(self):
        if self.points < 3 or self.refine_points < 3:
            raise ValueError("grids need at least 3 points per coordinate")


def _quantile_loss_only_fit(X: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    # classic LP form: minimize tau*1'u+ + (1-tau)*1'u-  s.t.  X b + u+ - u- = y
    n, d = X.shape
    c = np.concatenate([np.zeros(d), np.full(n, tau), np.full(n, 1.0 - tau)])
    A_eq = np.hstack([X, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * d + [(0, None)] * (2 * n)
    res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds,
                                 method="highs")
    if not res.success:
        raise SolverError(f"loss-only quantile LP failed: {res.message}")
    return res.x[:d]


def _directions(d: int) -> np.ndarray:
    # nonzero sign patterns in {-1,0,1}^d, one per +/- pair
    dirs = []
    for code in range(1, 3 ** d):
        vec = []
        rem = code
        for _ in range(d):
            vec.append([0.0, 1.0, -1.0][rem % 3])
            rem //= 3
        first = next(v for v in vec if v != 0.0)
        if first > 0:
            dirs.append(vec)
    return np.asarray(dirs)


def brute_force_fit(design: GroupedDesign, spec: ProblemSpec,
                    grid: GridSpec | None = None) -> GroupedCoefficients:
    """Independent oracle: dense grid search plus line-search refinement.

    Guarded to g*p <= 3.  The box is centered on the loss-only fit; the grid
    stage locates the basin, bisection sweeps along coordinate and diagonal
    sign directions refine it, and a final simplex polish removes any
    residual kink stall.  No step shares code with :func:`fit`.
    """
    if grid is None:
        grid = GridSpec()
    g, p = design.g, design.p
    d = g * p
    if d > 3:
        raise ValueError(f"brute force limited to g*p <= 3, got {d}")
    X, y, n = design.X, design.y, design.n
    weights = spec.pair_weights(n, g)
    kappa = n * spec.lam * weights

    def objective_at(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        resid = y[None, :] - pts @ X.T
        if spec.loss == "quantile":
            loss = (resid * (spec.tau - (resid < 0))).sum(axis=1)
        else:
            loss = (resid ** 2).sum(axis=1)
        if g > 1:
            blocks = pts.reshape(pts.shape[0], g, p)
            diffs = blocks[:, 1:, :] - blocks[:, :-1, :]
            if spec.q == 1:
                norms = np.abs(diffs).sum(axis=2)
            else:
                norms = np.sqrt((diffs ** 2).sum(axis=2))
            loss = loss + norms @ kappa
        return loss

    if spec.loss == "quantile":
        center = _quantile_loss_only_fit(X, y, spec.tau)
    else:
        center = np.linalg.lstsq(X, y, rcond=None)[0]
    radius = 2.0 * (1.0 + max(1.0, np.abs(center).max()))

    def staged_min(fobj, mid: np.ndarray) -> tuple[np.ndarray, float]:
        dims = mid.size

        def grid_stage(at: np.ndarray, half: float, npts: int) -> np.ndarray:
            axes = [np.linspace(m - half, m + half, npts) for m in at]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            return pts[int(np.argmin(fobj(pts)))]

        best = grid_stage(mid, radius, grid.points)
        step = 2.0 * radius / (grid.points - 1)
        best = grid_stage(best, step, grid.refine_points)
        best_val = float(fobj(best[None, :])[0])

        def line_min(x0, v):
            lo, hi = -radius, radius
            for _ in range(60):
                t1 = lo + (hi - lo) / 3.0
                t2 = hi - (hi - lo) / 3.0
                if fobj((x0 + t1 * v)[None, :])[0] <= \
                        fobj((x0 + t2 * v)[None, :])[0]:
                    hi = t2
                else:
                    lo = t1
            x = x0 + 0.5 * (lo + hi) * v
            return x, float(fobj(x[None, :])[0])

        dirs = _directions(dims)
        for _ in range(grid.max_sweeps):
            sweep_start = best_val
            for v in dirs:
                cand, val = line_min(best, v)
                if val < best_val:
                    best, best_val = cand, val
            if sweep_start - best_val < grid.obj_tol:
                break

        polish = scipy.optimize.minimize(
            lambda x: float(fobj(x[None, :])[0]), best,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if polish.fun < best_val:
            best, best_val = polish.x, float(polish.fun)
        return best, best_val

    # the unconstrained search can stall on the kinks of exactly-fused
    # solutions, so every fusion pattern is also optimized inside its own
    # (smooth across the fused pairs) subspace and the overall best wins
    best_point = None
    best_val = np.inf
    for mask in range(2 ** (g - 1)):
        seg_of_group = np.zeros(g, dtype=int)
        for j in range(1, g):
            fused_pair = bool(mask & (1 << (j - 1)))
            seg_of_group[j] = seg_of_group[j - 1] + (0 if fused_pair else 1)
        n_seg = seg_of_group[-1] + 1
        embed = np.zeros((d, n_seg * p))
        for j in range(g):
            s = seg_of_group[j]
            embed[j * p:(j + 1) * p, s * p:(s + 1) * p] = np.eye(p)
        mid = np.linalg.lstsq(embed, center, rcond=None)[0]
        theta, val = staged_min(lambda TH: objective_at(TH @ embed.T), mid)
        if val < best_val:
            best_val = val
            best_point = embed @ theta

    return GroupedCoefficients.from_flat(best_point, g, p)
