"""Convex solver for fused-group regression.

Minimizes  loss(y - X b) + n * lam * sum_{j=2}^g w_j ||b_j - b_{j-1}||_q
on one of two routes, chosen from the problem's shape alone:

- **LP route** (``_lp_ipm``): a quantile fit with p = 1 or q = 1 is a
  linear program.  A Frisch-Newton primal-dual interior-point method
  (Portnoy & Koenker 1997) solves it on the augmented rows [X; 2 kappa D]
  by Mehrotra's predictor-corrector, and stops on a certified duality gap:
  ``converged`` means that the relative gap is at most ``tol_rel``.  The
  detected set of a converged fit is read off a point that fuses the
  optimum's differences which cost less than ``tol_rel`` to fuse
  (``_fused_diffs``); the coefficients stay the optimum.
- **ADMM** (``_admm``): LS fits, and quantile fits with q = 2 and p > 1
  (second-order cone programs), by operator splitting on the
  successive-difference operator D.  An LS fit with a separable penalty
  (p = 1 or q = 1) also tries a certified exact finish (``_ls_finish``,
  below) and is ``converged`` only if it stops on a relative duality gap of
  at most ``tol_rel``; every other ADMM fit is ``converged`` when the
  residual or step-stall rule below was met.

One ADMM loop serves both losses.  The constraint A b = s is held as one
stacked mirror s and one stacked scaled dual u.  For the quantile loss
A = [X; D] and s = [y - zr; zd], so the residuals zr enter through the
exact check prox; for the LS loss the quadratic is absorbed exactly into
the b-update and only the difference block exists (A = D, s = zd).
Over-relaxation, the dual update, the primal residual and the step are
then one vector operation each, and [X b; D b] is written into one buffer.

Which prox runs: the residual block is clipped to the check prox's dead
zone, and the difference block goes through the row-wise block prox
``penalties.prox_block_norms``.  An LS fit with a separable penalty
(p = 1 or q = 1) soft-thresholds its differences by one entrywise clip,
s = v + clip(-v, -k, k), with bounds rebuilt only when rho changes.

The two constraint blocks of the quantile loss run at different
augmented-Lagrangian rates (rho for the residuals, c * rho for the
differences, c set from the penalty scale), which keeps the dual variables
O(1) even when the per-pair penalty weights are large; the ratio c is
fixed per fit so the cached inverse of the b-update system survives
residual-balancing changes to rho.

Stopping follows the primal/dual residual rule of Boyd et al. (2011), plus
a step-stall rule.  The primal residual, the step and their scales are
computed in every iteration; the dual residual and its scale only where
they are read: when the primal test passes, at a balancing step, on a step
stall and at the last iteration.  The dual residual a fit reports is
therefore always its last iteration's.

The certified finish of separable LS fits (OSQP's solution polishing,
Stellato et al. 2020, with a Gap Safe certificate, Ndiaye et al. 2017):
at every balancing step, at the residual rule's stop and at ``max_iter``,
the exact zeros of the difference mirror are taken as fused and the signs
of the other differences as fixed, which leaves a least-squares problem
in the run levels that one symmetric solve minimizes.  The polished point
becomes the incumbent if its objective is lower, and the residuals of the
point polished (or, if the reduced system is singular, of the incumbent)
give a dual bound.  The fit stops as soon as the incumbent's relative gap
(objective - best dual bound) / max(1, objective) is at most ``tol_rel``,
and reports that gap as ``duality_gap``; it is None on q = 2, p > 1 fits.

The b-update system is inverted once (for the LS loss, again whenever
balancing changes rho), after a Cholesky factorization has confirmed it is
positive definite, and every iteration solves by one product with the
cached inverse.  The LP route factorizes its normal system A'QA the same
way, once per iteration, after Jacobi scaling, and refines each solve.

On both routes the recorded merit per iteration is the true objective of
the incumbent (best-so-far) point, which is also what gets returned; a
non-finite iterate raises :class:`SolverError` naming the iteration.  The
detected set is read off the returned point's difference mirror, which
for a polished point is its own differences, exactly zero on fused pairs.

A warm start is a coefficient vector, and a fit depends only on its
values: ADMM starts its mirror at A b for the warm coefficients b, with a
zero dual, and the LP route ignores the start.  Nothing is attached to
the coefficients a fit returns.

The default tuning schedules live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detection, penalties
from .model import (DimensionMismatchError, FitResult, GroupedCoefficients,
                    GroupedDesign, ProblemSpec)
# the loop clips the residual block itself (see _clip_prox); the check prox
# stays importable here, where gfbench's tracer looks it up
from .losses import prox_check  # noqa: F401

RHO_INIT = 1.0
RHO_MIN = 1e-3
RHO_MAX = 1e3
OVER_RELAX = 1.5
# residual balancing fires at most this often: on piecewise-linear problems
# every rescaling of the duals restarts the tail of the iteration
ADAPT_EVERY = 50
# the LP route stops once the certified relative duality gap is this small
IPM_GAP_REL = 1e-9
# ... or once the gap has not halved over this many iterations (the
# rounding floor)
IPM_STALL = 5
# share of the step to the boundary that the LP route takes
IPM_STEP = 0.99995
# the ridge on the unit diagonal of the LP route's scaled normal systems,
# used when the rows are of deficient rank, which the squared smallest
# Cholesky pivot of the scaled least-squares system shows below IPM_RANK_TOL
IPM_RIDGE = 1e-12
IPM_RANK_TOL = 1e-10
# the LP route's start lifts multipliers of residuals below this share of
# the largest one off zero
IPM_START_FLOOR = 1e-10


class SolverError(RuntimeError):
    """Hard numerical failure inside a solver route."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs for both routes (see the module docstring).

    ``max_iter`` caps the iterations of either route.  ``tol_rel`` is the
    convergence tolerance: on the LP route, the certified relative duality
    gap (the route itself iterates on to ``IPM_GAP_REL``); on ADMM, the
    relative part of the standard primal/dual residual stopping rule, and
    for separable LS fits (p = 1 or q = 1) also the certified relative gap
    at which the exact finish stops the fit.
    ``tol_abs`` is the residual rule's absolute part and reaches ADMM only.
    ``fusion_tol`` is the post-hoc threshold used to read the detected
    difference set off the solution.  On the LP route ``tol_rel`` also
    bounds what fusing the optimum's unresolvable differences may cost
    (see ``_fused_diffs``).

    ``warm_start`` is a coefficient vector b, and only its values count:
    ADMM starts its mirror at A b with a zero dual; the LP route ignores it.

    The augmented-Lagrangian rate starts at ``RHO_INIT``; every
    ``ADAPT_EVERY`` iterations residual balancing may halve or double it
    within [``RHO_MIN``, ``RHO_MAX``].  For the LS loss the start and both bounds
    are multiplied by max(1, median of the pair weights n * lam * w_j).
    """

    max_iter: int = 10000
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6
    fusion_tol: float = detection.DEFAULT_FUSION_TOL
    warm_start: GroupedCoefficients | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not all(0.0 < t < math.inf for t in (self.tol_abs, self.tol_rel)):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 <= self.fusion_tol < math.inf:
            raise ValueError("fusion_tol must be finite and nonnegative")


class DiffOperator:
    """Implicit ((g-1)*p) x (g*p) successive-difference operator."""

    def __init__(self, g: int, p: int):
        if g < 1 or p < 1:
            raise ValueError("g and p must be positive")
        self.g = g
        self.p = p
        self.rows = (g - 1) * p
        self.cols = g * p

    def apply(self, v: np.ndarray, out=None) -> np.ndarray:
        v = np.asarray(v).reshape(self.cols)
        # group j occupies entries [j*p, (j+1)*p), so block differences are
        # one shifted subtraction
        return np.subtract(v[self.p:], v[:self.rows], out=out)

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d).reshape(self.rows)
        out = np.zeros(self.cols)
        out[:self.rows] -= d
        out[self.p:] += d
        return out

    def gram(self, weights=None) -> np.ndarray:
        """D'WD in closed form: the path-graph Laplacian (x) I_p.

        ``weights`` (one per difference row, default all 1) weight the
        rows, which makes it a weighted path-graph Laplacian per coordinate.
        """
        w = 1.0 if weights is None else weights
        G = np.zeros((self.cols, self.cols))
        i = np.arange(self.rows)
        # difference row i pairs column i with column i + p
        G[i, i] += w
        G[i + self.p, i + self.p] += w
        G[i, i + self.p] = G[i + self.p, i] = -w
        return G


def _factorize(M: np.ndarray):
    """Invert the b-update system once; return its solve.

    ``np.linalg.cholesky`` (LAPACK ``potrf``) decides whether the system is
    positive definite; the cached inverse then makes every solve a single
    matrix-vector product, since numpy has no triangular solve and
    ``np.linalg.solve`` would factor the system again on each call.
    """
    try:
        np.linalg.cholesky(M)
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        # singular system (e.g. an all-zero design); the minimum-norm
        # solution still minimizes the b-subproblem
        inv = np.linalg.pinv(M)
    return lambda rhs: inv @ rhs


def _clip_bounds(alpha: float, tau: float, kappa_rho: np.ndarray, n_res: int,
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the stacked clip for ``n_res`` residuals, then pairs.

    A residual entry gets the check prox's dead zone at step ``alpha``,
    [-alpha * (1 - tau), alpha * tau]; each of the p entries of pair j gets
    [-kappa_rho[j], kappa_rho[j]], the check prox's at tau = 1/2 and twice
    the step, i.e. the soft threshold.
    """
    k = np.repeat(kappa_rho, p)
    return (np.concatenate((np.full(n_res, -alpha * (1.0 - tau)), -k)),
            np.concatenate((np.full(n_res, alpha * tau), k)))


def _clip_prox(v: np.ndarray, c, lo, hi) -> np.ndarray:
    """v + clip(c - v, lo, hi): the prox of every separable mirror entry.

    For a residual entry (c = y) it is y minus the check prox of y - v; for
    a difference entry (c = 0, lo = -hi) it is the soft threshold of v, the
    block prox whenever p = 1 or q = 1, and exactly +0.0 in its dead zone.
    """
    return v + np.minimum(np.maximum(c - v, lo), hi)


def _merit(spec: ProblemSpec, kappa: np.ndarray, resid: np.ndarray,
           db: np.ndarray, p: int) -> float:
    """The objective at residuals y - X b and differences ``db`` = D b."""
    pen = float(kappa @ penalties.block_norms(db.reshape(kappa.size, p),
                                              spec.q))
    if spec.loss == "ls":
        return float(resid @ resid) + pen
    return float((resid * (spec.tau - (resid < 0))).sum()) + pen


def _assemble(design, cfg, beta, trace, zd, gap, primal, dual, route: str,
              converged: bool, iterations: int) -> FitResult:
    """The FitResult of ``beta`` on ``route``, detected set read off ``zd``."""
    g, p = design.g, design.p
    beta_gc = GroupedCoefficients.from_flat(beta, g, p)
    detected = detection.detect_from_diffs(
        zd.reshape(g - 1, p), beta_gc.stacked(), cfg.fusion_tol)
    return FitResult(
        beta=beta_gc,
        detected_set=tuple(detected),
        objective_trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        primal_residual=float(primal),
        dual_residual=float(dual),
        overparameterized=design.r > design.n,
        route=route,
        duality_gap=gap,
    )


def _jacobi(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sc, sc M sc) with sc = diag(M)^(-1/2): a unit diagonal.

    A zero diagonal entry (a coefficient that nothing constrains) is left
    unscaled.
    """
    diag = M.diagonal()
    sc = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scaled = sc[:, None] * M
    scaled *= sc
    return sc, scaled


def _full_rank(M: np.ndarray) -> bool:
    """Whether the scaled M is positive definite with room to spare."""
    try:
        L = np.linalg.cholesky(_jacobi(M)[1])
    except np.linalg.LinAlgError:
        return False
    return float(L.diagonal().min()) ** 2 > IPM_RANK_TOL


def _refined_solve(M: np.ndarray, ridge: float):
    """A solve of the normal system M, accurate where M is ill conditioned.

    The Jacobi-scaled system plus ``ridge`` on its unit diagonal is
    factorized through :func:`_factorize`; each solve then takes one step
    of iterative refinement against M itself, which keeps the equality
    residual A'a of the interior-point iterates near rounding level.
    """
    sc, scaled = _jacobi(M)
    scaled[np.diag_indices_from(M)] = 1.0 + ridge
    inner = _factorize(scaled)

    def solve(rhs):
        x = sc * inner(sc * rhs)
        return x + sc * inner(sc * (rhs - M @ x))
    return solve


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """The largest step a with x + a dx >= 0 (inf if dx >= 0)."""
    neg = dx < 0
    return float((-x[neg] / dx[neg]).min()) if neg.any() else math.inf


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float array is exactly sqrt(v.dot(v))
    return math.sqrt(v @ v)


def _ls_finish(design: GroupedDesign, kappa: np.ndarray, XtX2: np.ndarray,
               Xty2: np.ndarray):
    """(polish, dual): the certified exact finish of a separable LS fit.

    With p = 1 or q = 1 the penalty is sum_j kappa_j sum_k |(D b)_jk|.
    ``polish(zd)`` treats the exact zeros of a difference mirror ``zd`` as
    fused and keeps the signs of the other differences, which leaves
    ||y - X b||^2 + h'b, h = D'(kappa sign(zd)), in the levels c of the runs
    (b = E c).  Ordered coordinate-major, every run is a slice, so E'(2X'X)E
    and E'(2X'y - h) are sums by ``np.add.reduceat``, and one solve of
    that symmetric system gives the minimizer; None if it is singular.

    ``dual(resid)`` is the Gap Safe dual value (Ndiaye et al. 2017) made
    from the residuals y - X b of any b: a = 2 resid minus its component
    along Z = X [I; ...; I] (so that X'a = D's), s_j the cumulative block
    sums of X'a, and a scaled by t = min(1, min_j kappa_j / ||s_j||_inf)
    into the dual feasible set; the value is t y'a - t^2 ||a||^2 / 4, a
    lower bound on the optimum.  A pair with kappa_j = 0 needs s_j = 0, so
    a also loses its component along that pair's cumulative group sums of
    X (Z is then replaced by the sums of X over the runs of groups that
    such pairs separate, whose span holds Z's columns), and the pair is
    left out of t.
    """
    n, g, p = design.n, design.g, design.p
    X, y = design.X, design.y
    D = DiffOperator(g, p)
    # perm[k * g + j] = j * p + k: coordinate-major positions of the columns
    perm = np.arange(g * p).reshape(g, p).T.ravel()
    gram, xty = XtX2[np.ix_(perm, perm)], Xty2[perm]
    kr = np.repeat(kappa, p)
    Z = X.reshape(n, g, p).sum(axis=1)
    free = kappa == 0.0
    if free.any():
        starts = np.concatenate(([0], np.flatnonzero(free) + 1))
        Z = np.add.reduceat(X.reshape(n, g, p), starts, axis=1).reshape(n, -1)
    solve_z = _factorize(Z.T @ Z)

    def polish(zd):
        first = np.ones((p, g), dtype=bool)
        first[:, 1:] = zd.reshape(g - 1, p).T != 0.0
        starts = np.flatnonzero(first)
        rhs = xty - D.adjoint(kr * np.sign(zd))[perm]
        sums = np.add.reduceat(np.add.reduceat(gram, starts, axis=0),
                               starts, axis=1)
        try:
            levels = np.linalg.solve(sums, np.add.reduceat(rhs, starts))
        except np.linalg.LinAlgError:
            return None
        b = np.empty(g * p)
        b[perm] = np.repeat(levels, np.diff(np.append(starts, g * p)))
        return b

    def dual(resid):
        a = 2.0 * resid
        a -= Z @ solve_z(Z.T @ a)
        s = np.cumsum((a @ X).reshape(g, p), axis=0)[:-1]
        sup = np.abs(s).max(axis=1, initial=0.0)
        tight = (sup > kappa) & ~free
        t = float((kappa[tight] / sup[tight]).min()) if tight.any() else 1.0
        return t * float(y @ a) - t * t * float(a @ a) / 4.0

    return polish, dual


def _admm(design: GroupedDesign, spec: ProblemSpec, cfg: SolverConfig,
          kappa: np.ndarray) -> FitResult:
    """The splitting loop for LS fits and q = 2, p > 1 quantile fits.

    The constraint A b = s stacks the residual block X b (quantile loss
    only) on the difference block D b, so the over-relaxation, the dual
    update, the primal residual and the step are one operation each on
    the stacked mirror s and dual u.  The losses differ only in the setup,
    the b-update right-hand side, the stopping scales, the dual residual
    and the refactorization on a rho change (LS only).  Everything that
    depends only on rho (the prox thresholds) is computed when rho
    changes, and the dual residual only where the stopping test or
    balancing reads it.

    An LS fit with a separable penalty tries the exact finish of
    :func:`_ls_finish` at every balancing step, at the residual rule's stop
    and at ``max_iter``, and stops ``converged`` once the incumbent's
    certified relative gap is within ``tol_rel``; if it never is, the fit
    stops on the residual rule (or at ``max_iter``) as any other ADMM fit,
    but not ``converged``, still reporting its gap.

    A warm start is a coefficient vector b: the mirror starts at A b (at
    zero without a start) and the dual at zero.  The incumbent is always
    this fit's own best iterate.
    """
    n, g, p = design.n, design.g, design.p
    X, y = design.X, design.y
    Xt = np.ascontiguousarray(X.T)
    D = DiffOperator(g, p)
    md = D.rows
    ls = spec.loss == "ls"
    tau, q = spec.tau, spec.q
    # an LS fit soft-thresholds a separable penalty by one clip (separable
    # quantile fits take the LP route)
    separable = ls and (p == 1 or q == 1)
    max_iter, tol_rel = cfg.max_iter, cfg.tol_rel
    gram_d = D.gram()
    kappa_med = float(np.median(kappa)) if md else 0.0
    off = 0 if ls else n  # where the difference block starts in s and u
    if ls:
        # the b-update system carries the difference rate, so balancing
        # refactorizes it; large penalty weights need a comparable rate or
        # the difference duals crawl, and the data-scale factor keeps rho
        # dimensionless
        rho_scale, c_ratio = max(1.0, kappa_med), 1.0
        sqrt_pri = math.sqrt(max(md, 1))
        XtX2, Xty2 = 2.0 * (Xt @ X), 2.0 * (Xt @ y)
        norm_y = 0.0
    else:
        # rate ratio between the difference and residual blocks: the check
        # subgradients are O(1) while the difference duals are O(kappa)
        rho_scale = 1.0
        c_ratio = max(1.0, kappa_med / max(tau, 1.0 - tau))
        sqrt_pri = math.sqrt(n + md)
        norm_y = _norm(y)
        solve = _factorize(Xt @ X + c_ratio * gram_d)
    # the clip's centre c = [y; 0], so that c - s = [zr; -zd]
    c = np.concatenate((y[:off], np.zeros(md)))
    # the rho-free parts of the stopping thresholds
    abs_pri = sqrt_pri * cfg.tol_abs
    abs_dual = math.sqrt(g * p) * cfg.tol_abs
    step_rel = 0.1 * tol_rel

    def thresholds(rho):
        """(lo, hi, kappa / rho_d): the clip bounds and the block prox's."""
        kappa_rho = kappa / (rho * c_ratio)
        # the clip holds the residuals (quantile) or a separable penalty's
        # soft threshold (LS)
        clipped = kappa_rho if separable else kappa_rho[:0]
        lo, hi = _clip_bounds(1.0 / rho, tau, clipped, off, p)
        return lo, hi, kappa_rho

    b0 = None if cfg.warm_start is None else cfg.warm_start.flat
    s = (np.zeros(off + md) if b0 is None
         else np.concatenate((X[:off] @ b0, D.apply(b0))))
    u = np.zeros(off + md)
    if separable:
        polish, dual = _ls_finish(design, kappa, XtX2, Xty2)
    # the best dual bound and the incumbent's relative gap to it
    best_dual, gap = -np.inf, None
    rho = RHO_INIT * rho_scale
    if ls:
        solve = _factorize(XtX2 + rho * gram_d)
    lo, hi, kappa_rho = thresholds(rho)
    # the incumbent: every iterate is a fresh array, so it keeps references
    best, best_beta, best_zd, trace = np.inf, None, None, []
    alpha = OVER_RELAX
    keep = 1.0 - alpha
    Ab = np.empty(off + md)  # [X b; D b], rewritten in every iteration
    Xb, Db = Ab[:off], Ab[off:]
    converged = False
    rnorm = snorm = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        w = s - u
        if ls:
            beta = solve(Xty2 + rho * D.adjoint(w))
            resid = y - X @ beta
        else:
            beta = solve(Xt @ w[:n] + c_ratio * D.adjoint(w[n:]))
            resid = y - np.matmul(X, beta, out=Xb)
        D.apply(beta, out=Db)
        obj = _merit(spec, kappa, resid, Db, p)
        if not math.isfinite(obj):
            raise SolverError(f"non-finite iterate at iteration {it}")
        v = alpha * Ab + keep * s + u
        if separable:
            s_new = _clip_prox(v, c, lo, hi)
        else:
            zd = penalties.prox_block_norms(v[off:].reshape(g - 1, p),
                                            kappa_rho, q).ravel()
            s_new = zd if ls else np.concatenate(
                (_clip_prox(v[:n], y, lo, hi), zd))
        u = v - s_new
        ds = s_new - s
        s = s_new
        if obj < best:
            best, best_beta, best_zd = obj, beta, s[off:]
        trace.append(best)

        rnorm = _norm(Ab - s)
        step = _norm(ds)
        # |[zr; zd]|, floored at |y| for the check loss
        z_scale = max(_norm(c - s), norm_y)
        pri_scale = max(_norm(Ab), z_scale)
        step_scale = pri_scale if ls else z_scale
        eps_pri = abs_pri + tol_rel * pri_scale
        step_tol = abs_pri + step_rel * max(step_scale, 1e-12)
        pri_ok = rnorm <= eps_pri
        stall = rnorm <= step_tol and step <= step_tol
        balance = it % ADAPT_EVERY == 0
        if not (pri_ok or stall or balance or it == max_iter):
            continue
        # the dual residual and its scale, only where they are read
        if ls:
            snorm = rho * _norm(D.adjoint(ds))
            dual_scale = max(rho * _norm(D.adjoint(u)),
                             _norm(Xty2 - XtX2 @ beta))
        else:
            rho_d = rho * c_ratio
            snorm = _norm(rho * (Xt @ ds[:n]) + rho_d * D.adjoint(ds[n:]))
            dual_scale = max(rho * _norm(Xt @ u[:n]),
                             rho_d * _norm(D.adjoint(u[n:])))
        eps_dual = abs_dual + tol_rel * dual_scale
        stop = (pri_ok and snorm <= eps_dual) or stall
        if separable and (stop or balance or it == max_iter):
            # the certified finish: polish the mirror's pattern, keep the
            # polished point if it beats the incumbent, and stop once the
            # incumbent's gap to the best dual bound is within tol_rel
            b = polish(s)
            if b is not None:
                resid, db = y - X @ b, D.apply(b)
                obj = _merit(spec, kappa, resid, db, p)
                if obj < best:
                    best, best_beta, best_zd = obj, b, db
                    trace[-1] = best
            else:
                # a singular reduced system: bound from the incumbent
                resid = y - X @ best_beta
            best_dual = max(best_dual, dual(resid))
            gap = (best - best_dual) / max(1.0, best)
            if gap <= tol_rel:
                converged = True
                break
        if stop:
            # a separable fit is converged only on its certificate
            converged = not separable
            break

        if balance:
            new_rho = rho
            if rnorm > 10.0 * snorm and rnorm > eps_pri:
                new_rho = min(rho * 2.0, RHO_MAX * rho_scale)
            elif snorm > 10.0 * rnorm and snorm > eps_dual:
                new_rho = max(rho / 2.0, RHO_MIN * rho_scale)
            if new_rho != rho:
                u = u * (rho / new_rho)
                if ls:
                    solve = _factorize(XtX2 + new_rho * gram_d)
                rho = new_rho
                lo, hi, kappa_rho = thresholds(rho)

    return _assemble(design, cfg, best_beta, trace, best_zd, gap, rnorm,
                     snorm, "admm", converged, it)


def _best_levels(t: np.ndarray, w: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Along the last axis, a minimizer v of sum_i w_i rho_{tau_i}(t_i - v).

    That sum is convex and piecewise linear in v with kinks at the t_i; its
    slope just above the k-th smallest t is sum_{i<=k} w_i (1 - tau_i) -
    sum_{i>k} w_i tau_i, and the first kink where it turns nonnegative is a
    minimizer (a weighted quantile).
    """
    order = np.argsort(t, axis=-1, kind="stable")
    # 2-D arrays are gathered row by row, 1-D ones directly
    rows = (np.arange(t.shape[0])[:, None],) if t.ndim == 2 else ()
    t, w, tau = (a[rows + (order,)] for a in (t, w, tau))
    up = np.cumsum(w * (1.0 - tau), axis=-1)
    down = (w * tau).sum(axis=-1, keepdims=True) - np.cumsum(w * tau, axis=-1)
    first = np.argmax(up >= down, axis=-1)
    return t[tuple(r[:, 0] for r in rows) + (first,)]


def _fused_diffs(design: GroupedDesign, spec: ProblemSpec, cfg: SolverConfig,
                 kappa: np.ndarray, beta: np.ndarray, bound: float,
                 objective) -> np.ndarray:
    """D b of a point b with fewer differences, within ``tol_rel`` of ``bound``.

    An LP-shaped fit's exact optimum ``beta`` often keeps differences that
    cost less than ``tol_rel`` of the objective to fuse: differences that a
    fit at that tolerance cannot tell from zero.  Its penalty is
    sum_j kappa_j sum_k |b_jk - b_(j-1)k|, so one coordinate k of a run of
    groups can move to a common level v, with everything else fixed, by a
    weighted quantile (:func:`_best_levels`) of the residuals' ratios and
    the two neighbours' levels.  Starting at ``beta``, each round merges,
    in one coordinate, the two runs beside the difference whose merger
    costs least, re-levels the runs of that coordinate one at a time, and
    keeps the result while its certified relative gap
    (F(b) - bound) / max(1, F(b)) stays within ``tol_rel``, F being
    ``objective`` of the flat coefficients.  Every kept round merges two
    runs, so there are at most as many rounds as difference rows.
    """
    X, y, tau = design.X, design.y, spec.tau
    n, g, p = design.n, design.g, design.p
    D = DiffOperator(g, p)
    B = beta.reshape(g, p).copy()
    Xg = X.reshape(n, g, p)
    # prefix sums over groups of each coordinate's columns
    CX = np.zeros((n, g + 1, p))
    np.cumsum(Xg, axis=1, out=CX[:, 1:])
    pad_k = np.concatenate(([0.0], kappa, [0.0]))

    def prefix(bk, k):
        """Prefix sums over groups of coordinate k's share of X b."""
        cxb = np.zeros((n, g + 1))
        np.cumsum(Xg[:, :, k] * bk, axis=1, out=cxb[:, 1:])
        return cxb

    def relevel(bk, cxb, resid, k, a0, a1):
        """(v, cost, residuals): the best common level of coordinate k on
        groups a0[i]..a1[i]-1, the objective change and new residuals.

        ``cxb`` needs to be current only inside the runs.
        """
        x = (CX[:, a1, k] - CX[:, a0, k]).T
        rb = resid + (cxb[:, a1] - cxb[:, a0]).T
        nz = x != 0.0
        ratio = np.divide(rb, x, out=np.zeros_like(rb), where=nz)
        # the neighbours' levels enter as kappa |c - v| = 2 kappa rho_1/2
        left = bk[np.maximum(a0 - 1, 0)]
        right = bk[np.minimum(a1, g - 1)]
        t = np.concatenate((ratio, left[:, None], right[:, None]), axis=1)
        w = np.concatenate((np.abs(x), 2.0 * pad_k[a0, None],
                            2.0 * pad_k[a1, None]), axis=1)
        tt = np.concatenate((np.where(x > 0.0, tau, 1.0 - tau),
                             np.full((a0.size, 2), 0.5)), axis=1)
        v = _best_levels(t, w, tt)
        new = rb - x * v[:, None]
        pen = np.concatenate(([0.0], np.cumsum(kappa * np.abs(np.diff(bk)))))
        lo, hi = np.maximum(a0 - 1, 0), np.minimum(a1, g - 1)
        cost = ((new * (tau - (new < 0))).sum(axis=1)
                - float((resid * (tau - (resid < 0))).sum())
                + pad_k[a0] * np.abs(v - left) + pad_k[a1] * np.abs(right - v)
                - (pen[hi] - pen[lo]))
        return v, cost, new

    # buffers of the one-run pass: the ratios and the two neighbours' levels,
    # their weights and their check levels, and the penalty's prefix sums
    t1, w1, tt1 = np.empty(n + 2), np.empty(n + 2), np.full(n + 2, 0.5)
    pen1 = np.zeros(g)

    def penalty_sums(bk):
        """Prefix sums over groups of one coordinate's penalty terms."""
        np.cumsum(kappa * np.abs(bk[1:] - bk[:-1]), out=pen1[1:])
        return pen1

    def relevel_run(bk, cxb, resid, k, a0, a1, pen, base):
        """:func:`relevel` of one run in 1-D arithmetic, in the same order.

        ``pen`` is :func:`penalty_sums` of ``bk`` and ``base`` the check
        sum of ``resid``; returns (v, cost, residuals, their check sum).
        """
        x = CX[:, a1, k] - CX[:, a0, k]
        rb = resid + (cxb[:, a1] - cxb[:, a0])
        t1[:n] = 0.0
        np.divide(rb, x, out=t1[:n], where=x != 0.0)
        lo, hi = max(a0 - 1, 0), min(a1, g - 1)
        left, right = float(bk[lo]), float(bk[hi])
        t1[n], t1[n + 1] = left, right
        np.abs(x, out=w1[:n])
        w1[n], w1[n + 1] = 2.0 * pad_k[a0], 2.0 * pad_k[a1]
        tt1[:n] = np.where(x > 0.0, tau, 1.0 - tau)
        v = float(_best_levels(t1, w1, tt1))
        new = rb - x * v
        loss = float((new * (tau - (new < 0))).sum())
        cost = (loss - base + float(pad_k[a0]) * abs(v - left)
                + float(pad_k[a1]) * abs(right - v) - float(pen[hi] - pen[lo]))
        return v, cost, new, loss

    def runs(Bv, k):
        """Start of each run of coordinate k, with g appended."""
        thresh = detection.fusion_thresholds(Bv, cfg.fusion_tol)
        jumps = np.flatnonzero(np.abs(np.diff(Bv[:, k])) > thresh)
        return np.concatenate(([0], jumps + 1, [g]))

    resid = y - X @ B.ravel()
    for _ in range(D.rows):
        best = None
        for k in range(p):
            starts = runs(B, k)
            if starts.size < 3:
                continue
            a0, a1 = starts[:-2], starts[2:]
            v, cost, new = relevel(B[:, k], prefix(B[:, k], k), resid, k,
                                   a0, a1)
            i = int(np.argmin(cost))
            if best is None or cost[i] < best[0]:
                best = (cost[i], k, a0[i], a1[i], v[i], new[i])
        if best is None:
            break
        _, k, a0, a1, v, new = best
        trial = B.copy()
        trial[a0:a1, k] = v
        starts = runs(trial, k)
        # re-levelling one run leaves the others' sums of X b as they were
        cxb = prefix(trial[:, k], k)
        pen = penalty_sums(trial[:, k])
        base = float((new * (tau - (new < 0))).sum())
        for a0, a1 in zip(starts[:-1].tolist(), starts[1:].tolist()):
            v, cost, new_r, loss = relevel_run(trial[:, k], cxb, new, k, a0,
                                               a1, pen, base)
            if cost < 0.0:
                trial[a0:a1, k] = v
                new, base = new_r, loss
                pen = penalty_sums(trial[:, k])
        F = objective(trial.ravel())
        if F - bound > cfg.tol_rel * max(1.0, F):
            break
        B, resid = trial, new
    return D.apply(B.ravel())


def _lp_ipm(design: GroupedDesign, spec: ProblemSpec, cfg: SolverConfig,
            kappa: np.ndarray) -> FitResult:
    """Frisch-Newton interior point for an LP-shaped quantile fit.

    With p = 1 or q = 1 the objective is a weighted L1 regression on the
    rows A = [X; 2 kappa D] (rows with kappa = 0 dropped) and c = [y; 0]:
    the residual rows carry the check loss at tau and the penalty rows at
    1/2.  Its dual is max c'a subject to A'a = 0 and a in the box
    [t - 1, t] (t = tau on residual rows, 1/2 on penalty rows), so every
    box has width 1.  Mehrotra's predictor-corrector runs on the slacks
    d = a - (t - 1) and s = t - a with multipliers z and w, where
    c - A b = w - z; each step solves one normal system A'QA, built in
    closed form, for the coefficients b.  A converged fit reads its
    detected set off :func:`_fused_diffs`, with the best dual bound as the
    certificate.

    A warm start is a coefficient vector, and this route ignores it: it
    always starts cold.
    """
    n, g, p = design.n, design.g, design.p
    X, y, tau = design.X, design.y, spec.tau
    Xt = np.ascontiguousarray(X.T)
    D = DiffOperator(g, p)
    kr = np.repeat(kappa, p)
    keep = np.flatnonzero(kr > 0)
    kk = 2.0 * kr[keep]
    N = n + keep.size
    t = np.concatenate((np.full(n, tau), np.full(keep.size, 0.5)))
    c = np.concatenate((y, np.zeros(keep.size)))

    def objective(b):
        return _merit(spec, kappa, y - X @ b, D.apply(b), p)

    def A(b):
        return np.concatenate((X @ b, kk * D.apply(b)[keep]))

    def At(v):
        vd = np.zeros(D.rows)
        vd[keep] = kk * v[n:]
        return Xt @ v[:n] + D.adjoint(vd)

    def normal(qv, it):
        """A'QA in closed form; raises if it is not finite."""
        wd = np.zeros(D.rows)
        wd[keep] = kk * kk * qv[n:]
        M = Xt @ (qv[:n, None] * X)
        M += D.gram(wd)
        if not np.isfinite(M).all():
            raise SolverError(f"non-finite iterate at iteration {it} "
                              "(normal matrix)")
        return M

    # start: a = 0 (so A'a = 0 exactly) and b the least-squares fit of
    # A b = c, with w - z = c - A b split into positive parts
    d, s = 1.0 - t, t.copy()
    M = normal(np.ones(N), 1)
    # A of deficient rank (lambda = 0 with r > n, say) needs a ridge, which
    # would stall a full-rank fit whose vertex is degenerate
    ridge = 0.0 if _full_rank(M) else IPM_RIDGE
    solve_ls = _refined_solve(M, ridge)
    b = solve_ls(At(c))

    def lower_bound(a):
        """c'a at a certainly feasible dual point made from ``a``.

        ``a`` is projected onto A'a = 0 through the least-squares system,
        then scaled toward 0 (which is feasible) until it lies in the box.
        """
        af = a - A(solve_ls(At(a)))
        over = float(np.maximum(af / t, af / (t - 1.0)).max(initial=0.0))
        return float(y @ af[:n]) / max(1.0, over)

    r = c - A(b)
    w, z = np.maximum(r, 0.0), np.maximum(-r, 0.0)
    # a zero residual would make both multipliers 0 (an all-zero design's
    # penalty rows, say), so residuals that small are lifted off zero
    lift = IPM_START_FLOOR * max(1.0, float(np.abs(r).max()))
    tiny = np.abs(r) < lift
    w[tiny] += lift
    z[tiny] += lift

    best, best_b, best_dual = np.inf, b, -np.inf
    trace, gaps = [], []
    gap = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        qv = 1.0 / (z / d + w / s)
        solve = None  # free the last system before building this one
        solve = _refined_solve(normal(qv, it), ridge)
        r1 = -At(d - (1.0 - t))  # A'a = 0 at a feasible dual point
        r3 = c - A(b) + z - w

        def direction(r4, r5):
            rhat = r3 + r4 / d - r5 / s
            db = solve(At(qv * rhat) - r1)
            dd = qv * (rhat - A(db))
            return db, dd, (r4 - z * dd) / d, (r5 + w * dd) / s

        # predictor: the affine-scaling direction
        db, dd, dz, dw = direction(-d * z, -s * w)
        ap = min(1.0, _max_step(d, dd), _max_step(s, -dd))
        ad = min(1.0, _max_step(z, dz), _max_step(w, dw))
        mu = (d @ z + s @ w) / (2 * N)
        mu_aff = ((d + ap * dd) @ (z + ad * dz)
                  + (s - ap * dd) @ (w + ad * dw)) / (2 * N)
        sm = (mu_aff / mu) ** 3 * mu
        # corrector: centre, and cancel the predictor's second-order term
        db, dd, dz, dw = direction(sm - d * z - dd * dz,
                                   sm - s * w + dd * dw)
        ap = min(1.0, IPM_STEP * min(_max_step(d, dd), _max_step(s, -dd)))
        ad = min(1.0, IPM_STEP * min(_max_step(z, dz), _max_step(w, dw)))
        d = d + ap * dd
        s = s - ap * dd
        b = b + ad * db
        z = z + ad * dz
        w = w + ad * dw

        obj = objective(b)
        if not (math.isfinite(obj) and np.isfinite(d).all()):
            raise SolverError(f"non-finite iterate at iteration {it}")
        if obj < best:
            best, best_b = obj, b
        trace.append(best)
        best_dual = max(best_dual, lower_bound(d - (1.0 - t)))
        gap = (best - best_dual) / max(1.0, best)
        gaps.append(gap)
        if gap <= IPM_GAP_REL:
            break
        # the rounding floor: the gap has stopped falling
        if it > IPM_STALL and gap > 0.5 * gaps[-1 - IPM_STALL]:
            break

    converged = gap <= cfg.tol_rel
    zd = (_fused_diffs(design, spec, cfg, kappa, best_b, best_dual, objective)
          if converged else D.apply(best_b))
    # the equality residuals of the last iterate: A'a and c - A b - (w - z)
    return _assemble(design, cfg, best_b, trace, zd, gap,
                     _norm(At(d - (1.0 - t))), _norm(c - A(b) + z - w), "ipm",
                     converged, it)


def fit(design: GroupedDesign, spec: ProblemSpec,
        cfg: SolverConfig | None = None) -> FitResult:
    """Compute a fused-group estimate for ``spec`` on ``design``.

    Quantile fits with p = 1 or q = 1 take the LP route, every other fit
    ADMM (see the module docstring); ``FitResult.route`` says which, and
    ``FitResult.duality_gap`` holds the certified relative gap of the LP
    route and of ADMM's LS fits with p = 1 or q = 1.
    Non-convergence within ``max_iter`` is reported via ``converged=False``,
    not raised; a non-finite iterate raises :class:`SolverError` naming the
    iteration.
    """
    if cfg is None:
        cfg = SolverConfig()
    g, p = design.g, design.p
    if spec.weight_mode == "adaptive" and (spec.pilot.g != g or spec.pilot.p != p):
        raise DimensionMismatchError(
            f"pilot shape ({spec.pilot.g}, {spec.pilot.p}) does not match "
            f"design ({g}, {p})"
        )
    ws = cfg.warm_start
    if ws is not None and (ws.g != g or ws.p != p):
        raise DimensionMismatchError(
            f"warm start shape ({ws.g}, {ws.p}) does not match design "
            f"({g}, {p})"
        )
    weights = spec.pair_weights(design.n, g)
    kappa = design.n * spec.lam * weights
    if (kappa < 0).any():
        raise ValueError("kappa must be nonnegative")
    if spec.loss == "quantile" and (p == 1 or spec.q == 1):
        return _lp_ipm(design, spec, cfg, kappa)
    return _admm(design, spec, cfg, kappa)


# ---------------------------------------------------------------------------
# tuning schedules


def default_schedules(n: int, stage: str) -> tuple[float, float]:
    """Default rate-schedule tuning values (lam, b) for sample size ``n``.

    ``stage="fused"`` gives lam = n^-1 (log n)^(1/2); ``stage="adaptive"``
    gives lam = n^-1 (log n)^(5/2).  Both share b = (log n / n)^(1/2).
    """
    if n < 2:
        raise ValueError("schedules need n >= 2")
    ln = np.log(n)
    b = float(np.sqrt(ln / n))
    if stage == "fused":
        return float(np.sqrt(ln) / n), b
    if stage in ("adaptive", "adaptive_fused"):
        return float(ln ** 2.5 / n), b
    raise ValueError(f"unknown stage {stage!r}")
