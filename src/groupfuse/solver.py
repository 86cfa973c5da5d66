"""Convex solver for fused-group regression.

Minimizes  loss(y - X b) + n * lam * sum_{j=2}^g w_j ||b_j - b_{j-1}||_q
by operator splitting (ADMM) on the successive-difference operator D.

One loop serves both losses.  The constraint A b = s is held as one
stacked mirror s and one stacked scaled dual u.  For the quantile loss
A = [X; D] and s = [y - zr; zd], so the residuals zr enter through the
exact check prox; for the LS loss the quadratic is absorbed exactly into
the b-update and only the difference block exists (A = D, s = zd).
Over-relaxation, the dual update, the primal residual and the step are
then one vector operation each, and [X b; D b] is written into one buffer.

Which prox runs: when the penalty is separable (p = 1 or q = 1), the soft
threshold is the check prox at tau = 1/2 with twice the step, so the whole
mirror's prox is one entrywise clip, s = v + clip(c - v, lo, hi) with
c = [y; 0] and bounds rebuilt only when rho changes.  For q = 2 and p > 1
the residual block is clipped and the difference block goes through the
row-wise block prox ``penalties.prox_block_norms``.

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

The b-update system is inverted once (for the LS loss, again whenever
balancing changes rho), after a Cholesky factorization has confirmed it is
positive definite, and every iteration solves by one product with the
cached inverse.

The recorded merit per outer iteration is the true objective of the
incumbent (best-so-far) iterate, which is also what gets returned; a
non-finite merit raises :class:`SolverError` naming the iteration.

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


class SolverError(RuntimeError):
    """Hard numerical failure inside the splitting loop."""


@dataclass(frozen=True)
class SolverConfig:
    """Splitting-solver knobs.

    ``tol_abs``/``tol_rel`` feed the standard primal/dual residual stopping
    rule, and ``fusion_tol`` is the post-hoc threshold used to read the
    detected difference set off the solution.  ``warm_start`` accepts any
    coefficient vector; vectors returned by :func:`fit` carry the full
    splitting state, restart at the fixed point, and the restart never
    returns anything worse than them (a returned start keeps the detected
    set its fit reported).  A plain vector is only a starting point.  Only
    a restart on the same design (the same ``GroupedDesign`` object) with
    the same loss, tau, q and pair weights also resumes the returned rate
    and accepts the residual levels that fit stopped at.

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
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.fusion_tol < 0:
            raise ValueError("fusion_tol must be nonnegative")


@dataclass(frozen=True, eq=False)
class _WarmState:
    """Full splitting state attached to solver output for exact restarts.

    ``s`` and ``u`` are the stacked mirror and scaled dual: residual block
    first (quantile loss only), then the difference block.  ``best_zd`` is
    the difference block the fit read its detected set from.
    """

    s: np.ndarray
    u: np.ndarray
    best_zd: np.ndarray
    rho: float
    problem_key: tuple
    stop_primal: float
    stop_dual: float
    converged: bool


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

    def gram(self) -> np.ndarray:
        """D'D in closed form: the path-graph Laplacian (x) I_p."""
        G = np.zeros((self.cols, self.cols))
        i = np.arange(self.rows)
        # difference row i pairs column i with column i + p
        G[i, i] += 1.0
        G[i + self.p, i + self.p] += 1.0
        G[i, i + self.p] = G[i + self.p, i] = -1.0
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


def _problem_key(design: GroupedDesign, spec: ProblemSpec,
                 kappa: np.ndarray) -> tuple:
    # GroupedDesign compares by identity, so the key names this very data
    return (design, spec.loss,
            spec.tau if spec.loss == "quantile" else None, spec.q,
            kappa.tobytes())


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


def _assemble(design, cfg, beta, trace, state: _WarmState,
              iterations: int) -> FitResult:
    g, p = design.g, design.p
    beta_gc = GroupedCoefficients.from_flat(beta, g, p)
    object.__setattr__(beta_gc, "_warm_state", state)
    detected = detection.detect_from_diffs(
        state.best_zd.reshape(g - 1, p), beta_gc.stacked(), cfg.fusion_tol)
    return FitResult(
        beta=beta_gc,
        detected_set=tuple(detected),
        objective_trace=tuple(trace),
        converged=state.converged,
        iterations=iterations,
        primal_residual=state.stop_primal,
        dual_residual=state.stop_dual,
        overparameterized=design.r > design.n,
    )


def _warm_arrays(cfg, key, design: GroupedDesign, D: DiffOperator,
                 need_zr: bool):
    """Initial (beta0, zd0, s, u, rho, donor) from the warm-start field.

    A full state of matching shape restarts the splitting where it stopped
    (an LS fit takes the difference block of any state); otherwise the
    mirror starts at A b for the warm coefficients b (or at zero) with a
    zero dual.  The residual block exists only if ``need_zr``.  ``zd0`` is
    the difference block the warm start's own fit read its detected set
    from, None for a plain vector, which carries no state.  ``rho`` is
    None unless the state is of this very problem; ``donor`` is that state
    when it was converged, enabling restart acceptance at the residual
    levels already accepted once.
    """
    m = D.rows + (design.n if need_zr else 0)
    ws = cfg.warm_start
    beta0 = None if ws is None else ws.flat
    state = getattr(ws, "_warm_state", None)
    zd0 = None if state is None else state.best_zd
    if state is not None and (not need_zr or state.s.size == m):
        same_problem = state.problem_key == key
        rho = min(max(state.rho, RHO_MIN), RHO_MAX) if same_problem else None
        donor = state if same_problem and state.converged else None
        # iterates are never written in place, so the state is shared
        k = state.s.size - m
        return beta0, zd0, state.s[k:], state.u[k:], rho, donor
    if beta0 is None:
        s = np.zeros(m)
    elif need_zr:
        s = np.concatenate((design.X @ beta0, D.apply(beta0)))
    else:
        s = D.apply(beta0)
    return beta0, zd0, s, np.zeros(m), None, None


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float array is exactly sqrt(v.dot(v))
    return math.sqrt(v @ v)


def _admm(design: GroupedDesign, spec: ProblemSpec, cfg: SolverConfig,
          kappa: np.ndarray) -> FitResult:
    """The splitting loop for either loss.

    The constraint A b = s stacks the residual block X b (quantile loss
    only) on the difference block D b, so the over-relaxation, the dual
    update, the primal residual and the step are one operation each on
    the stacked mirror s and dual u.  The losses differ only in the setup,
    the b-update right-hand side, the stopping scales, the dual residual
    and the refactorization on a rho change (LS only).  Everything that
    depends only on rho (the prox thresholds) is computed when rho
    changes, and the dual residual only where the stopping test or
    balancing reads it.
    """
    n, g, p = design.n, design.g, design.p
    X, y = design.X, design.y
    Xt = np.ascontiguousarray(X.T)
    D = DiffOperator(g, p)
    md = D.rows
    ls = spec.loss == "ls"
    tau, q = spec.tau, spec.q
    if (kappa < 0).any():
        raise ValueError("kappa must be nonnegative")
    # a separable penalty is proxed with the residuals by one clip
    separable = p == 1 or q == 1
    max_iter, tol_rel = cfg.max_iter, cfg.tol_rel
    key = _problem_key(design, spec, kappa)
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
        # a separable penalty's thresholds join the residuals' in the clip
        clipped = kappa_rho if separable else kappa_rho[:0]
        lo, hi = _clip_bounds(1.0 / rho, tau, clipped, off, p)
        return lo, hi, kappa_rho

    def merit(resid, Db):
        pen = float(kappa @ penalties.block_norms(Db.reshape(g - 1, p), q))
        if ls:
            return float(resid @ resid) + pen
        return float((resid * (tau - (resid < 0))).sum()) + pen

    beta0, zd0, s, u, rho, donor = _warm_arrays(cfg, key, design, D,
                                                need_zr=not ls)
    if rho is None:
        rho = RHO_INIT * rho_scale
    if ls:
        solve = _factorize(XtX2 + rho * gram_d)
    lo, hi, kappa_rho = thresholds(rho)
    # the incumbent: every iterate is a fresh array, so it keeps references
    best, best_beta, best_zd, trace = np.inf, None, None, []
    if zd0 is not None:
        # never return anything worse than a vector that fit returned; D b0
        # is never exactly fused, so its detected set is the one its fit read
        best = merit(y - X @ beta0, D.apply(beta0))
        best_beta, best_zd = beta0, zd0
    # restarting from a converged state of the same problem: accept
    # residual levels comparable to the ones already accepted at that state
    pri_floor = 2.0 * donor.stop_primal if donor is not None else 0.0
    dual_floor = 2.0 * donor.stop_dual if donor is not None else 0.0
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
        obj = merit(resid, Db)
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
        pri_ok = rnorm <= max(eps_pri, pri_floor)
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
        if (pri_ok and snorm <= max(eps_dual, dual_floor)) or stall:
            converged = True
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

    state = _WarmState(s=s, u=u, best_zd=best_zd, rho=rho,
                       problem_key=key, stop_primal=float(rnorm),
                       stop_dual=float(snorm), converged=converged)
    return _assemble(design, cfg, best_beta, trace, state, it)


def fit(design: GroupedDesign, spec: ProblemSpec,
        cfg: SolverConfig | None = None) -> FitResult:
    """Compute a fused-group estimate for ``spec`` on ``design``.

    Returns a :class:`FitResult` whose objective is within solver tolerance
    of the global minimum (the problem is convex).  Non-convergence within
    ``max_iter`` is reported via ``converged=False``, not raised; NaNs in
    the iterates raise :class:`SolverError` naming the iteration.
    """
    if cfg is None:
        cfg = SolverConfig()
    g, p = design.g, design.p
    if spec.weight_mode == "adaptive" and (spec.pilot.g != g or spec.pilot.p != p):
        raise DimensionMismatchError(
            f"pilot shape ({spec.pilot.g}, {spec.pilot.p}) does not match "
            f"design ({g}, {p})"
        )
    if cfg.warm_start is not None and (cfg.warm_start.g != g
                                       or cfg.warm_start.p != p):
        raise DimensionMismatchError(
            f"warm start shape ({cfg.warm_start.g}, {cfg.warm_start.p}) "
            f"does not match design ({g}, {p})"
        )
    weights = spec.pair_weights(design.n, g)
    kappa = design.n * spec.lam * weights
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
