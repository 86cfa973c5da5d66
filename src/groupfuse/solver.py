"""Convex solver for fused-group regression.

Minimizes  loss(y - X b) + n * lam * sum_{j=2}^g w_j ||b_j - b_{j-1}||_q
by operator splitting (ADMM) on the successive-difference operator D.

One loop serves both losses.  For the LS loss the quadratic is absorbed
exactly into the b-update and only the difference blocks are mirrored
(z = D b); for the quantile loss a second mirror carries the residuals so
the check function enters through its exact prox.  The two constraint
blocks of the quantile loss run at different augmented-Lagrangian rates
(rho for the residuals, c * rho for the differences, c set from the penalty
scale), which keeps the dual variables O(1) even when the per-pair penalty
weights are large; the ratio c is fixed per fit so the cached factorization
of the b-update system survives residual-balancing changes to rho.

The recorded merit per outer iteration is the true objective of the
incumbent (best-so-far) iterate, which is also what gets returned.

The default tuning schedules live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import detection, penalties
from .model import (DimensionMismatchError, FitResult, GroupedCoefficients,
                    GroupedDesign, ProblemSpec)
from .losses import prox_check

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
    splitting state and restart at the fixed point.

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
    """Full splitting state attached to solver output for exact restarts."""

    zr: np.ndarray | None
    zd: np.ndarray
    ur: np.ndarray | None
    ud: np.ndarray
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        B = np.asarray(v).reshape(self.g, self.p)
        return (B[1:] - B[:-1]).ravel()

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        Dm = np.asarray(d).reshape(self.g - 1, self.p)
        out = np.zeros((self.g, self.p))
        out[:-1] -= Dm
        out[1:] += Dm
        return out.ravel()

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
    try:
        chol = scipy.linalg.cho_factor(M)
        return lambda rhs: scipy.linalg.cho_solve(chol, rhs)
    except scipy.linalg.LinAlgError:
        # singular system (e.g. an all-zero design); the minimum-norm
        # solution still minimizes the b-subproblem
        pinv = np.linalg.pinv(M)
        return lambda rhs: pinv @ rhs


def _problem_key(design: GroupedDesign, spec: ProblemSpec,
                 kappa: np.ndarray) -> tuple:
    return (spec.loss, spec.tau if spec.loss == "quantile" else None,
            spec.q, design.n, design.g, design.p,
            float(kappa.sum()), float(kappa.max(initial=0.0)))


class _Incumbent:
    """Track the best true objective and the iterate that achieved it."""

    def __init__(self):
        self.obj = np.inf
        self.beta = None
        self.zd = None
        self.trace: list[float] = []

    def seed(self, obj: float, beta: np.ndarray, zd: np.ndarray) -> None:
        self.obj = obj
        self.beta = beta.copy()
        self.zd = zd.copy()

    def update(self, obj: float, beta: np.ndarray, zd: np.ndarray) -> None:
        if obj < self.obj:
            self.obj = obj
            self.beta = beta.copy()
            self.zd = zd.copy()
        self.trace.append(self.obj)


def _assemble(design, cfg, inc: _Incumbent, state: _WarmState,
              converged: bool, iterations: int, rnorm: float,
              snorm: float) -> FitResult:
    g, p = design.g, design.p
    beta_gc = GroupedCoefficients.from_flat(inc.beta, g, p)
    object.__setattr__(beta_gc, "_warm_state", state)
    detected = detection.detect_from_diffs(
        inc.zd.reshape(g - 1, p) if g > 1 else np.zeros((0, p)),
        beta_gc.stacked(), cfg.fusion_tol)
    return FitResult(
        beta=beta_gc,
        detected_set=tuple(detected),
        objective_trace=tuple(inc.trace),
        converged=converged,
        iterations=iterations,
        primal_residual=float(rnorm),
        dual_residual=float(snorm),
        overparameterized=design.r > design.n,
    )


def _warm_arrays(cfg, key, design: GroupedDesign, D: DiffOperator,
                 need_zr: bool):
    """Initial (beta0, zr, zd, ur, ud, rho, donor) from the warm-start field.

    A full state of matching shape restarts the splitting where it stopped;
    otherwise the mirrors start at the warm coefficients (or at zero) with
    zero duals.  The residual mirror (zr, ur) exists only if ``need_zr``.
    ``rho`` is None unless the state is of this very problem; ``donor`` is
    that state when it was converged, enabling restart acceptance at the
    residual levels already accepted once.
    """
    n, md = design.n, D.rows
    ws = cfg.warm_start
    beta0 = None if ws is None else ws.flat
    state = getattr(ws, "_warm_state", None)
    if state is not None and state.zd.shape == (md,) and \
            (not need_zr or (state.zr is not None and state.zr.shape == (n,))):
        same_problem = state.problem_key == key
        rho = min(max(state.rho, RHO_MIN), RHO_MAX) if same_problem else None
        donor = state if same_problem and state.converged else None
        zr = state.zr.copy() if need_zr else None
        ur = state.ur.copy() if need_zr else None
        return beta0, zr, state.zd.copy(), ur, state.ud.copy(), rho, donor
    zd = np.zeros(md) if beta0 is None else D.apply(beta0)
    zr = ur = None
    if need_zr:
        zr = design.y.copy() if beta0 is None else design.y - design.X @ beta0
        ur = np.zeros(n)
    return beta0, zr, zd, ur, np.zeros(md), None, None


def _accepts(rnorm, snorm, eps_pri, eps_dual, donor) -> bool:
    if rnorm <= eps_pri and snorm <= eps_dual:
        return True
    # restarting from a converged state of the same problem: accept residual
    # levels comparable to the ones already accepted at that state
    if donor is not None:
        return (rnorm <= max(eps_pri, 2.0 * donor.stop_primal)
                and snorm <= max(eps_dual, 2.0 * donor.stop_dual))
    return False


def _admm(design: GroupedDesign, spec: ProblemSpec, cfg: SolverConfig,
          kappa: np.ndarray) -> FitResult:
    """The splitting loop for either loss.

    The losses differ only in the setup, the b-update right-hand side, the
    residual mirror (zr, ur) of the check loss, the stopping norms and the
    rescale on a rho change; the rest is shared.
    """
    n, g, p = design.n, design.g, design.p
    X, y = design.X, design.y
    Xt = np.ascontiguousarray(X.T)
    D = DiffOperator(g, p)
    md = D.rows
    ls = spec.loss == "ls"
    tau = spec.tau
    key = _problem_key(design, spec, kappa)
    gram_d = D.gram()
    kappa_med = float(np.median(kappa)) if md else 0.0
    if ls:
        # the b-update system carries the difference rate, so balancing
        # refactorizes it; large penalty weights need a comparable rate or
        # the difference duals crawl, and the data-scale factor keeps rho
        # dimensionless
        rho_scale, c_ratio = max(1.0, kappa_med), 1.0
        sqrt_pri = np.sqrt(max(md, 1))
        XtX2, Xty2 = 2.0 * (Xt @ X), 2.0 * (Xt @ y)
    else:
        # rate ratio between the difference and residual blocks: the check
        # subgradients are O(1) while the difference duals are O(kappa)
        rho_scale = 1.0
        c_ratio = max(1.0, kappa_med / max(tau, 1.0 - tau))
        sqrt_pri = np.sqrt(n + md)
        norm_y = np.linalg.norm(y)
        solve = _factorize(Xt @ X + c_ratio * gram_d)
    sqrt_dual = np.sqrt(g * p)

    beta0, zr, zd, ur, ud, rho, donor = _warm_arrays(cfg, key, design, D,
                                                     need_zr=not ls)
    if rho is None:
        rho = RHO_INIT * rho_scale
    if ls:
        solve = _factorize(XtX2 + rho * gram_d)

    def merit(resid, Db):
        pen = float(kappa @ penalties.block_norms(
            Db.reshape(g - 1, p), spec.q)) if md else 0.0
        if ls:
            return float(resid @ resid) + pen
        return float(np.sum(resid * (tau - (resid < 0)))) + pen

    inc = _Incumbent()
    if beta0 is not None:
        # never return anything worse than the starting point
        Db0 = D.apply(beta0)
        inc.seed(merit(y - X @ beta0, Db0), beta0, Db0)
    alpha = OVER_RELAX
    converged = False
    rnorm = snorm = 0.0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        rho_d = rho * c_ratio
        if ls:
            rhs = Xty2 + rho * D.adjoint(zd - ud)
        else:
            rhs = Xt @ (y - zr - ur) + c_ratio * D.adjoint(zd - ud)
        beta = solve(rhs)
        if not np.all(np.isfinite(beta)):
            raise SolverError(f"non-finite iterate at iteration {it}")
        Xb = X @ beta
        Db = D.apply(beta)
        Db_r = alpha * Db + (1.0 - alpha) * zd
        zd_old = zd
        if md:
            zd = penalties.prox_block_norms(
                (Db_r + ud).reshape(g - 1, p), kappa / rho_d, spec.q).ravel()
        ud = ud + (Db_r - zd)
        dzd = zd - zd_old
        if not ls:
            Xb_r = alpha * Xb + (1.0 - alpha) * (y - zr)
            zr_old = zr
            zr = prox_check(y - Xb_r - ur, 1.0 / rho, tau)
            ur = ur + (Xb_r + zr - y)
            dzr = zr - zr_old
        inc.update(merit(y - Xb, Db), beta, zd)

        if ls:
            rnorm = np.linalg.norm(Db - zd)
            snorm = rho * np.linalg.norm(D.adjoint(dzd))
            step = np.linalg.norm(dzd)
            pri_scale = step_scale = max(np.linalg.norm(Db),
                                         np.linalg.norm(zd))
            dual_scale = max(rho * np.linalg.norm(D.adjoint(ud)),
                             np.linalg.norm(Xty2 - XtX2 @ beta))
        else:
            pri_r, pri_d = Xb + zr - y, Db - zd
            rnorm = np.sqrt(pri_r @ pri_r + pri_d @ pri_d)
            snorm = np.linalg.norm(rho * (Xt @ dzr) - rho_d * D.adjoint(dzd))
            step = np.sqrt(dzr @ dzr + dzd @ dzd)
            step_scale = max(np.sqrt(zr @ zr + zd @ zd), norm_y)
            pri_scale = max(np.sqrt(Xb @ Xb + Db @ Db), step_scale)
            dual_scale = max(rho * np.linalg.norm(Xt @ ur),
                             rho_d * np.linalg.norm(D.adjoint(ud)))
        eps_pri = sqrt_pri * cfg.tol_abs + cfg.tol_rel * pri_scale
        eps_dual = sqrt_dual * cfg.tol_abs + cfg.tol_rel * dual_scale
        step_tol = sqrt_pri * cfg.tol_abs + \
            0.1 * cfg.tol_rel * max(step_scale, 1e-12)
        if _accepts(rnorm, snorm, eps_pri, eps_dual, donor) or \
                (rnorm <= step_tol and step <= step_tol):
            converged = True
            break

        if it % ADAPT_EVERY == 0:
            new_rho = rho
            if rnorm > 10.0 * snorm and rnorm > eps_pri:
                new_rho = min(rho * 2.0, RHO_MAX * rho_scale)
            elif snorm > 10.0 * rnorm and snorm > eps_dual:
                new_rho = max(rho / 2.0, RHO_MIN * rho_scale)
            if new_rho != rho:
                ud = ud * (rho / new_rho)
                if ls:
                    solve = _factorize(XtX2 + new_rho * gram_d)
                else:
                    ur = ur * (rho / new_rho)
                rho = new_rho

    state = _WarmState(zr=zr, zd=zd, ur=ur, ud=ud, rho=rho,
                       problem_key=key, stop_primal=float(rnorm),
                       stop_dual=float(snorm), converged=converged)
    return _assemble(design, cfg, inc, state, converged, it, rnorm, snorm)


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
