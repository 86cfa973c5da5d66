"""Core types for grouped linear models.

A model has ``n`` observations of a response ``y`` and ``g`` ordered groups of
``p`` covariates each, stacked column-wise into an ``n x (g*p)`` design.  The
group order carries meaning: penalties act on differences between successive
group coefficient blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, penalties


class DimensionMismatchError(ValueError):
    """Coefficient blocks do not line up with a design's group structure."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GroupedCoefficients:
    """A coefficient vector split into ``g`` ordered blocks of length ``p``."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValueError("need at least one coefficient block")
        blocks = tuple(_readonly(np.atleast_1d(b)) for b in self.blocks)
        p = blocks[0].shape[0]
        for j, b in enumerate(blocks):
            if b.ndim != 1 or b.shape[0] != p:
                raise DimensionMismatchError(
                    f"block {j} has length {b.shape[0] if b.ndim == 1 else b.shape}, "
                    f"expected p={p}"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError(f"block {j} contains non-finite entries")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_flat(cls, flat, g: int, p: int) -> "GroupedCoefficients":
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != g * p:
            raise DimensionMismatchError(
                f"flat vector of length {flat.size} cannot be split into "
                f"g={g} blocks of p={p}"
            )
        if g < 1:
            return cls(())
        # one read-only copy and one finiteness test for all g blocks, whose
        # rows then need none of __post_init__'s per-block checks
        rows = _readonly(flat).reshape(g, p)
        if not np.isfinite(rows).all():
            j = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise ValueError(f"block {j} contains non-finite entries")
        out = object.__new__(cls)
        object.__setattr__(out, "blocks", tuple(rows))
        return out

    @property
    def g(self) -> int:
        return len(self.blocks)

    @property
    def p(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def stacked(self) -> np.ndarray:
        """Blocks as a ``(g, p)`` array."""
        return np.vstack(self.blocks)

    def successive_differences(self) -> np.ndarray:
        """``(g-1, p)`` array of block differences, row ``j`` = block ``j+1`` - block ``j``."""
        s = self.stacked()
        return s[1:] - s[:-1]


@dataclass(frozen=True, eq=False)
class GroupedDesign:
    """Design matrix with contiguous group blocks and a response vector.

    Group ``j`` (0-based) occupies columns ``j*p .. (j+1)*p - 1``.  The
    requirement ``g*p <= n`` is deliberately not enforced; overparameterized
    designs are legal and get flagged in solver diagnostics.
    """

    X: np.ndarray
    y: np.ndarray
    g: int
    p: int

    def __post_init__(self):
        X = _readonly(self.X)
        y = _readonly(self.y)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if y.ndim != 1:
            raise ValueError("y must be a 1-D array")
        if self.g < 1 or self.p < 1:
            raise ValueError("g and p must be positive")
        if X.shape != (y.shape[0], self.g * self.p):
            raise DimensionMismatchError(
                f"X has shape {X.shape}, expected ({y.shape[0]}, {self.g * self.p}) "
                f"for g={self.g}, p={self.p}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite or missing entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def r(self) -> int:
        """Total number of parameters, g*p."""
        return self.g * self.p


def check_shapes(design: GroupedDesign, beta: GroupedCoefficients) -> None:
    """Raise :class:`DimensionMismatchError` naming the offending block."""
    if beta.g != design.g:
        raise DimensionMismatchError(
            f"coefficients have {beta.g} blocks, design has g={design.g}"
        )
    # every block has length beta.p, so block 0 stands for all of them
    if beta.p != design.p:
        raise DimensionMismatchError(
            f"block 0 has length {beta.p}, design has p={design.p}"
        )


@dataclass(frozen=True)
class ProblemSpec:
    """What to minimize: loss family, penalty norm, tuning value, weight mode.

    Parameters
    ----------
    loss:
        ``"ls"`` for squared error or ``"quantile"`` for the check loss.
    tau:
        Quantile level in (0, 1); ignored for the LS loss.
    q:
        Norm index of the per-pair difference penalty, 1 or 2.
    lam:
        Finite, nonnegative tuning parameter in user units; the objective
        applies the extra factor ``n`` internally, so ``lam`` stays in
        rate-schedule units.
    weight_mode:
        ``"uniform"`` (all pair weights 1) or ``"adaptive"`` (weights built
        from a pilot estimate, see :func:`groupfuse.penalties.adaptive_weights`).
    gamma:
        Exponent of the adaptive weights; must be finite, and positive for
        adaptive weights.
    pilot:
        Pilot coefficient estimate; required when ``weight_mode="adaptive"``.
    """

    loss: str = "ls"
    tau: float = 0.5
    q: int = 2
    lam: float = 0.0
    weight_mode: str = "uniform"
    gamma: float = 1.0
    pilot: GroupedCoefficients | None = None

    def __post_init__(self):
        if self.loss not in ("ls", "quantile"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss == "quantile" and not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.q not in (1, 2):
            raise ValueError(f"penalty norm index q must be 1 or 2, got {self.q}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(
                f"lam must be finite and nonnegative, got {self.lam}")
        if self.weight_mode not in ("uniform", "adaptive"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.weight_mode == "adaptive":
            if self.gamma <= 0:
                raise ValueError("gamma must be positive for adaptive weights")
            if self.pilot is None:
                raise ValueError("adaptive weights require a pilot estimate")

    def pair_weights(self, n: int, g: int) -> np.ndarray:
        """Length-(g-1) positive weights for the successive-difference pairs."""
        if self.weight_mode == "uniform":
            return np.ones(max(g - 1, 0))
        if self.pilot.g != g:
            raise DimensionMismatchError(
                f"pilot has {self.pilot.g} blocks, design has g={g}"
            )
        return penalties.adaptive_weights(self.pilot, n, self.gamma)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Everything a fused-group fit reports.

    ``detected_set`` holds the 1-based pair labels ``j`` in {2..g} for which
    block ``j`` differs from block ``j-1`` under the fusion tolerance, read
    off the difference mirror on ADMM (for a polished LS point, its own
    differences) and, on a converged LP-route fit, off a point within
    ``tol_rel`` of the optimum that fuses the differences the tolerance
    cannot resolve.
    ``objective_trace`` records, per outer iteration, the objective of the
    best (incumbent) point seen so far; ``beta`` is that incumbent, so the
    trace is non-increasing and ends at its minimum.  A warm start is a
    coefficient vector, so the trace starts at the fit's own first iterate,
    and ``beta`` carries nothing but its values: a fit warm-started at
    ``beta`` and one warm-started at a copy of it are the same.  ``route``
    names the solver route, ``"ipm"`` (the interior-point LP route of
    quantile fits with p = 1 or q = 1) or ``"admm"``.  ``duality_gap`` is
    the certified relative gap of ``beta``,
    (objective - dual bound) / max(1, objective), on the LP route and on
    ADMM's LS fits with p = 1 or q = 1; it is None on the other ADMM fits
    (q = 2, p > 1).  ``converged`` means
    gap <= ``tol_rel`` wherever a gap is certified (the LP route and
    separable LS fits), and on the other ADMM fits that the residual or
    step-stall rule was met.
    ``primal_residual`` and ``dual_residual`` are the last iteration's
    stopping residuals on ADMM, and the equality residuals of the last
    interior-point iterate (A'a and c - A b - (w - z)) on the LP route.
    """

    beta: GroupedCoefficients
    detected_set: tuple[int, ...]
    objective_trace: tuple[float, ...]
    converged: bool
    iterations: int
    primal_residual: float
    dual_residual: float
    overparameterized: bool = False
    route: str = "admm"
    duality_gap: float | None = None

    def __post_init__(self):
        g = self.beta.g
        for j in self.detected_set:
            if not 2 <= j <= g:
                raise ValueError(f"detected pair label {j} outside 2..{g}")

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def loss_value(residuals: np.ndarray, spec: ProblemSpec) -> float:
    """Unpenalized loss of a residual vector under ``spec``."""
    residuals = np.asarray(residuals, dtype=float)
    if spec.loss == "quantile":
        return float(np.sum(losses.check_value(residuals, spec.tau)))
    return float(np.sum(residuals ** 2))


def objective(design: GroupedDesign, spec: ProblemSpec,
              beta: GroupedCoefficients) -> float:
    """Penalized objective: loss plus ``n * lam * sum_j w_j ||b_j - b_{j-1}||_q``.

    At g = 1 there are no pairs and the penalty is an empty sum, 0.
    """
    check_shapes(design, beta)
    n = design.n
    resid = design.y - design.X @ beta.flat
    weights = spec.pair_weights(n, design.g)
    norms = penalties.block_norms(beta.successive_differences(), spec.q)
    return loss_value(resid, spec) + float(n * spec.lam * (weights @ norms))
