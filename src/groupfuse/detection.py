"""Turn fitted coefficients into detected difference sets and score them.

Pair labels are 1-based and follow the convention that label ``j`` in
{2..g} marks a difference between group ``j`` and group ``j-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GroupedCoefficients

DEFAULT_FUSION_TOL = 1e-6


@dataclass(frozen=True)
class DetectionReport:
    """Per-run detection and accuracy metrics."""

    recovery_rate: float
    overestimation_ratio: float
    missclassification_count: int
    med: float
    mad: float


def fusion_thresholds(blocks: np.ndarray, fusion_tol: float) -> np.ndarray:
    """Per pair of the (g, p) ``blocks``, the size a difference must exceed.

    The rule is relative-absolute: ``fusion_tol * (1 + max(sup-norm of the
    two blocks))``.
    """
    sup = np.abs(blocks).max(axis=1)
    return fusion_tol * (1.0 + np.maximum(sup[1:], sup[:-1]))


def detect_from_diffs(diffs: np.ndarray, blocks: np.ndarray,
                      fusion_tol: float = DEFAULT_FUSION_TOL) -> list[int]:
    """Detected pair labels given explicit difference blocks.

    ``diffs`` is (g-1, p) and ``blocks`` (g, p); row ``i`` of ``diffs``
    compares groups ``i`` and ``i+1`` (0-based) and carries the 1-based pair
    label ``i + 2``.  A pair is different when the sup-norm of its difference
    exceeds its :func:`fusion_thresholds`.
    """
    if fusion_tol < 0:
        raise ValueError("fusion_tol must be nonnegative")
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
    if diffs.shape[0] == 0:
        return []
    hits = np.abs(diffs).max(axis=1) > fusion_thresholds(blocks, fusion_tol)
    return [int(i) + 2 for i in np.nonzero(hits)[0]]


def detect_differences(beta: GroupedCoefficients,
                       fusion_tol: float = DEFAULT_FUSION_TOL) -> list[int]:
    """Sorted pair labels j in {2..g} with block j different from block j-1."""
    return detect_from_diffs(beta.successive_differences(), beta.stacked(),
                             fusion_tol)


def score_detection(detected, truth) -> tuple[float, float, int]:
    """(recovery, overestimation, missclassification) of a detected set.

    recovery = |detected & truth| / |truth|, overestimation =
    |detected| / |truth|, missclassification = |detected - truth|.
    """
    truth = set(int(j) for j in truth)
    if not truth:
        raise ValueError("truth set is empty; detection scores are undefined")
    detected = set(int(j) for j in detected)
    recovery = len(detected & truth) / len(truth)
    overestimation = len(detected) / len(truth)
    misscls = len(detected - truth)
    return recovery, overestimation, misscls


def med_metric(y, yhat) -> float:
    """Median of the residuals y - yhat (even length: mean of the two central)."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError(
            f"need equal-length nonempty vectors, got {y.shape} and {yhat.shape}"
        )
    return float(np.median(y - yhat))


def mad_metric(beta_true: GroupedCoefficients,
               beta_hat: GroupedCoefficients) -> float:
    """Mean absolute componentwise deviation over all g*p coordinates."""
    if beta_true.g != beta_hat.g or beta_true.p != beta_hat.p:
        raise ValueError(
            f"shape mismatch: ({beta_true.g}, {beta_true.p}) vs "
            f"({beta_hat.g}, {beta_hat.p})"
        )
    return float(np.mean(np.abs(beta_true.flat - beta_hat.flat)))


def evaluate_detection(detected, truth, y, yhat,
                       beta_true: GroupedCoefficients,
                       beta_hat: GroupedCoefficients) -> DetectionReport:
    """Bundle all per-run metrics for one fitted model against the truth."""
    recovery, overestimation, misscls = score_detection(detected, truth)
    return DetectionReport(
        recovery_rate=recovery,
        overestimation_ratio=overestimation,
        missclassification_count=misscls,
        med=med_metric(y, yhat),
        mad=mad_metric(beta_true, beta_hat),
    )


def segments_from_detected(detected, g: int) -> list[tuple[int, int]]:
    """Maximal runs of fused groups, as 1-based inclusive (start, end) pairs."""
    bounds = sorted(set(int(j) for j in detected))
    for j in bounds:
        if not 2 <= j <= g:
            raise ValueError(f"pair label {j} outside 2..{g}")
    starts = [1] + bounds
    ends = [j - 1 for j in bounds] + [g]
    return list(zip(starts, ends))


def format_recovery(recovery: float, overestimation: float) -> str:
    """The two-value 'a/b' convention used in reported tables."""
    return f"{recovery:.2f}/{overestimation:.2f}"
