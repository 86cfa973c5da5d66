"""The quantile check function and its proximal map.

The quantile check function is rho_tau(u) = u * (tau - 1{u < 0}); tau = 0.5
gives half the absolute deviation.  The objective needs its values and the
solver its prox; the LS loss needs neither, since the solver absorbs the
quadratic into its b-update.
"""

from __future__ import annotations

import numpy as np


def _validate_tau(tau) -> None:
    arr = np.asarray(tau)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


def check_value(u, tau: float):
    """Quantile check function, elementwise; scalar in, scalar out.

    The tie at u = 0 follows the strict convention 1{u < 0}, which changes
    nothing numerically (the value is 0 either way) but fixes the subgradient
    choice used elsewhere.
    """
    _validate_tau(tau)
    arr = np.asarray(u, dtype=float)
    out = arr * (tau - (arr < 0))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def prox_check(v, alpha: float, tau: float):
    """Proximal map of the check function: argmin_z rho_tau(z) + (z-v)^2/(2*alpha).

    Closed form: shift down by alpha*tau above the dead zone, up by
    alpha*(1-tau) below it, zero inside [-alpha*(1-tau), alpha*tau].
    Both dead-zone boundaries are treated as closed.
    """
    if not np.all(np.asarray(alpha) > 0):
        raise ValueError("alpha must be positive")
    _validate_tau(tau)
    arr = np.asarray(v, dtype=float)
    hi = alpha * tau
    lo = -alpha * (1.0 - tau)
    out = np.where(arr > hi, arr - hi, np.where(arr < lo, arr - lo, 0.0))
    return float(out) if np.isscalar(v) or arr.ndim == 0 else out

