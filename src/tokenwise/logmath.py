"""Log-domain probability arithmetic shared by all decoding code.

Probabilities are stored as natural logarithms. Probability zero is the
sentinel ``LOG_ZERO`` (negative infinity): it absorbs log-domain products
and is the identity of log-domain sums, so callers need no special casing.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")
LOG_ONE = 0.0


def log_add(a: float, b: float) -> float:
    """Return ``log(exp(a) + exp(b))`` without leaving the log domain.

    Stable for operands of any magnitude; ``LOG_ZERO`` is the identity.
    """
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_sum_exp(values: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of a float64 array along ``axis``, keeping that axis.

    The one log-sum-exp kernel; :func:`log_normalize` is built on it, and a
    caller that wants the axis removed indexes it away. Each slice is
    shifted by its peak, exponentiated, summed, logged and shifted back, in
    that order, so the result equals ``log(sum(exp(values - peak))) + peak``
    bit for bit. A slice whose peak is not finite is shifted by zero
    instead: an empty or all-``LOG_ZERO`` slice gives ``LOG_ZERO``, a slice
    holding ``+inf`` gives ``+inf``, and a slice holding NaN gives NaN.
    """
    peak = np.maximum.reduce(values, axis=axis, keepdims=True, initial=LOG_ZERO)
    finite = np.isfinite(peak).all()
    if not finite:
        peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = values - peak
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
    if finite:
        # Every slice holds exp(0) = 1, so no total is zero.
        np.log(total, out=total)
    else:
        with np.errstate(divide="ignore"):
            np.log(total, out=total)
    total += peak
    return total


def log_normalize(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift ``values`` so every slice along ``axis`` log-sums to zero.

    Returns ``values`` minus :func:`log_sum_exp` along ``axis``, so NaN
    propagates and an all-``LOG_ZERO`` slice becomes NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    return values - log_sum_exp(values, axis)
