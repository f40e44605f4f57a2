"""Shared numeric helpers: base-2 logs, log-space factorials, resource guards."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2


class ResourceCapError(RuntimeError):
    """An operation would exceed its configured resource cap."""


def log2_factorial(m: float) -> float:
    """log2(m!) for real m >= 0, via log-gamma."""
    if m < 0:
        raise ValueError(f"factorial argument must be >= 0, got {m}")
    return float(gammaln(m + 1.0)) / LN2


def log2_binomial(a: float, b: float) -> float:
    """log2 of the binomial coefficient C(a, b) for real a >= b >= 0."""
    if b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return log2_factorial(a) - log2_factorial(b) - log2_factorial(a - b)


def xlog2x(x: float) -> float:
    """x * log2(x) with the 0 * log 0 = 0 convention."""
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def elementwise(f, x: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function) on every element of ``x``: libm's bits, not numpy's."""
    return np.fromiter(map(f, x.tolist()), float, x.size)
