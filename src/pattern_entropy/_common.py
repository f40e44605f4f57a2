"""Shared numeric helpers: base-2 logs, log-space factorials, resource guards."""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2
# ln_factorial takes integral m below this from the exact integer m!: glibc's
# lgamma is up to 2 ulp off there (lgamma(3.0) != ln 2, so log2(2!) != 1),
# and m! < 2**64 costs no more than lgamma.  From here on lgamma is within
# 3.7e-16 relative of ln(m!) (measured for m < 3000).
EXACT_FACTORIAL_BELOW = 21


class ResourceCapError(RuntimeError):
    """An operation would exceed its configured resource cap."""


def ln_factorial(m: float) -> float:
    """ln(m!) for real m >= 0: exact for small integral m, else via log-gamma."""
    if m < 0:
        raise ValueError(f"factorial argument must be >= 0, got {m}")
    if m < EXACT_FACTORIAL_BELOW and m == int(m):
        return math.log(math.factorial(int(m)))
    return math.lgamma(m + 1.0)


def log2_factorial(m: float) -> float:
    """log2(m!) for real m >= 0: exact for small integral m, else via log-gamma."""
    return ln_factorial(m) / LN2


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
