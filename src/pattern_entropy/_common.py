"""Shared numeric helpers: base-2 logs, log-space factorials, exact sums, resource guards."""

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
# exact_sum hands arrays shorter than this to math.fsum: its level loop has
# about 30 us of fixed numpy cost, against 0.3 us for fsum on a few elements,
# and the two break even near a thousand elements.
_EXACT_SUM_CUTOFF = 1024


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
    """``f`` (a ``math`` function) on every element of ``x``, in x's shape:
    libm's bits, not numpy's.  The elements are read as Python floats through
    a memoryview of a contiguous float64 view (a copy only if ``x`` is not
    one), so no list of them is built."""
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    return np.fromiter(map(f, memoryview(flat)), float, flat.size).reshape(np.shape(x))


def exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` bit for bit, for a 1-d float array, without the list.

    Both are the correctly rounded value of the exact sum, so they agree
    whatever order numpy adds in.  From ``_EXACT_SUM_CUTOFF`` elements on, the
    error-free vector transformation of Rump, Ogita & Oishi ("Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008,
    Lemma 3.3): with max|r| < 2^e, 2^M > size + 1 and sigma = 2^(e+M), each
    q = (sigma + r) - sigma is r rounded to a multiple of 2^(e+M-53) with
    |q| <= 2^e, so every partial sum of q is exact, and r - q is exact too.
    Each level takes at least 52 - M leading bits off the remainder; the
    levels' sums, exact parts of the total, go to fsum at the end.
    Infinities, NaN, magnitudes where sigma would overflow and remainders
    near the subnormal range go to fsum as they stand, so they behave as
    fsum does (values, exceptions and the sign of zero alike).
    """
    if x.size < _EXACT_SUM_CUTOFF:
        return math.fsum(x.tolist())
    M = (x.size + 1).bit_length()
    parts: list[float] = []
    # one scratch array for |r| and q, and r's own after the first level:
    # fresh 8-byte-per-element arrays at every step cost more than the sums
    q = np.empty(x.shape)
    r = x
    while True:
        top = float(np.abs(r, out=q).max())
        if top == 0.0:
            break
        e = math.frexp(top)[1]  # top < 2**e
        if not math.isfinite(top) or e + M > 1000 or e < -960:
            return math.fsum(parts + r.tolist())
        sigma = math.ldexp(1.0, e + M)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        if r is x:
            r = x - q
        else:
            r -= q
    # an all-zero array: fsum alone decides the sign of zero
    return math.fsum(parts) if parts else math.fsum(x.tolist())
