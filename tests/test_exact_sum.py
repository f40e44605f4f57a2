"""``exact_sum`` returns ``math.fsum(x.tolist())`` bit for bit, on both sides
of its size cutoff: the same float (compared as int64 bits, so the sign of
zero counts) or the same exception."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy import _common
from pattern_entropy._common import _EXACT_SUM_CUTOFF, exact_sum

# sizes just below the cutoff (fsum alone) and from it on (the level loop)
SIZES = st.one_of(st.integers(1, _EXACT_SUM_CUTOFF - 1),
                  st.integers(_EXACT_SUM_CUTOFF, 3 * _EXACT_SUM_CUTOFF))
SEEDS = st.integers(0, 2**32 - 1)
TINY = 5e-324  # 2**-1074, the smallest subnormal
HUGE = 1.7976931348623157e308


def _outcome(f, x):
    try:
        return "value", int(np.float64(f(x)).view(np.int64))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _assert_like_fsum(x):
    assert _outcome(exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)


def _spread(rng, size, lo, hi):
    """Random signs and 53-bit mantissas at exponents drawn from [lo, hi)."""
    return rng.uniform(-1.0, 1.0, size) * np.exp2(rng.integers(lo, hi, size).astype(float))


@given(SEEDS, SIZES, st.integers(-1074, 1000), st.integers(0, 2074))
def test_matches_fsum_over_any_spread(seed, size, lo, width):
    rng = np.random.default_rng(seed)
    _assert_like_fsum(_spread(rng, size, lo, min(lo + width, 1000) + 1))


@given(SEEDS, SIZES, st.integers(-1000, 900), st.booleans())
def test_matches_fsum_when_every_term_is_near_the_top(seed, size, top, negative):
    # one sign and nearly equal magnitudes: the partial sums of each level
    # come closest to sigma here, where too small an M would round them
    rng = np.random.default_rng(seed)
    x = np.ldexp(1.0 - rng.uniform(0.0, 2.0**-20, size), top)
    _assert_like_fsum(-x if negative else x)


@given(SEEDS, SIZES)
def test_matches_fsum_on_subnormals(seed, size):
    rng = np.random.default_rng(seed)
    x = rng.integers(-2**52, 2**52, size).astype(float) * TINY
    x[rng.integers(0, size)] = -0.0
    _assert_like_fsum(x)


@given(SEEDS, SIZES, st.integers(-1074, 1000), st.integers(0, 2074))
def test_matches_fsum_on_exact_cancellation(seed, size, lo, width):
    rng = np.random.default_rng(seed)
    half = _spread(rng, size, lo, min(lo + width, 1000) + 1)
    x = np.concatenate([half, -half])
    rng.shuffle(x)
    assert exact_sum(x) == 0.0
    _assert_like_fsum(x)


@pytest.mark.parametrize("size", [1, _EXACT_SUM_CUTOFF - 1, _EXACT_SUM_CUTOFF, 5000])
def test_zeros_keep_fsums_sign(size):
    # Python 3.12 made fsum of all -0.0 give -0.0; the running Python decides
    _assert_like_fsum(np.full(size, -0.0))
    _assert_like_fsum(np.zeros(size))
    mixed = np.full(size, -0.0)
    mixed[0] = 0.0
    _assert_like_fsum(mixed)


_SPECIALS = {
    "inf": [math.inf],
    "-inf": [-math.inf],
    "nan": [math.nan],
    "inf - inf": [math.inf, -math.inf],
    "inf and nan": [math.inf, math.nan],
    "overflow": [HUGE, HUGE],
    "intermediate overflow": [HUGE, HUGE, -HUGE],
    "top float": [HUGE],
}


@given(SEEDS, SIZES, st.sampled_from(sorted(_SPECIALS)))
def test_specials_behave_as_in_fsum(seed, size, special):
    rng = np.random.default_rng(seed)
    x = _spread(rng, size + len(_SPECIALS[special]), -20, 20)
    x[rng.choice(x.size, len(_SPECIALS[special]), replace=False)] = _SPECIALS[special]
    _assert_like_fsum(x)


def test_large_magnitudes_below_overflow_match():
    # magnitudes on both sides of the loop's 2**1000 guard, some sums overflowing
    rng = np.random.default_rng(7)
    for top in (990, 1000, 1010, 1023):
        _assert_like_fsum(_spread(rng, 3 * _EXACT_SUM_CUTOFF, top - 60, top + 1))


def test_loop_ends_on_the_widest_spread(monkeypatch):
    """2**-1074 up to the largest magnitude the loop takes on (2**(1000 - M)):
    each level takes at least 52 - M leading bits off the remainder, and
    below 2**-960 fsum takes the rest."""
    levels = []
    fake_math = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                          if not k.startswith("_")})
    fake_math.ldexp = lambda m, e: levels.append(e) or math.ldexp(m, e)
    monkeypatch.setattr(_common, "math", fake_math)
    rng = np.random.default_rng(3)
    size = 4 * _EXACT_SUM_CUTOFF
    M = (size + 1).bit_length()
    top = 1000 - M  # every magnitude is below 2**top
    x = _spread(rng, size, -1074, top)
    x[:2] = TINY, -(2.0 ** top - 2.0 ** (top - 53))
    _assert_like_fsum(x)
    assert levels[0] == 1000
    assert len(levels) <= (top + 960) // (52 - M) + 1
