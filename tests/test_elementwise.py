"""``elementwise`` applies a ``math`` function to every element with libm's
bits, in the input's shape, whatever its layout."""

import math

import numpy as np
import pytest

from pattern_entropy._common import elementwise


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("f", [math.log2, math.exp, math.log1p, lambda x: x ** 2])
def test_libm_bits_on_every_layout(f):
    rng = np.random.default_rng(7)
    base = rng.uniform(0.01, 3.0, size=(6, 8))
    for x in (base.ravel(), base[:, 3], base[::2, 1::3], base.T, base, base[0, 0], base[:0, 0]):
        got = elementwise(f, x)
        assert got.shape == np.shape(x) and got.dtype == np.float64
        want = np.array([f(v) for v in np.asarray(x).ravel().tolist()]).reshape(np.shape(x))
        assert _bits(got) == _bits(want)


def test_reads_other_dtypes_as_float64():
    x = np.arange(1, 6, dtype=np.int32)
    assert _bits(elementwise(math.log2, x)) == _bits([math.log2(float(v)) for v in range(1, 6)])


def test_zero_dimensional_input_gives_a_zero_dimensional_result():
    got = elementwise(math.exp, np.float64(1.5))
    assert got.shape == () and float(got) == math.exp(1.5)
