"""i.i.d. source models: sorted probability vectors and parametric families.

Probabilities are stored as (value, multiplicity) groups so that families with
millions of equal-probability letters stay exact without ever materializing a
per-letter array.  All formulas downstream consume the grouped form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ._common import ResourceCapError, elementwise, exact_sum

SUM_TOL = 1e-12
MATERIALIZE_CAP = 10_000_000

# family -> the parameter names it reads; make_distribution rejects any other
FAMILY_PARAMS = {
    "explicit": ("probs",),
    "uniform": ("k", "nu"),
    "two-level": ("phi0", "mu", "nu", "level1"),
    "geometric": ("k", "decay"),
    "zipf": ("k", "exponent"),
}
_TWO_LEVEL_KINDS = ("below", "above", "unit")


def _int64_counts(counts) -> np.ndarray:
    """Multiplicities as int64; a count beyond int64 raises ValueError."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        flat = np.asarray(counts, dtype=object).ravel().tolist()
        raise ValueError(f"multiplicities must be below 2**63, got {max(flat, key=abs)!r}") from None


@dataclass(frozen=True)
class ParamVector:
    """Sorted probability vector of a finite i.i.d. source.

    ``values`` are the distinct probabilities in strictly ascending order and
    ``counts`` their multiplicities.  The usual per-letter view (ascending, one
    entry per letter) is available through :attr:`probs` while the alphabet is
    small enough to materialize.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = _int64_counts(self.counts)
        if values.ndim != 1 or values.shape != counts.shape or values.size == 0:
            raise ValueError("values and counts must be matching, non-empty 1-d arrays")
        if np.any(counts <= 0):
            raise ValueError("multiplicities must be positive integers")
        # written so that NaN fails each check: every comparison with it is false
        if not np.all((values > 0.0) & (values <= 1.0)):
            raise ValueError("probabilities must lie in (0, 1]")
        if values.size > 1 and np.any(np.diff(values) <= 0.0):
            raise ValueError("values must be strictly ascending with duplicates merged")
        total = exact_sum(counts * values)
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_probs(cls, probs: Sequence[float]) -> "ParamVector":
        """Build from an explicit per-letter probability list."""
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"probability list must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("probability list is empty")
        values, counts = np.unique(arr, return_counts=True)
        return cls(values, counts.astype(np.int64))

    @classmethod
    def from_groups(cls, values: Sequence[float], counts: Sequence[int]) -> "ParamVector":
        """Build from (value, multiplicity) groups, merging equal values."""
        v = np.asarray(values, dtype=float)
        c = _int64_counts(counts)
        if v.ndim != 1 or v.shape != c.shape:
            raise ValueError("values and counts must be 1-d with matching shapes")
        uv, inverse = np.unique(v, return_inverse=True)
        # merged in Python ints, so a sum beyond int64 is refused, not wrapped
        uc = np.zeros(uv.shape, dtype=object)
        np.add.at(uc, inverse, c.astype(object))
        return cls(uv, uc)

    @property
    def k(self) -> int:
        """Alphabet size."""
        return int(self.counts.sum())

    @property
    def probs(self) -> np.ndarray:
        """Ascending per-letter probabilities (guarded materialization)."""
        if self.k > MATERIALIZE_CAP:
            raise ResourceCapError(
                f"alphabet of size {self.k} exceeds the materialization cap "
                f"({MATERIALIZE_CAP}): use the grouped (values, counts) form"
            )
        return np.repeat(self.values, self.counts)

    @cached_property
    def log2_values(self) -> np.ndarray:
        """libm's log2 of each value: the source's one log2 pass, read by H(X) and lb4."""
        log2 = elementwise(math.log2, self.values)
        log2.setflags(write=False)
        return log2

    def groups(self) -> Iterator[tuple[float, int]]:
        for v, c in zip(self.values, self.counts):
            yield float(v), int(c)


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of a source family.

    ``family`` is one of explicit / uniform / two-level / geometric / zipf;
    ``params`` hold family-specific values and ``n`` is the horizon used by
    n-relative families (letter counts scaling with the block length).
    """

    family: str
    params: dict
    n: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"expected one of {tuple(FAMILY_PARAMS)}")


def make_distribution(spec: SourceSpec) -> ParamVector:
    """Construct the ParamVector described by ``spec``.

    Each family reads the parameter names ``FAMILY_PARAMS`` lists for it; any
    other name, a missing or out-of-range value, and a ``k`` that is not a
    whole number (2000.0 is one), raises ValueError.
    n-relative families round letter counts to integers and rescale the second
    level's per-letter mass so the total is exactly 1.  A rescaling factor off
    by more than 10% is treated as a parameter error.
    """
    family, params, n = spec.family, dict(spec.params), spec.n
    for name in params:
        if name not in FAMILY_PARAMS[family]:
            raise ValueError(f"{family} family takes no parameter {name!r}; "
                             f"expected one of {FAMILY_PARAMS[family]}")
    if family == "explicit":
        probs = params.get("probs")
        if probs is None or np.size(probs) == 0:
            raise ValueError("explicit family requires a 'probs' list")
        return ParamVector.from_probs(probs)
    if family == "uniform":
        if "k" in params:
            k = _letter_count(params, family)
        elif "nu" in params:
            if n is None:
                raise ValueError("uniform family with 'nu' requires the horizon n")
            nu = float(params["nu"])
            k = int(round(_n_power(n, 1.0 - nu, f"uniform nu = {nu!r}")))
        else:
            raise ValueError("uniform family requires 'k' or 'nu'")
        if k < 1:
            raise ValueError(f"letter count rounds to {k} < 1")
        return ParamVector.from_groups([1.0 / k], [k])
    if family == "two-level":
        return _two_level(params, n)
    # geometric and zipf, the last families SourceSpec admits, list every letter
    k = _letter_count(params, family)
    if k > MATERIALIZE_CAP:
        raise ResourceCapError(f"{family} k = {k} letters exceed the materialization cap "
                               f"MATERIALIZE_CAP ({MATERIALIZE_CAP})")
    if family == "geometric":
        decay = float(_required(params, "decay", family))
        if not 0.0 < decay < 1.0:
            raise ValueError("geometric decay must be in (0, 1)")
        raw = decay ** np.arange(k, dtype=float)
        return _normalized(raw)
    s = float(_required(params, "exponent", family))
    raw = np.arange(1, k + 1, dtype=float) ** (-s)
    return _normalized(raw)


def _required(params: dict, name: str, family: str):
    if name not in params:
        raise ValueError(f"{family} family requires {name!r}")
    return params[name]


def _letter_count(params: dict, family: str) -> int:
    """The parameter ``k`` as an int; a bool, a string or a fraction raises."""
    k = _required(params, "k", family)
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer))
                                   or isinstance(k, float) and k.is_integer()):
        raise ValueError(f"{family} family parameter 'k' must be a whole number, got {k!r}")
    return int(k)


def _n_power(n, exponent: float, what: str) -> float:
    """n ** exponent, or a ValueError naming ``what`` when it leaves the
    positive float range (an overflow, or an underflow to 0)."""
    try:
        power = float(n) ** exponent
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"{what} puts n^{exponent:g} outside the float range")
    return power


def _normalized(raw: np.ndarray) -> ParamVector:
    total = exact_sum(raw)
    if total <= 0:
        raise ValueError("non-positive total mass")
    return ParamVector.from_probs(raw / total)


def _two_level(params: dict, n: int | None) -> ParamVector:
    """Two-level family: k0 letters at 1/n^(1+mu) plus a second level.

    The second level is placed at 1/n^(1-nu) (kind 'below'), 1/n^(1+nu)
    ('above'), or 1/n ('unit'); its nominal mass is 1 - phi0.
    """
    if n is None:
        raise ValueError("two-level family requires the horizon n")
    nf = float(n)
    phi0 = float(_required(params, "phi0", "two-level"))
    mu = float(_required(params, "mu", "two-level"))
    kind = params.get("level1", "below")
    if kind not in _TWO_LEVEL_KINDS:
        raise ValueError(f"level1 must be one of {_TWO_LEVEL_KINDS}")
    if not 0.0 < phi0 < 1.0:
        raise ValueError("phi0 must be in (0, 1)")
    theta0 = _n_power(nf, -(1.0 + mu), f"two-level mu = {mu!r}")
    k0 = int(round(phi0 * _n_power(nf, 1.0 + mu, f"two-level mu = {mu!r}")))
    if k0 < 1:
        raise ValueError("low-level letter count rounds to zero")
    mass0 = k0 * theta0
    phi1 = 1.0 - mass0
    if phi1 <= 0.0:
        raise ValueError("low level consumes all probability mass")
    if kind == "below":
        nu = float(_required(params, "nu", "two-level"))
        v1_nominal = _n_power(nf, -(1.0 - nu), f"two-level nu = {nu!r}")
    elif kind == "above":
        nu = float(_required(params, "nu", "two-level"))
        v1_nominal = _n_power(nf, -(1.0 + nu), f"two-level nu = {nu!r}")
    else:
        v1_nominal = 1.0 / nf
    k1 = int(round((1.0 - phi0) / v1_nominal))
    if k1 < 1:
        raise ValueError("second-level letter count rounds to zero")
    v1 = phi1 / k1
    factor = v1 / v1_nominal
    if abs(factor - 1.0) > 0.10:
        raise ValueError(
            f"renormalization factor {factor:.4f} deviates from 1 by more than 10%; "
            "the rounded counts do not reproduce the requested masses"
        )
    if v1 <= theta0:
        raise ValueError("the two levels collide; pick parameters separating them")
    return ParamVector.from_groups([theta0, v1], [k0, k1])


def entropy_terms(theta: ParamVector) -> np.ndarray:
    """Per-group c * v * log2(v); H(X) is minus their sum."""
    return theta.counts * theta.values * theta.log2_values


def iid_entropy(theta: ParamVector) -> float:
    """Per-symbol source entropy H(X) in bits; the block entropy is n * H(X)."""
    return -exact_sum(entropy_terms(theta))


def binary_entropy(alpha: float) -> float:
    """h2(alpha) in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {alpha}")
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return -alpha * math.log2(alpha) - (1.0 - alpha) * math.log2(1.0 - alpha)


def sample_sequence(theta: ParamVector, size: int | tuple[int, ...],
                    seed: int | np.random.Generator) -> np.ndarray:
    """Draw i.i.d. symbols 1..k from ``theta``: the only draw of the package.

    ``size`` is a length n or a shape such as (samples, n), whose rows are
    successive length-n draws.  ``seed`` is an int or a Generator; a
    Generator is used as it stands, so callers that share one continue its
    stream, and an int always gives the same symbols.
    """
    if np.min(size) < 1:
        raise ValueError("sequence length must be >= 1")
    rng = np.random.default_rng(seed)
    probs = theta.probs  # the materialization cap, before any k-element array
    return rng.choice(np.arange(1, theta.k + 1), size=size, p=probs)
