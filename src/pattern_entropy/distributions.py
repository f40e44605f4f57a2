"""i.i.d. source models: sorted probability vectors and parametric families.

Probabilities are stored as (value, multiplicity) groups so that families with
millions of equal-probability letters stay exact without ever materializing a
per-letter array.  All formulas downstream consume the grouped form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ._common import ResourceCapError, elementwise, exact_sum

SUM_TOL = 1e-12
MATERIALIZE_CAP = 10_000_000

_FAMILIES = ("explicit", "uniform", "two-level", "geometric", "zipf")
_TWO_LEVEL_KINDS = ("below", "above", "unit")


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
    build_info: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 1 or values.shape != counts.shape or values.size == 0:
            raise ValueError("values and counts must be matching, non-empty 1-d arrays")
        if np.any(counts <= 0):
            raise ValueError("multiplicities must be positive integers")
        if np.any(values <= 0.0) or np.any(values > 1.0):
            raise ValueError("probabilities must lie in (0, 1]")
        if values.size > 1 and np.any(np.diff(values) <= 0.0):
            raise ValueError("values must be strictly ascending with duplicates merged")
        total = exact_sum(counts * values)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_probs(cls, probs: Sequence[float], build_info: dict | None = None) -> "ParamVector":
        """Build from an explicit per-letter probability list."""
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"probability list must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("probability list is empty")
        values, counts = np.unique(arr, return_counts=True)
        return cls(values, counts.astype(np.int64), build_info)

    @classmethod
    def from_groups(cls, values: Sequence[float], counts: Sequence[int],
                    build_info: dict | None = None) -> "ParamVector":
        """Build from (value, multiplicity) groups, merging equal values."""
        v = np.asarray(values, dtype=float)
        c = np.asarray(counts, dtype=np.int64)
        if v.ndim != 1 or v.shape != c.shape:
            raise ValueError("values and counts must be 1-d with matching shapes")
        uv, inverse = np.unique(v, return_inverse=True)
        uc = np.zeros(uv.shape, dtype=np.int64)
        np.add.at(uc, inverse, c)
        return cls(uv, uc, build_info)

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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")


def make_distribution(spec: SourceSpec) -> ParamVector:
    """Construct the ParamVector described by ``spec``.

    n-relative families round letter counts to integers and rescale the second
    level's per-letter mass so the total is exactly 1; the applied factor is
    reported in ``build_info["renorm_factor"]``.  A factor off by more than 10%
    is treated as a parameter error.
    """
    family, params, n = spec.family, dict(spec.params), spec.n
    if family == "explicit":
        probs = params.get("probs")
        if not probs:
            raise ValueError("explicit family requires a 'probs' list")
        return ParamVector.from_probs(probs, build_info={"family": family})
    if family == "uniform":
        if "k" in params:
            k = int(params["k"])
        elif "nu" in params:
            if n is None:
                raise ValueError("uniform family with 'nu' requires the horizon n")
            k = int(round(float(n) ** (1.0 - float(params["nu"]))))
        else:
            raise ValueError("uniform family requires 'k' or 'nu'")
        if k < 1:
            raise ValueError(f"letter count rounds to {k} < 1")
        return ParamVector.from_groups([1.0 / k], [k], build_info={"family": family, "k": k})
    if family == "two-level":
        return _two_level(params, n)
    if family == "geometric":
        k = int(_required(params, "k", family))
        decay = float(_required(params, "decay", family))
        if not 0.0 < decay < 1.0:
            raise ValueError("geometric decay must be in (0, 1)")
        raw = decay ** np.arange(k, dtype=float)
        return _normalized(raw, {"family": family, "k": k, "decay": decay})
    if family == "zipf":
        k = int(_required(params, "k", family))
        s = float(_required(params, "exponent", family))
        raw = np.arange(1, k + 1, dtype=float) ** (-s)
        return _normalized(raw, {"family": family, "k": k, "exponent": s})
    raise ValueError(f"unknown family {family!r}")


def _required(params: dict, name: str, family: str):
    if name not in params:
        raise ValueError(f"{family} family requires {name!r}")
    return params[name]


def _normalized(raw: np.ndarray, info: dict) -> ParamVector:
    total = exact_sum(raw)
    if total <= 0:
        raise ValueError("non-positive total mass")
    return ParamVector.from_probs(raw / total, build_info=info)


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
    theta0 = nf ** -(1.0 + mu)
    k0 = int(round(phi0 * nf ** (1.0 + mu)))
    if k0 < 1:
        raise ValueError("low-level letter count rounds to zero")
    mass0 = k0 * theta0
    phi1 = 1.0 - mass0
    if phi1 <= 0.0:
        raise ValueError("low level consumes all probability mass")
    if kind == "below":
        nu = float(_required(params, "nu", "two-level"))
        v1_nominal = nf ** -(1.0 - nu)
    elif kind == "above":
        nu = float(_required(params, "nu", "two-level"))
        v1_nominal = nf ** -(1.0 + nu)
    else:
        nu = None
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
    info = {
        "family": "two-level", "level1": kind, "phi0": phi0, "mu": mu, "nu": nu,
        "k0": k0, "k1": k1, "renorm_factor": factor,
        "nominal_level1_value": v1_nominal,
    }
    return ParamVector.from_groups([theta0, v1], [k0, k1], build_info=info)


def entropy_terms(theta: ParamVector) -> np.ndarray:
    """Per-group c * v * log2(v); H(X) is minus their sum."""
    return theta.counts * theta.values * elementwise(math.log2, theta.values)


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
    return rng.choice(np.arange(1, theta.k + 1), size=size, p=theta.probs)
