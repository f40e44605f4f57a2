"""Probability-space grids, bin statistics, and per-letter occurrence formulas.

Three square-law point sets partition (0, 1]: ``tau`` (point b is b^2/n^(1+eps)),
``eta`` ((b+s)^2/n^(1+2*eps) above two low points, s = floor(n^(1.5*eps)) - 2) and
``xi`` (b^2/n^(1-eps), for lower bounds), each point computed from (n, eps), none
stored.  Bins are left-open / right-closed: a probability on a point is in the lower bin.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._common import elementwise
from .distributions import ParamVector


@dataclass(frozen=True)
class _Points(Sequence):
    """A grid's points 0..num_bins as a read-only sequence computed on access."""

    grid: "Grid"

    def __len__(self) -> int:
        return self.grid.num_bins + 1

    def __getitem__(self, i):
        return self.grid.point(range(len(self))[i])


@dataclass(frozen=True)
class Grid:
    """One of the tau/eta/xi point sets, with the terminal point 1 appended.

    Point i is ``r*r/denom`` with ``r = float(i + shift)``, except eta's low
    points ``low = (0, eta1, eta2)`` at 0-2 and the terminal 1.0 after the last
    regular point ``B`` when that is below 1; the points run over 0..num_bins.
    ``A`` is the last index whose point does not exceed 1/2.  ``flags`` records
    degenerate construction paths (eta fallback or a merged colliding point).
    """

    kind: str
    n: int
    epsilon: float
    B: int
    A: int
    denom: float
    shift: int
    low: tuple[float, ...]
    num_bins: int
    flags: tuple[str, ...] = ()

    def point(self, i):
        """Point i of the grid (an int gives a float, an int array an array)."""
        if isinstance(i, int):
            return _point(i, self.B, self.denom, self.shift, self.low)
        i = np.asarray(i)
        p = np.asarray(i + float(self.shift))
        p *= p
        p /= self.denom
        p[i > self.B] = 1.0
        if self.low:
            p[i < 3] = np.array(self.low)[i[i < 3]]
        return float(p) if p.ndim == 0 else p

    points = property(_Points)


def _point(i: int, B: int, denom: float, shift: int, low: tuple[float, ...]) -> float:
    """Point i of a grid with these fields: ``Grid.point`` of a Python int, in
    the float operations of its array route."""
    if low and i < 3:
        return low[i]
    if i > B:
        return 1.0
    r = float(i + shift)
    return r * r / denom


def low_thresholds(n: int, epsilon: float) -> tuple[float, float]:
    """The two low-probability boundaries 1/n^(1+eps) and 1/n^(1-eps).

    These delimit bins 0 and 1 of the eta grid and are used directly by the
    packed-entropy and low-letter computations so that they stay canonical even
    when the eta grid itself degenerates at small n.
    """
    nf = float(n)
    return nf ** -(1.0 + epsilon), nf ** -(1.0 - epsilon)


def _exponent(kind: str, epsilon: float) -> float:
    """The exponent e of the grid's denominator n^e."""
    exponents = {"tau": 1.0 + epsilon, "eta": 1.0 + 2.0 * epsilon, "xi": 1.0 - epsilon}
    if kind not in exponents:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {tuple(exponents)}")
    return exponents[kind]


def _closed_form(kind: str, n: int, epsilon: float, fallback: bool, scale: float) -> int:
    """floor(sqrt(n^e) / scale), less eta's index shift outside the fallback."""
    nf = float(n)
    top = math.floor(nf ** (_exponent(kind, epsilon) / 2.0) / scale)
    if kind == "eta" and not fallback:
        return top - math.floor(nf ** (1.5 * epsilon)) + 2
    return top


def closed_form_B(kind: str, n: int, epsilon: float, fallback: bool = False) -> int:
    return _closed_form(kind, n, epsilon, fallback, 1.0)


def closed_form_A(kind: str, n: int, epsilon: float, fallback: bool = False) -> int:
    return _closed_form(kind, n, epsilon, fallback, math.sqrt(2.0))


def build_grid(kind: str, n: int, epsilon: float) -> Grid:
    """Construct a tau/eta/xi grid for horizon n.

    eps = 0 is allowed for tau and xi (where the point formulas remain valid);
    eta requires eps > 0.  Any eps in range gives a well-defined grid, with no
    warning; below (ln ln n)/(ln n) the asymptotic bound guarantees do not
    hold, which ``SourceAnalysis.notes`` reports.
    """
    exponent = _exponent(kind, epsilon)
    if n < 2:
        raise ValueError("grid horizon n must be >= 2")
    if epsilon < 0.0 or (kind == "eta" and epsilon == 0.0):
        raise ValueError(f"epsilon must be {'> 0' if kind == 'eta' else '>= 0'} for {kind}")
    if kind == "xi" and epsilon >= 1.0:
        raise ValueError("xi grid requires epsilon < 1")

    nf = float(n)
    denom = nf ** exponent
    fallback = kind == "eta" and math.floor(nf ** (1.5 * epsilon)) < 2
    B = closed_form_B(kind, n, epsilon, fallback)
    flags, shift, low = ("eta_fallback",) if fallback else (), 0, ()
    if kind == "eta" and not fallback:
        shift = math.floor(nf ** (1.5 * epsilon)) - 2
        low = (0.0, *low_thresholds(n, epsilon))
        # eta1 < eta2 < point 3 in exact arithmetic; a float tie drops that point
        if B >= 3 and not low[2] < (3.0 + shift) * (3.0 + shift) / denom:
            flags, shift, B = ("eta_collision_merged",), shift + 1, B - 1
    last = max(B, len(low) - 1)
    num_bins = last + (_point(last, B, denom, shift, low) < 1.0)
    # A is the last index whose point is <= 1/2; the square law puts it within
    # a step of the root guess, and the points ascend, so walk to it
    A = max(math.floor(math.sqrt(0.5 * denom)) - shift, 0)
    while _point(A + 1, B, denom, shift, low) <= 0.5:
        A += 1
    while _point(A, B, denom, shift, low) > 0.5:
        A -= 1
    return Grid(kind, n, epsilon, B, A, denom, shift, low, num_bins, flags)


def bin_index(grid: Grid, theta):
    """Bin b with theta in (point(b), point(b+1)]; left-open on purpose.

    A scalar gives an int, an array of probabilities an array of bins.
    """
    t = np.asarray(theta, dtype=float)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    # the guess is within one bin, eta's low points and the clip included
    guess = np.floor(np.sqrt(t * grid.denom)) - grid.shift
    j = np.clip(guess, 0, grid.num_bins - 1).astype(np.int64)
    bins = j - (grid.point(j) >= t)
    bins += grid.point(j + 1) < t
    return int(bins) if bins.ndim == 0 else bins


@dataclass(frozen=True)
class BinStats:
    """Counts, masses and occupancy means of one source over one grid,
    one row per occupied bin.

    ``group_bin`` is the bin of each (value, count) group of the source, and
    ``bins`` the ascending indices of the bins holding at least one group.
    The rows are aligned with ``bins``: ``counts`` are distinct-letter counts
    (the c/k/kappa counters, depending on the grid kind), ``phi`` the total
    probability mass and ``L`` the expected number of distinct bin letters
    appearing in n draws.  xi grids also carry the overlap counters
    ``kappa_prime`` (0 on bin 0).
    """

    group_bin: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    phi: np.ndarray
    L: np.ndarray
    kappa_prime: np.ndarray | None = None


def absent_probability(theta, n: int):
    """(1 - theta)^n, evaluated stably as exp(n * log1p(-theta)), for a float or an array."""
    if isinstance(theta, np.ndarray):
        absent = np.zeros(theta.shape)
        can_miss = theta < 1.0
        log_absent = float(n) * elementwise(math.log1p, -theta[can_miss])
        absent[can_miss] = elementwise(math.exp, log_absent)
        return absent
    if theta >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-theta))


def bin_stats(grid: Grid, theta: ParamVector, *, occupancy: np.ndarray | None = None) -> BinStats:
    """Aggregate counts / masses / occupancy means of ``theta`` over the occupied
    bins of ``grid``.

    ``occupancy`` is the per-group 1 - (1 - theta)^n for n = grid.n; pass it
    when it is already at hand so several grids share one evaluation.  Nothing
    of the grid's length is allocated: a source of G groups gives at most G rows.
    """
    n = grid.n
    values, mult = theta.values, theta.counts
    group_bin = bin_index(grid, values)
    # values ascend and bin_index is monotone, so group_bin is sorted: each
    # run of equal bins is one occupied bin, and row is the run number
    run_start = np.empty(len(group_bin), dtype=bool)
    run_start[0] = True
    np.not_equal(group_bin[1:], group_bin[:-1], out=run_start[1:])
    bins = group_bin[run_start]
    row = np.cumsum(run_start) - 1
    counts = np.zeros(len(bins), dtype=np.int64)
    phi = np.zeros(len(bins), dtype=float)
    L = np.zeros(len(bins), dtype=float)
    occ = occupancy
    if occ is None:
        occ = 1.0 - absent_probability(values, n)
    np.add.at(counts, row, mult)
    np.add.at(phi, row, mult * values)
    np.add.at(L, row, mult * occ)

    kappa_prime = None
    if grid.kind == "xi":
        # kappa'_b counts the letters in (point(b-1), point(b+2)] (from point(1)
        # for bin 1, none for bin 0); values ascend, so each window is a
        # difference of two cumulative letter counts
        lo = grid.point(np.maximum(bins - 1, 1))
        hi = grid.point(np.minimum(bins + 2, grid.num_bins))
        cum = np.concatenate([[0], np.cumsum(mult)])
        window = (cum[np.searchsorted(values, hi, side="right")]
                  - cum[np.searchsorted(values, lo, side="right")])
        kappa_prime = np.where(bins >= 1, window, 0)
    return BinStats(group_bin=group_bin, bins=bins, counts=counts, phi=phi, L=L,
                    kappa_prime=kappa_prime)


@dataclass(frozen=True)
class OccurrenceStats:
    """Exact occurrence / re-occurrence quantities for one letter, with bounds.

    The exponential-form bounds are always populated (the absent lower bound is
    0 above theta = 3/5, where the Taylor form fails).  The binomial-refined
    bounds are populated only for theta <= 1/n, their domain of validity.
    """

    theta: float
    n: int
    p_absent: float
    p_absent_lo: float
    p_absent_hi: float
    p_present: float
    p_present_lo: float
    p_present_hi: float
    mean_reoccur: float
    mean_reoccur_lo: float
    mean_reoccur_hi: float
    p_present_lo_refined: float | None = None
    p_present_hi_refined: float | None = None
    mean_reoccur_lo_refined: float | None = None
    mean_reoccur_hi_refined: float | None = None


def occurrence_stats(theta_i: float, n: int) -> OccurrenceStats:
    """Occurrence statistics of a letter of probability ``theta_i`` in n draws."""
    if not 0.0 < theta_i <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta_i}")
    if n < 1:
        raise ValueError("n must be >= 1")
    t = float(theta_i)
    p_absent = absent_probability(t, n)
    small = t <= 0.6
    absent_lo = math.exp(-n * (t + t * t)) if small else 0.0
    absent_hi = math.exp(-n * t)
    p_present = 1.0 - p_absent
    present_lo = 1.0 - absent_hi
    present_hi = (1.0 - absent_lo) if small else 1.0
    mean_re = n * t - 1.0 + p_absent
    re_lo = n * t - 1.0 + absent_lo
    re_hi = n * t - 1.0 + absent_hi

    refined: dict = {}
    if t <= 1.0 / n:
        c2 = math.comb(n, 2) * t * t
        c3 = math.comb(n, 3) * t ** 3
        refined = {
            "p_present_lo_refined": n * t - c2,
            "p_present_hi_refined": n * t - c2 + c3,
            "mean_reoccur_lo_refined": c2 - c3,
            "mean_reoccur_hi_refined": c2,
        }
    return OccurrenceStats(
        theta=t, n=n,
        p_absent=p_absent, p_absent_lo=absent_lo, p_absent_hi=absent_hi,
        p_present=p_present, p_present_lo=present_lo, p_present_hi=present_hi,
        mean_reoccur=mean_re, mean_reoccur_lo=re_lo, mean_reoccur_hi=re_hi,
        **refined,
    )
