"""Probability-space grids, bin statistics, and per-letter occurrence formulas.

Three square-law point sets partition (0, 1]: ``tau`` (spacing b^2/n^(1+eps)),
``eta`` (an index-shifted b^2/n^(1+2*eps) ladder with two special low points),
and ``xi`` (b^2/n^(1-eps), used for lower bounds).  Bins are left-open /
right-closed, so a probability equal to a grid point belongs to the lower bin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import ResourceCapError
from .distributions import ParamVector

GRID_POINT_CAP = 10_000_000

_KINDS = ("tau", "eta", "xi")


@dataclass(frozen=True)
class Grid:
    """One of the tau/eta/xi point sets, with the terminal point 1 appended.

    ``B`` is the index of the last regular point; ``A`` the last index whose
    point does not exceed 1/2.  ``flags`` records degenerate construction paths
    (eta fallback or merged colliding points).
    """

    kind: str
    n: int
    epsilon: float
    points: np.ndarray
    B: int
    A: int
    flags: tuple[str, ...] = ()

    @property
    def num_bins(self) -> int:
        return len(self.points) - 1


def low_thresholds(n: int, epsilon: float) -> tuple[float, float]:
    """The two low-probability boundaries 1/n^(1+eps) and 1/n^(1-eps).

    These delimit bins 0 and 1 of the eta grid and are used directly by the
    packed-entropy and low-letter computations so that they stay canonical even
    when the eta grid itself degenerates at small n.
    """
    nf = float(n)
    return nf ** -(1.0 + epsilon), nf ** -(1.0 - epsilon)


def closed_form_B(kind: str, n: int, epsilon: float, fallback: bool = False) -> int:
    nf = float(n)
    if kind == "tau":
        return math.floor(nf ** ((1.0 + epsilon) / 2.0))
    if kind == "xi":
        return math.floor(nf ** ((1.0 - epsilon) / 2.0))
    if kind == "eta":
        if fallback:
            return math.floor(nf ** ((1.0 + 2.0 * epsilon) / 2.0))
        return (math.floor(nf ** ((1.0 + 2.0 * epsilon) / 2.0))
                - math.floor(nf ** (1.5 * epsilon)) + 2)
    raise ValueError(f"unknown grid kind {kind!r}")


def closed_form_A(kind: str, n: int, epsilon: float, fallback: bool = False) -> int:
    nf = float(n)
    root2 = math.sqrt(2.0)
    if kind == "tau":
        return math.floor(nf ** ((1.0 + epsilon) / 2.0) / root2)
    if kind == "xi":
        return math.floor(nf ** ((1.0 - epsilon) / 2.0) / root2)
    if kind == "eta":
        if fallback:
            return math.floor(nf ** ((1.0 + 2.0 * epsilon) / 2.0) / root2)
        return (math.floor(nf ** ((1.0 + 2.0 * epsilon) / 2.0) / root2)
                - math.floor(nf ** (1.5 * epsilon)) + 2)
    raise ValueError(f"unknown grid kind {kind!r}")


def build_grid(kind: str, n: int, epsilon: float, max_points: int = GRID_POINT_CAP) -> Grid:
    """Construct a tau/eta/xi grid for horizon n.

    eps = 0 is allowed for tau and xi (where the point formulas remain valid);
    eta requires eps > 0.  Values of eps below (ln ln n)/(ln n) only trigger a
    warning: the grids are still well defined, the asymptotic bound guarantees
    are not.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {_KINDS}")
    if n < 2:
        raise ValueError("grid horizon n must be >= 2")
    if epsilon < 0.0 or (kind == "eta" and epsilon == 0.0):
        raise ValueError(f"epsilon must be {'> 0' if kind == 'eta' else '>= 0'} for {kind}")
    if kind == "xi" and epsilon >= 1.0:
        raise ValueError("xi grid requires epsilon < 1")
    if n >= 3 and epsilon < math.log(math.log(n)) / math.log(n):
        warnings.warn(
            f"epsilon={epsilon} is below (ln ln n)/(ln n)={math.log(math.log(n)) / math.log(n):.4f}; "
            "bound guarantees degrade in this regime",
            stacklevel=2,
        )

    nf = float(n)
    flags: list[str] = []
    if kind in ("tau", "xi"):
        denom = nf ** (1.0 + epsilon) if kind == "tau" else nf ** (1.0 - epsilon)
        B = closed_form_B(kind, n, epsilon)
        if B + 2 > max_points:
            raise ResourceCapError(f"{kind} grid would need {B + 2} points (cap {max_points})")
        pts = np.arange(B + 1, dtype=float) ** 2 / denom
    else:
        shift = math.floor(nf ** (1.5 * epsilon))
        eta1, eta2 = low_thresholds(n, epsilon)
        denom = nf ** (1.0 + 2.0 * epsilon)
        if shift < 2:
            flags.append("eta_fallback")
            B = closed_form_B("eta", n, epsilon, fallback=True)
            if B + 2 > max_points:
                raise ResourceCapError(f"eta grid would need {B + 2} points (cap {max_points})")
            pts = np.arange(B + 1, dtype=float) ** 2 / denom
        else:
            B = closed_form_B("eta", n, epsilon)
            if B + 2 > max_points:
                raise ResourceCapError(f"eta grid would need {B + 2} points (cap {max_points})")
            idx = np.arange(3, B + 1, dtype=float) + (shift - 2)
            pts = np.concatenate([[0.0, eta1, eta2], idx ** 2 / denom])
            if np.any(np.diff(pts) <= 0.0):
                # provably impossible in exact arithmetic; float-tie guard only
                flags.append("eta_collision_merged")
                keep = [0]
                for i in range(1, len(pts)):
                    if pts[i] > pts[keep[-1]]:
                        keep.append(i)
                pts = pts[keep]
                B = len(pts) - 1

    if pts[-1] < 1.0:
        pts = np.append(pts, 1.0)
    pts.setflags(write=False)
    A = int(np.searchsorted(pts, 0.5, side="right") - 1)
    return Grid(kind=kind, n=n, epsilon=epsilon, points=pts, B=B, A=A, flags=tuple(flags))


def bin_index(grid: Grid, theta):
    """Bin b with theta in (points[b], points[b+1]]; left-open on purpose.

    A scalar gives an int, an array of probabilities an array of bins.
    """
    t = np.asarray(theta, dtype=float)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    bins = np.searchsorted(grid.points, t, side="left") - 1
    return int(bins) if bins.ndim == 0 else bins


@dataclass(frozen=True)
class BinStats:
    """Per-bin counts, masses and occupancy means for one grid.

    ``counts`` are distinct-letter counts per bin (the c/k/kappa counters,
    depending on the grid kind), ``phi`` the total probability mass,
    ``ell`` = min(count, n), and ``L`` the expected number of distinct bin
    letters appearing in n draws.  eta grids also carry the merged low-bin
    scalars; xi grids carry the overlap counters ``kappa_prime``.
    """

    kind: str
    n: int
    counts: np.ndarray
    phi: np.ndarray
    ell: np.ndarray
    L: np.ndarray
    kappa_prime: np.ndarray | None = None
    k01: int | None = None
    phi01: float | None = None
    ell01: int | None = None
    L01: float | None = None


def absent_probability(theta: float, n: int) -> float:
    """(1 - theta)^n, evaluated stably as exp(n * log1p(-theta))."""
    if theta >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-theta))


def bin_stats(grid: Grid, theta: ParamVector, *, occupancy: np.ndarray | None = None) -> BinStats:
    """Aggregate counts / masses / occupancy means of ``theta`` over ``grid``.

    ``occupancy`` is the per-group 1 - (1 - theta)^n for n = grid.n; pass it
    when it is already at hand so several grids share one evaluation.
    """
    nbins = grid.num_bins
    n = grid.n
    values, mult = theta.values, theta.counts
    bins = bin_index(grid, values)
    counts = np.zeros(nbins, dtype=np.int64)
    phi = np.zeros(nbins, dtype=float)
    L = np.zeros(nbins, dtype=float)
    occ = occupancy
    if occ is None:
        occ = np.array([1.0 - absent_probability(float(v), n) for v in values])
    np.add.at(counts, bins, mult)
    np.add.at(phi, bins, mult * values)
    np.add.at(L, bins, mult * occ)
    ell = np.minimum(counts, n)

    kwargs: dict = {}
    if grid.kind == "eta":
        k01 = int(counts[0] + counts[1]) if nbins > 1 else int(counts[0])
        phi01 = float(phi[0] + phi[1]) if nbins > 1 else float(phi[0])
        L01 = float(L[0] + L[1]) if nbins > 1 else float(L[0])
        kwargs.update(k01=k01, phi01=phi01, ell01=int(min(k01, n)), L01=L01)
    elif grid.kind == "xi":
        kp = np.zeros(nbins, dtype=np.int64)
        last = len(grid.points) - 1
        for b in range(1, nbins):
            if counts[b] == 0:
                continue
            lo = grid.points[b - 1] if b >= 2 else grid.points[1]
            hi = grid.points[min(b + 2, last)]
            in_window = (values > lo) & (values <= hi)
            kp[b] = int(mult[in_window].sum())
        kwargs.update(kappa_prime=kp)
    return BinStats(kind=grid.kind, n=n, counts=counts, phi=phi, ell=ell, L=L, **kwargs)


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


def mean_bin_occupancy_bounds(grid: Grid, theta: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin lower/upper bounds on L_b from the exponential occurrence bounds."""
    nbins = grid.num_bins
    n = grid.n
    values, mult = theta.values, theta.counts
    bins = bin_index(grid, values)
    lo = np.zeros(nbins, dtype=float)
    hi = np.zeros(nbins, dtype=float)
    for v, c, b in zip(values, mult, bins):
        v = float(v)
        c = float(c)
        lo[b] += c * (1.0 - math.exp(-n * v))
        hi[b] += c * (1.0 - (math.exp(-n * (v + v * v)) if v <= 0.6 else 0.0))
    return lo, hi


def low_bin_occupancy_bounds(theta: ParamVector, n: int, epsilon: float) -> tuple[float, float]:
    """Binomial-expansion bounds on L_0 (letters with theta <= 1/n^(1+eps))."""
    thr1, _ = low_thresholds(n, epsilon)
    mask = theta.values <= thr1
    phi0 = float(np.sum(theta.counts[mask] * theta.values[mask]))
    s2 = float(np.sum(theta.counts[mask] * theta.values[mask] ** 2))
    s3 = float(np.sum(theta.counts[mask] * theta.values[mask] ** 3))
    lo = n * phi0 - math.comb(n, 2) * s2
    hi = n * phi0 - math.comb(n, 2) * s2 + math.comb(n, 3) * s3
    return lo, hi
