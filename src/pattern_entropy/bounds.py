"""Closed-form pattern-entropy bounds with per-term breakdowns.

Every evaluator returns a :class:`BoundReport` whose value is exactly the sum
of its named terms.  Asymptotic residuals that the source formulas carry but
never quantify (o(1), o(k), ...) are surfaced as flags, never invented as
numbers; acceptance checks budget for them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._common import (LOG2E, ResourceCapError, elementwise, exact_sum, log2_binomial,
                      log2_factorial, xlog2x)
from .distributions import ParamVector, binary_entropy, entropy_terms
from .grids import BinStats, Grid, absent_probability, bin_stats, build_grid, low_thresholds

DEFAULT_VARTHETA_MINUS = math.exp(-5.5)
DEFAULT_VARTHETA_PLUS = math.exp(1.4)
PMF_CAP = 500_000
GAMMA_TOL = 1e-12  # bisection stops once the bracket is this narrow
GAMMA_MAX_ITER = 1000

UB3_VARIANTS = ("ub3", "c1", "c21", "c2_exact", "c2_loosened")


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its additive term breakdown."""

    name: str
    terms: tuple[tuple[str, float], ...]
    residual_flags: tuple[str, ...] = ()
    valid: bool = True
    notes: tuple[str, ...] = ()

    @property
    def value(self) -> float:
        return math.fsum(t for _, t in self.terms)

    def term(self, name: str) -> float:
        for key, val in self.terms:
            if key == name:
                return val
        raise KeyError(name)


@dataclass(frozen=True)
class PackedEntropies:
    """Surrogate per-symbol entropies with low bins packed to point masses."""

    h0: float
    h01: float
    h0_1: float


@dataclass(frozen=True)
class _LowStats:
    """Grouped statistics of the two low-probability regions.

    The source's values ascend, so bin 0 is its groups [:i1], bin 1 the
    groups [i1:i2] and the whole low region the groups [:i2]."""

    thr1: float
    thr2: float
    i1: int
    i2: int
    k0: int
    k1: int
    k01: int
    phi0: float
    phi1: float
    phi01: float
    L0: float
    L1: float
    L01: float
    ell0: int
    ell1: int
    ell01: int
    sq0: float
    low_values: np.ndarray
    low_counts: np.ndarray


@dataclass(frozen=True, eq=False)
class SourceAnalysis:
    """The per-source quantities every bound evaluator reads, for one (theta, n, eps).

    Each field is built on first read and kept for the life of the object, so
    a bound that never reads a grid never builds it, and a table of bounds
    builds each grid, its bin statistics, the low split and the packed
    entropies once.
    """

    theta: ParamVector
    n: int
    epsilon: float

    @cached_property
    def notes(self) -> tuple[str, ...]:
        """One note when eps is below (ln ln n)/(ln n): the grids are still
        well defined there, the asymptotic bound guarantees are not."""
        n = self.n
        floor = math.log(math.log(n)) / math.log(n) if n >= 3 else -math.inf
        if self.epsilon >= floor:
            return ()
        return (f"epsilon {self.epsilon:.6g} below (ln ln n)/(ln n) = {floor:.4f}: "
                "bound guarantees degrade",)

    @cached_property
    def plog2p(self) -> np.ndarray:
        """Per-group c * v * log2(v), the summands of -H(X)."""
        return entropy_terms(self.theta)

    @cached_property
    def h_x(self) -> float:
        """Source entropy H(X) in bits per symbol."""
        return -exact_sum(self.plog2p)

    @cached_property
    def absent(self) -> np.ndarray:
        """Per-group probability (1 - theta)^n that a letter is missing from n draws."""
        return absent_probability(self.theta.values, self.n)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """Per-group probability 1 - (1 - theta)^n that a letter occurs in n draws."""
        return 1.0 - self.absent

    @cached_property
    def eta_grid(self) -> Grid:
        return build_grid("eta", self.n, self.epsilon)

    @cached_property
    def eta_stats(self) -> BinStats:
        return bin_stats(self.eta_grid, self.theta, occupancy=self.occupancy)

    @cached_property
    def xi_grid(self) -> Grid:
        return build_grid("xi", self.n, self.epsilon)

    @cached_property
    def xi_stats(self) -> BinStats:
        return bin_stats(self.xi_grid, self.theta, occupancy=self.occupancy)

    @cached_property
    def tau_grid(self) -> Grid:
        return build_grid("tau", self.n, self.epsilon)

    @cached_property
    def tau_stats(self) -> BinStats:
        return bin_stats(self.tau_grid, self.theta, occupancy=self.occupancy)

    @cached_property
    def low(self) -> _LowStats:
        """The two low regions: at most 1/n^(1+eps), and up to 1/n^(1-eps)."""
        n = self.n
        thr1, thr2 = low_thresholds(n, self.epsilon)
        v, c, occ = self.theta.values, self.theta.counts, self.occupancy
        i1, i2 = np.searchsorted(v, (thr1, thr2), side="right").tolist()
        k0 = int(c[:i1].sum())
        k1 = int(c[i1:i2].sum())
        phi0 = float(np.sum(c[:i1] * v[:i1]))
        phi1 = float(np.sum(c[i1:i2] * v[i1:i2]))
        L0 = exact_sum(c[:i1] * occ[:i1])
        L1 = exact_sum(c[i1:i2] * occ[i1:i2])
        return _LowStats(
            thr1=thr1, thr2=thr2, i1=i1, i2=i2,
            k0=k0, k1=k1, k01=k0 + k1,
            phi0=phi0, phi1=phi1, phi01=phi0 + phi1,
            L0=L0, L1=L1, L01=L0 + L1,
            ell0=min(k0, n), ell1=min(k1, n), ell01=min(k0 + k1, n),
            sq0=float(np.sum(c[:i1] * v[:i1] ** 2)),
            low_values=v[:i2], low_counts=c[:i2],
        )

    @cached_property
    def packed(self) -> PackedEntropies:
        return packed_entropies(self)


def packed_entropies(analysis: SourceAnalysis) -> PackedEntropies:
    """The three packed per-symbol entropies for the eta grid's low bins.

    Uses the canonical low thresholds 1/n^(1+eps) and 1/n^(1-eps), so no grid
    is read and the values stay well defined where the eta grid degenerates.
    """
    low, terms = analysis.low, analysis.plog2p
    tail_high = -exact_sum(terms[low.i2:])
    tail_1_high = -exact_sum(terms[low.i1:])
    return PackedEntropies(
        h0=-xlog2x(low.phi0) + tail_1_high,
        h01=-xlog2x(low.phi01) + tail_high,
        h0_1=-xlog2x(low.phi0) - xlog2x(low.phi1) + tail_high,
    )


def simple_bounds(analysis: SourceAnalysis) -> tuple[BoundReport, BoundReport]:
    """The data-processing sandwich: nH(X) minus the log of index-to-letter mappings."""
    k, n = analysis.theta.k, analysis.n
    h_block = n * analysis.h_x
    mappings = log2_factorial(k) - log2_factorial(max(0, k - n))
    lower = BoundReport(
        name="simple_lower",
        terms=(("block_entropy", h_block), ("mapping_deduction", -mappings)),
    )
    upper = BoundReport(name="simple_upper", terms=(("block_entropy", h_block),))
    return lower, upper


def epsilon_n(n: int, epsilon: float) -> float:
    """The atypicality mass bound exp(-0.1 n^eps + (2 - eps) ln n)."""
    return math.exp(-0.1 * float(n) ** epsilon + (2.0 - epsilon) * math.log(n))


def _perm_deduction_sum(bins: np.ndarray, counts: np.ndarray, lo: int, hi: int) -> float:
    """Sum of log2(count!) over the occupied bins lo..hi inclusive.

    ``counts`` is aligned with ``bins``, the ascending occupied-bin indices.
    """
    window = counts[(bins >= lo) & (bins <= hi)]
    return float(math.fsum(log2_factorial(int(m)) for m in window[window > 1]))


def ub_theorem1(analysis: SourceAnalysis, tighten: bool = False) -> BoundReport:
    """Upper bound for bounded-away probabilities: block entropy minus the
    discounted log permutation count within eta bins 2..A."""
    theta, n, epsilon = analysis.theta, analysis.n, analysis.epsilon
    stats = analysis.eta_stats
    perm = _perm_deduction_sum(stats.bins, stats.counts, 2, analysis.eta_grid.A)
    notes: list[str] = []
    eps_used = epsilon
    if tighten:
        eps_used = math.exp(-(0.1 * float(n) ** epsilon - 2.0 * math.log(n)))
        notes.append(f"epsilon substituted by {eps_used:.6g}")
        if eps_used >= epsilon:
            notes.append("substitution is not a tightening at this n")
    valid = bool(theta.values[0] > analysis.low.thr2)
    return BoundReport(
        name="ub_theorem1_tightened" if tighten else "ub_theorem1",
        terms=(
            ("block_entropy", n * analysis.h_x),
            ("permutation_deduction", -(1.0 - eps_used) * perm),
        ),
        residual_flags=("o(k)",),
        valid=valid,
        notes=tuple(notes),
    )


def lb_theorem2(analysis: SourceAnalysis) -> tuple[BoundReport, BoundReport]:
    """Lower bounds for bounded-away probabilities over xi bins 1..A.

    Variant A deducts the in-bin permutation count plus k*log2(3); variant B
    deducts the overlap-counter permutation count instead.
    """
    theta, n = analysis.theta, analysis.n
    stats, A = analysis.xi_stats, analysis.xi_grid.A
    h_block = n * analysis.h_x
    sum_a = _perm_deduction_sum(stats.bins, stats.counts, 1, A)
    sum_b = _perm_deduction_sum(stats.bins, stats.kappa_prime, 1, A)
    valid = bool(theta.values[0] > analysis.low.thr2)
    rep_a = BoundReport(
        name="lb_theorem2_a",
        terms=(
            ("block_entropy", h_block),
            ("permutation_deduction", -sum_a),
            ("bin_adjacency_deduction", -theta.k * math.log2(3.0)),
        ),
        residual_flags=("o(1)",),
        valid=valid,
    )
    rep_b = BoundReport(
        name="lb_theorem2_b",
        terms=(
            ("block_entropy", h_block),
            ("overlap_permutation_deduction", -sum_b),
        ),
        residual_flags=("o(1)",),
        valid=valid,
    )
    return rep_a, rep_b


def distinct_count_pmf(analysis: SourceAnalysis, b: int) -> np.ndarray:
    """Distribution of the number of distinct letters of tau bin b seen in n draws.

    Uses the independent-occurrence surrogate: each letter appears with its own
    probability 1 - (1-theta)^n, independently; groups of equal-probability
    letters contribute binomial blocks convolved together.  This is a
    documented approximation (true occurrence indicators are weakly dependent);
    see the verification suite for the Monte Carlo / exact cross-checks.
    The bin's groups and their occupancy are read from ``analysis``
    (``tau_stats.group_bin``, ``occupancy`` and its complement ``absent``).
    """
    sel = analysis.tau_stats.group_bin == b
    c = analysis.theta.counts[sel]
    total = int(c.sum())
    if total + 1 > PMF_CAP:
        raise ResourceCapError(f"bin {b} holds {total} letters, so its pmf of {total + 1} "
                               f"entries exceeds PMF_CAP ({PMF_CAP})")
    pmf = np.array([1.0])
    for cc, p, q in zip(c.tolist(), analysis.occupancy[sel].tolist(), analysis.absent[sel].tolist()):
        pmf = np.convolve(pmf, binomial_pmf(cc, p, q))
    return pmf


# Loader's Stirling error ln(m!) - (m + 1/2) ln m + m - ln sqrt(2 pi) at
# m = 0..15, from a 50-digit evaluation rounded to float64 (m = 0 is unused).
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_LN_2PI = 1.8378770664093456  # ln(2 pi), correctly rounded (math.log(2 * math.pi) is 1 ulp low)


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """Stirling error of m! for integer-valued m >= 1: the table up to 15, then
    the asymptotic series to its m^-9 term, whose first omitted term is below
    1.2e-16 for m > 15."""
    out = np.empty(m.shape)
    small = m <= 15
    out[small] = _STIRLERR_TABLE[m[small].astype(np.intp)]
    big = m[~small]
    mm = big * big
    out[~small] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / big
    return out


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Loader's deviance term x ln(x / mean) + mean - x, for x > 0 and mean > 0.

    Where x is within 10 % of mean the closed form cancels, so there it is
    summed as the series 2 x v^3/3 + 2 x v^5/5 + ... on top of (x - mean) v,
    with v = (x - mean) / (x + mean), |v| < 0.1, until no term moves the sum.
    """
    d = x - mean
    out = x * np.log(x / mean) - d
    near = np.abs(d) < 0.1 * (x + mean)
    if near.any():
        dn, xn = d[near], x[near]
        v = dn / (xn + mean[near])
        s = dn * v
        term, v2, j = 2.0 * xn * v, v * v, 3
        while True:
            term *= v2
            s_next = s + term / j
            if np.array_equal(s_next, s):
                break
            s, j = s_next, j + 2
        out[near] = s
    return out


def binomial_pmf(c: int, p: float, q: float) -> np.ndarray:
    """P(X = x) for x = 0..c where X ~ Binomial(c, p); ``q`` is 1 - p.

    Taking q from the caller keeps its digits when p is near 1, where 1 - p
    would cancel.  Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000; the method of R's dbinom)
    writes each log-probability as Stirling errors and deviance terms that
    are all small near the mode, so the mass is accurate to a few ulp there;
    a difference of log-gammas loses about 1e-11 absolute at c = 1e5.
    """
    if c <= 1:
        return np.array([1.0]) if c == 0 else np.array([q, p])
    if q == 0.0 or p == 0.0:
        block = np.zeros(c + 1)
        block[c if q == 0.0 else 0] = 1.0
        return block
    cf = float(c)
    ends = np.array([cf, cf])
    # x = 0 and x = c: c ln q and c ln p, as -bd0 - c p when that is the sharper form
    dev = _bd0(ends, np.array([cf * q, cf * p]))
    lc0 = -dev[0] - cf * p if p < 0.1 else cf * math.log(q)
    lcc = -dev[1] - cf * q if q < 0.1 else cf * math.log(p)
    x = np.arange(1.0, cf)
    se = _stirlerr(x)
    # ln(2 pi x (c - x) / c) from the nearer end, so x near c does not cancel in 1 - x/c
    near_end = np.minimum(x, x[::-1])
    inner = (_stirlerr(ends[:1]) - se - se[::-1]
             - _bd0(x, np.full(x.shape, cf * p)) - _bd0(x[::-1], np.full(x.shape, cf * q))
             - 0.5 * (_LN_2PI + np.log(near_end) + np.log1p(-near_end / cf)))
    return np.exp(np.concatenate(([lc0], inner, [lcc])))


def _bin0_packing_term(low: _LowStats, n: int) -> tuple[float, list[str]]:
    if low.k0 == 0 or low.sq0 <= 0.0:
        return 0.0, ["bin0 packing term vanishes (no bin-0 letters)"]
    arg = 2.0 * math.e * low.phi0 * low.ell0 / (n * low.sq0)
    return (n * n / 2.0) * low.sq0 * math.log2(arg), []


def _bin1_packing_terms(phi: float, L: float, ell: int, n: int,
                        label: str) -> tuple[float, float, list[str]]:
    if phi <= 0.0 or ell == 0:
        return 0.0, 0.0, [f"{label} packing terms vanish (no such letters)"]
    ratio = min(1.0, L / (n * phi))
    return (n * phi - L) * math.log2(ell), n * phi * binary_entropy(ratio), []


def ub_theorem3_family(analysis: SourceAnalysis, variant: str) -> BoundReport:
    """General upper bounds built from the sequential-assignment description length.

    Variants: ``ub3`` packs eta bins 0 and 1 separately; ``c1`` packs them as
    one mass; ``c21`` packs bin 0 only and codes each larger letter on its own;
    ``c2_exact`` / ``c2_loosened`` additionally credit first occurrences within
    tau bins, with the distinct-count distribution either computed (surrogate
    model) or replaced by its Jensen bound E[C] log2(E[C]/e).
    """
    if variant not in UB3_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {UB3_VARIANTS}")
    n, epsilon = analysis.n, analysis.epsilon
    low, packed = analysis.low, analysis.packed
    notes: list[str] = []
    terms: list[tuple[str, float]] = []
    flags: tuple[str, ...] = ()

    if variant in ("ub3", "c1"):
        stats = analysis.eta_stats
        perm = _perm_deduction_sum(stats.bins, stats.counts, 2, analysis.eta_grid.A)
        flags = ("o-terms absorbed by the epsilon discount",)
        if variant == "ub3":
            t_reocc, t_h2, note1 = _bin1_packing_terms(low.phi1, low.L1, low.ell1, n, "bin1")
            t_bin0, note0 = _bin0_packing_term(low, n)
            notes += note1 + note0
            terms = [
                ("packed01_block_entropy", n * packed.h0_1),
                ("permutation_deduction", -(1.0 - epsilon) * perm),
                ("bin1_reoccurrence_cost", t_reocc),
                ("bin1_occupancy_cost", t_h2),
                ("bin0_packing_cost", t_bin0),
            ]
        else:
            t_reocc, t_h2, note1 = _bin1_packing_terms(low.phi01, low.L01, low.ell01, n, "bin01")
            notes += note1
            terms = [
                ("packed01merged_block_entropy", n * packed.h01),
                ("permutation_deduction", -(1.0 - epsilon) * perm),
                ("bin01_reoccurrence_cost", t_reocc),
                ("bin01_occupancy_cost", t_h2),
            ]
    else:
        t_bin0, note0 = _bin0_packing_term(low, n)
        notes += note0
        if variant == "c21":
            terms = [
                ("packed0_block_entropy", n * packed.h0),
                ("bin0_packing_cost", t_bin0),
            ]
        else:
            tstats, A = analysis.tau_stats, analysis.tau_grid.A
            gain = 0.0
            for b, cb, Lb in zip(tstats.bins.tolist(), tstats.counts.tolist(), tstats.L.tolist()):
                if not 1 <= b <= A:
                    continue
                if variant == "c2_loosened":
                    gain += Lb * math.log2(Lb / math.e)
                else:
                    pmf = distinct_count_pmf(analysis, b)
                    lf_cb = log2_factorial(cb)
                    gain += math.fsum(
                        float(pmf[m]) * (lf_cb - log2_factorial(cb - m))
                        for m in range(len(pmf))
                        if pmf[m] > 0.0
                    )
            big = (tstats.bins >= 1) & (tstats.counts > 1)
            crowd = float(np.sum(tstats.counts[big]))
            divergence = 9.0 * LOG2E / float(n) ** epsilon * crowd
            terms = [
                ("packed0_block_entropy", n * packed.h0),
                ("first_occurrence_gain", -gain),
                ("bin_divergence_correction", divergence),
                ("bin0_packing_cost", t_bin0),
            ]
            if variant == "c2_exact":
                notes.append("distinct-count pmf uses the independent-occurrence surrogate")
    return BoundReport(
        name=f"ub_theorem3_{variant}",
        terms=tuple(terms),
        residual_flags=flags,
        valid=True,
        notes=tuple(notes),
    )


def _boundary_counts(analysis: SourceAnalysis, vartheta_minus: float,
                     vartheta_plus: float) -> tuple[int, int]:
    """Letters in (vartheta- thr2, thr2] and in (thr2, vartheta+ thr2]: lb4's k- and k+."""
    thr2, i2 = analysis.low.thr2, analysis.low.i2
    lo, hi = np.searchsorted(analysis.theta.values, (vartheta_minus * thr2, vartheta_plus * thr2),
                             side="right").tolist()
    c = analysis.theta.counts
    return int(c[lo:i2].sum()), int(c[i2:hi].sum())


def lb_theorem4(analysis: SourceAnalysis,
                s1_variant: str = "b1", s2_variant: str = "b1",
                vartheta_minus: float = DEFAULT_VARTHETA_MINUS,
                vartheta_plus: float = DEFAULT_VARTHETA_PLUS,
                s3_from_origin: bool = False) -> BoundReport:
    """General lower bound: packed block entropy with four correction terms.

    S1 deducts in-bin permutations of the larger letters (variant ``b1`` uses
    plain counters plus an adjacency allowance, ``b2`` the overlap counters);
    S2 adds the re-occurrence cost of low letters; S3 their first-occurrence
    cost; S4 deducts the low/large boundary ambiguity within the vartheta
    window.
    """
    if not (vartheta_plus > 1.0 > vartheta_minus > 0.0):
        raise ValueError("need vartheta_plus > 1 > vartheta_minus > 0")
    if s1_variant not in ("b1", "b2") or s2_variant not in ("b1", "b2"):
        raise ValueError("variants must be 'b1' or 'b2'")
    theta, n, epsilon = analysis.theta, analysis.n, analysis.epsilon
    low = analysis.low
    xstats, A = analysis.xi_stats, analysis.xi_grid.A

    if s1_variant == "b1":
        kappa0 = int(xstats.counts[xstats.bins == 0].sum())
        s1 = (_perm_deduction_sum(xstats.bins, xstats.counts, 1, A)
              + (theta.k - kappa0) * math.log2(3.0))
    else:
        s1 = _perm_deduction_sum(xstats.bins, xstats.kappa_prime, 1, A)

    s2 = 0.0
    s3 = 0.0
    notes: list[str] = []
    if low.k01 > 0 and low.phi01 > 0.0:
        lv, lc = low.low_values, low.low_counts
        nf = float(n)
        last_val = float(lv[-1])
        split_last = last_val > 0.6
        # per low group: log2(phi01 / v) and the lower bound n v - 1 + exp(-n (v + v^2))
        # on one letter's mean re-occurrence count
        gain = elementwise(math.log2, low.phi01 / lv)
        reocc = nf * lv - 1.0 + elementwise(math.exp, -nf * (lv + lv * lv))
        reocc_counts = lc.copy()
        if split_last or s2_variant == "b2":
            reocc_counts[-1] -= 1  # the last low letter leaves the sum
        pieces = reocc_counts * reocc * gain
        if s2_variant == "b1":
            s2 = exact_sum(pieces[reocc_counts > 0])
            if split_last:
                s2 += (n * last_val - 1.0) * math.log2(low.phi01 / last_val)
                notes.append("last low letter exceeds 3/5; split form applied")
        else:
            i1 = low.i1  # bin 0 is the head of the low region
            # v ** 2 through libm's pow, which differs from numpy's v * v in the last bit
            head = (1.0 - nf ** -epsilon) * (n * n / 2.0) * exact_sum(
                lc[:i1] * elementwise(lambda x: x ** 2, lv[:i1]) * gain[:i1])
            s2 = head + exact_sum(pieces[i1:][reocc_counts[i1:] > 0])

        # S3: worst-case first-occurrence penalty over the smallest low letters,
        # ranked from 1 upwards; group g holds the ranks first..last
        L01 = low.L01
        top_rank = math.floor(L01) - 1 if not s3_from_origin else math.floor(L01)
        if top_rank >= 1:
            last = np.cumsum(lc)
            first = last - lc + 1
            hit = int(np.searchsorted(first, top_rank, side="right"))  # ranks ascend
            a = first[:hit].astype(float)
            b = np.minimum(last[:hit], top_rank).astype(float)
            width = b - a + 1.0
            # sum of (L01 - i) (from the origin: L01 - (i - 1)) over ranks i in [a, b]
            origin = L01 + 1.0 if s3_from_origin else L01
            coeff = width * origin - (a + b) * width / 2.0
            s3 = LOG2E * exact_sum(coeff * lv[:hit] / low.phi01)

    k_minus, k_plus = _boundary_counts(analysis, vartheta_minus, vartheta_plus)
    s4 = log2_binomial(k_minus + k_plus, k_plus)

    return BoundReport(
        name=f"lb_theorem4_{s1_variant}_{s2_variant}",
        terms=(
            ("packed01merged_block_entropy", n * analysis.packed.h01),
            ("first_occurrence_deduction_S1", -s1),
            ("low_reoccurrence_gain_S2", s2),
            ("low_first_occurrence_gain_S3", s3),
            ("boundary_separation_S4", -s4),
        ),
        residual_flags=("o(1)",),
        valid=True,
        notes=tuple(notes),
    )


def contribution_limits(analysis: SourceAnalysis) -> tuple[BoundReport, BoundReport]:
    """Upper limits on what low letters can add beyond their point mass.

    Part I bounds the combined low-letter (both low bins) contribution; Part II
    bounds the bin-0 packing cost, whose residual order is recorded at mu = 1.
    """
    n, epsilon, low = analysis.n, analysis.epsilon, analysis.low
    nf = float(n)
    if low.ell01 >= 1:
        part1_val = (n * low.phi01 * math.log2(low.ell01)
                     + low.phi01 * nf ** (1.0 - epsilon)
                     * math.log2(math.e * nf ** epsilon / low.ell01))
    else:
        part1_val = 0.0
    notes1 = []
    if low.k01 < (1.0 + epsilon) * nf ** epsilon:
        notes1.append("sparse-low branch: the O(n^(2 eps) log n) alternative applies")
    part1 = BoundReport(
        name="contribution_limit_low01",
        terms=(("combined_low_contribution", part1_val),),
        residual_flags=("Theta(phi01 n^(1-eps) exp(-n^eps))",),
        notes=tuple(notes1),
    )
    part2_val = (low.phi0 * nf ** (1.0 - epsilon) / 2.0
                 * math.log2(2.0 * math.e * nf ** (1.0 + epsilon)))
    if low.phi0 == 0.0:
        part2_val = 0.0
    part2 = BoundReport(
        name="contribution_limit_bin0",
        terms=(("bin0_contribution", part2_val),),
        residual_flags=("O(n^(2-mu-eps) log n) with mu=1.0",),
    )
    return part1, part2


def stirling_bounds(m: int) -> tuple[float, float]:
    """log2-space bracket sqrt(2 pi m)(m/e)^m <= m! <= ... e^(1/(12m))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lo = 0.5 * math.log2(2.0 * math.pi * m) + m * math.log2(m / math.e)
    hi = lo + LOG2E / (12.0 * m)
    return lo, hi


def gamma_fixed_point(ln_ratio: float) -> tuple[float | None, float | None]:
    """Solve g = ln((g-1)^2 / g^3) + (1 + ln_ratio) for g >= 2 by bisection.

    ``ln_ratio`` is ln(k^3 / n^(1+eps)).  Returns (gamma, residual); gamma is
    None when no root >= 2 exists (the alphabet is too small for the staircase
    optimization to bind).
    """
    c = 1.0 + ln_ratio

    def residual(g: float) -> float:
        return g - c - math.log((g - 1.0) ** 2 / g ** 3)

    if residual(2.0) > 0.0:
        return None, None
    lo, hi = 2.0, max(c, 2.0 + GAMMA_TOL)
    if residual(hi) < 0.0:
        while residual(hi) < 0.0:
            hi *= 2.0
    for _ in range(GAMMA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < GAMMA_TOL:
            break
    g = 0.5 * (lo + hi)
    return g, residual(g)


def range_decreases(k: int, n, epsilon: float, epsilon1: float) -> dict:
    """Entropy-decrease quantities of the alphabet-size range bound, per k.

    All upper-side decreases are 0 below the threshold k = n^(1/3 + eps).
    ``upper_stirling`` is the Stirling frontier (the asymptotic form of the
    staircase optimum, exponent eps/3 with its log-log term); ``upper_asym``
    is the simplified exponent-eps/2 form that absorbs the log-log term;
    ``upper_nonasym`` adds the finite-n occurrence and divergence corrections.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nf = float(n)
    ln_n = math.log(nf)
    log2_n = ln_n * LOG2E
    log2_k = math.log2(k)
    threshold = nf ** (1.0 / 3.0 + epsilon)
    out: dict = {
        "k": k,
        "threshold": threshold,
        "upper_valid": k >= threshold,
        "lower_logkfact": log2_factorial(k),
        "lower_stirling": stirling_bounds(k)[0] if k >= 1 else 0.0,
        "gamma": None,
        "gamma_residual": None,
        "beta_opt": None,
        "beta_gamma": None,
        "upper_asym": 0.0,
        "upper_stirling": 0.0,
        "upper_nonasym": 0.0,
    }
    if k < threshold:
        return out
    ln_ratio = 3.0 * math.log(k) - (1.0 + epsilon) * ln_n
    gamma, resid = gamma_fixed_point(ln_ratio)
    out["gamma"] = gamma
    out["gamma_residual"] = resid
    if (1.0 + epsilon) * ln_n - math.log(k) < 700.0:
        a_over_k = nf ** (1.0 + epsilon) / k
        out["beta_opt"] = math.sqrt(a_over_k * ln_ratio) if ln_ratio > 0 else None
        out["beta_gamma"] = math.sqrt(gamma * a_over_k) if gamma is not None else None
    out["upper_asym"] = max(
        0.0, 1.5 * k * (log2_k - LOG2E - (1.0 / 3.0 + epsilon / 2.0) * log2_n))
    bracket = 1.5 * k * (log2_k - LOG2E - (1.0 / 3.0 + epsilon / 3.0) * log2_n)
    if ln_ratio > 0.0:
        bracket -= 0.5 * k * (1.0 - 1.0 / ln_ratio) * math.log2(ln_ratio)
    out["upper_stirling"] = max(0.0, bracket)
    pow_eps1 = epsilon1 * ln_n
    occ_factor = 1.0 - k * math.exp(-math.exp(pow_eps1)) if pow_eps1 < 6.5 else 1.0
    nonasym = occ_factor * bracket - 9.0 * k * LOG2E / nf ** epsilon
    out["upper_nonasym"] = max(0.0, nonasym)
    return out


def range_theorem5(analysis: SourceAnalysis, epsilon1: float) -> tuple[BoundReport, BoundReport]:
    """Entropy range from the alphabet size: (lower, upper) absolute bounds,
    each the block entropy n * ``analysis.h_x`` less a deduction in k."""
    h_block = (("block_entropy", float(analysis.n) * analysis.h_x),)
    row = range_decreases(analysis.theta.k, analysis.n, analysis.epsilon, epsilon1)
    lower = BoundReport(
        name="range_lower",
        terms=h_block + (("mapping_deduction", -row["lower_logkfact"]),),
    )
    notes = () if row["upper_valid"] else (
        "k below n^(1/3+eps): the upper branch is the plain block entropy",)
    upper = BoundReport(
        name="range_upper_nonasymptotic",
        terms=h_block + (("staircase_deduction", -row["upper_nonasym"]),),
        valid=bool(row["upper_valid"]),
        notes=notes,
    )
    return lower, upper
