"""The per-group sums of the bound path, evaluated as arrays, keep every bit.

Each reference below is the scalar expression the package used before its
per-group sums became array expressions: one Python-level term per group,
summed with ``math.fsum``.  The array forms must agree with ``==``, not within
a tolerance, so no printed digit of a bound table can move.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pattern_entropy import _common, bounds, cli, distributions, grids
from pattern_entropy._common import LOG2E, xlog2x
from pattern_entropy.bounds import (DEFAULT_VARTHETA_MINUS, DEFAULT_VARTHETA_PLUS, SourceAnalysis,
                                    lb_theorem4, packed_entropies)
from pattern_entropy.distributions import ParamVector, iid_entropy
from pattern_entropy.grids import absent_probability, bin_stats, low_thresholds


def _ref_absent(theta: float, n: int) -> float:
    if theta >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-theta))


def _ref_h_x(theta: ParamVector) -> float:
    return -math.fsum(c * v * math.log2(v) for v, c in theta.groups())


def _ref_occupancy(theta: ParamVector, n: int) -> np.ndarray:
    return np.array([1.0 - _ref_absent(float(v), n) for v in theta.values])


def _ref_tail(theta: ParamVector, threshold: float) -> float:
    return -math.fsum(cc * vv * math.log2(vv)
                      for vv, cc in zip(theta.values, theta.counts) if vv > threshold)


def _ref_total(values, counts) -> float:
    return math.fsum(float(c) * float(v) for c, v in zip(counts, values))


def _ref_s2_factor(theta_i: float, n: int) -> float:
    return n * theta_i - 1.0 + math.exp(-n * (theta_i + theta_i * theta_i))


def _ref_s2_s3(analysis: SourceAnalysis, s2_variant: str, s3_from_origin: bool):
    """lb4's S2 and S3 with one loop iteration per low group."""
    n, epsilon, low = analysis.n, analysis.epsilon, analysis.low
    s2 = s3 = 0.0
    if not (low.k01 > 0 and low.phi01 > 0.0):
        return s2, s3
    lv, lc = low.low_values, low.low_counts
    last_val = float(lv[-1])
    split_last = last_val > 0.6
    if s2_variant == "b1":
        pieces = []
        for vv, cc in zip(lv, lc):
            vv, cc = float(vv), int(cc)
            if split_last and vv == last_val:
                cc -= 1
            if cc > 0:
                pieces.append(cc * _ref_s2_factor(vv, n) * (math.log2(low.phi01) - math.log2(vv)))
        s2 = math.fsum(pieces)
        if split_last:
            s2 += (n * last_val - 1.0) * (math.log2(low.phi01) - math.log2(last_val))
    else:
        bin0 = lv <= low_thresholds(n, epsilon)[0]
        head = (1.0 - float(n) ** -epsilon) * (n * n / 2.0) * math.fsum(
            float(cc) * vv * vv * (math.log2(low.phi01) - math.log2(vv))
            for vv, cc in zip(lv[bin0].tolist(), lc[bin0])
        )
        pieces = []
        for vv, cc in zip(lv[~bin0], lc[~bin0]):
            vv, cc = float(vv), int(cc)
            if vv == last_val:
                cc -= 1
            if cc > 0:
                pieces.append(cc * _ref_s2_factor(vv, n) * (math.log2(low.phi01) - math.log2(vv)))
        s2 = head + math.fsum(pieces)

    L01 = low.L01
    top_rank = math.floor(L01) - 1 if not s3_from_origin else math.floor(L01)
    if top_rank >= 1:
        acc = []
        rank = 1
        for vv, cc in zip(lv, lc):
            first, last = rank, rank + int(cc) - 1
            rank = last + 1
            a, b = first, min(last, top_rank)
            if a > b:
                if a > top_rank:
                    break
                continue
            width = b - a + 1
            if s3_from_origin:
                coeff = width * (L01 + 1.0) - (a + b) * width / 2.0
            else:
                coeff = width * L01 - (a + b) * width / 2.0
            acc.append(coeff * float(vv) / low.phi01)
        s3 = LOG2E * math.fsum(acc)
    return s2, s3


@st.composite
def grouped_sources(draw):
    """A horizon n, an epsilon and a source of up to 40 groups, most of them
    near or inside the low region (probabilities up to 1/n^(1-eps))."""
    n = draw(st.integers(2, 10**7))
    epsilon = draw(st.floats(0.05, 0.95))
    size = draw(st.integers(1, 40))
    # group g sits at n^-x_g: x below 1 - eps is above the low region, above 1 + eps in bin 0
    exponents = draw(st.lists(st.floats(0.0, 2.5), min_size=size, max_size=size))
    counts = draw(st.lists(st.integers(1, 10**4), min_size=size, max_size=size))
    w = float(n) ** -np.array(exponents)
    c = np.array(counts, dtype=np.int64)
    theta = ParamVector.from_groups(w / math.fsum((c * w).tolist()), c)
    return theta, n, epsilon


def _with_top_letter(values, counts) -> ParamVector:
    """The given groups plus one letter holding the rest of the mass."""
    rest = 1.0 - math.fsum(c * v for v, c in zip(values, counts))
    return ParamVector.from_groups([*values, rest], [*counts, 1])


# one letter of probability 1, whose absent probability is exactly 0
_SINGLE_LETTER = ParamVector.from_probs([1.0])
# at n = 2, eps = 0.3 the low region reaches 2^-0.7 > 0.6, so 0.61 takes the split form
_SPLIT_LAST = ParamVector.from_probs([0.39, 0.61])


@given(grouped_sources())
@example((_SINGLE_LETTER, 5, 0.3))
@example((_SPLIT_LAST, 2, 0.3))
@example((ParamVector.from_groups([0.05, 0.1, 0.2], [4, 2, 3]), 20, 0.3))
# a bin-0 letter whose libm v ** 2 and v * v differ: b2's S2 squares with v * v, as sq0 does
@example((_with_top_letter([1.9745215947955656e-06], [100]), 10**4, 0.1))
# low letters where numpy's log2 and libm's differ: S2 reads libm's log2(v), as H(X) does
@example((_with_top_letter([3.196558984255604e-05, 0.000473976416888107], [20, 28]), 10**4, 0.3))
def test_array_sums_are_bit_identical(case):
    theta, n, epsilon = case
    analysis = SourceAnalysis(theta, n, epsilon)
    h_x = _ref_h_x(theta)
    assert analysis.h_x == h_x
    assert iid_entropy(theta) == h_x

    occupancy = _ref_occupancy(theta, n)
    assert np.array_equal(analysis.occupancy, occupancy)
    assert np.array_equal(1.0 - absent_probability(theta.values, n), occupancy)
    assert np.array_equal(bin_stats(analysis.eta_grid, theta).sums(theta.counts * occupancy),
                          analysis.eta_stats.sums(theta.counts * analysis.occupancy))

    low = analysis.low
    packed = packed_entropies(analysis)
    assert packed.h0 == -xlog2x(low.phi0) + _ref_tail(theta, low_thresholds(n, epsilon)[0])
    assert packed.h01 == -xlog2x(low.phi01) + _ref_tail(theta, low.thr2)

    for s2_variant in ("b1", "b2"):
        for from_origin in (False, True):
            rep = lb_theorem4(analysis, s2_variant=s2_variant, s3_from_origin=from_origin)
            s2, s3 = _ref_s2_s3(analysis, s2_variant, from_origin)
            assert rep.term("low_reoccurrence_gain_S2") == (0.0 if s2 == 0.0 else s2)
            assert rep.term("low_first_occurrence_gain_S3") == (0.0 if s3 == 0.0 else s3)


def _kappa_prime_by_points(grid, theta: ParamVector, bins: np.ndarray) -> list[int]:
    """kappa'_b as the letters in (point(b-1), point(b+2)], from point(1) for
    bin 1 and 0 on bin 0: the definition ``BinStats.overlap`` must match."""
    out = []
    for b in bins.tolist():
        lo, hi = grid.point(max(b - 1, 1)), grid.point(min(b + 2, grid.num_bins))
        out.append(sum(c for v, c in theta.groups() if lo < v <= hi) if b >= 1 else 0)
    return out


@given(grouped_sources())
@example((ParamVector.from_probs([0.05, 0.06, 0.1, 0.79]), 100, 0.05))
def test_kappa_prime_counts_the_letters_between_points(case):
    theta, n, epsilon = case
    grid = grids.build_grid("xi", n, epsilon)
    stats = bin_stats(grid, theta)
    assert stats.overlap().tolist() == _kappa_prime_by_points(grid, theta, stats.bins)


# the paper's four example families (ex1-ex4), each with its own epsilon
_FAMILIES = [
    ("uniform", {"nu": 0.2}, 0.25),
    ("two-level", {"phi0": 0.5, "mu": 0.4, "nu": 0.3, "level1": "below"}, 0.4),
    ("two-level", {"phi0": 0.5, "mu": 0.5, "nu": 0.45, "level1": "above"}, 0.5),
    ("two-level", {"phi0": 0.5, "mu": 0.5, "level1": "unit"}, 0.4),
]


@pytest.mark.parametrize("n", [100, 10**4, 10**6])
@pytest.mark.parametrize("family, params, epsilon", _FAMILIES)
def test_family_kappa_prime_counts_the_letters_between_points(family, params, epsilon, n):
    theta = distributions.make_distribution(distributions.SourceSpec(family, params, n))
    grid = grids.build_grid("xi", n, epsilon)
    stats = bin_stats(grid, theta)
    assert stats.overlap().tolist() == _kappa_prime_by_points(grid, theta, stats.bins)


def test_split_branch_is_taken():
    rep = lb_theorem4(SourceAnalysis(_SPLIT_LAST, 2, 0.3))
    assert "last low letter exceeds 3/5; split form applied" in rep.notes


def test_single_letter_never_absent():
    assert absent_probability(np.array([1.0]), 7).tolist() == [0.0]
    assert SourceAnalysis(_SINGLE_LETTER, 7, 0.3).occupancy.tolist() == [1.0]


@given(st.lists(st.tuples(st.floats(1e-9, 1.0), st.integers(1, 10**6)),
                min_size=1, max_size=30, unique_by=lambda t: t[0]))
def test_param_vector_total_is_bit_identical(groups):
    # the rejection message prints the total with repr(), so its bits show
    values, counts = zip(*sorted(groups))
    total = _ref_total(values, counts)
    if abs(total - 1.0) <= 1e-12:
        ParamVector(np.array(values), np.array(counts))
        return
    with pytest.raises(ValueError, match=re.escape(f"sum to {total!r}, not 1")):
        ParamVector(np.array(values), np.array(counts))


def test_default_table_evaluates_each_group_sum_once(monkeypatch):
    """A zipf table of 10^5 groups: no per-group iteration, one occupancy pass,
    and no numpy transcendental on per-group data."""
    calls = []
    real = grids.absent_probability

    def counting(theta, n):
        calls.append(np.size(theta))
        return real(theta, n)

    def no_groups(self):
        raise AssertionError("ParamVector.groups iterates over every group")

    for module in (grids, bounds):
        monkeypatch.setattr(module, "absent_probability", counting)
    monkeypatch.setattr(ParamVector, "groups", no_groups)
    created = []
    real_init = SourceAnalysis.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SourceAnalysis, "__init__", counting_init)
    numpy_sizes = []
    for name in ("exp", "expm1", "log", "log2", "log1p"):
        monkeypatch.setattr(np, name, _recording(getattr(np, name), numpy_sizes))
    cfg = cli.parse_config({
        "source": {"family": "zipf", "params": {"k": 100_000, "exponent": 1.1}},
        "n": 10**6, "epsilon": 0.4,
    })
    rows = cli.run_bounds(cfg)
    assert len(rows) == 10 and all(r["error"] == "" for r in rows)
    assert len(created) == 1
    assert calls == [100_000]
    assert max(numpy_sizes, default=0) < 100_000


# zipf (k, exponent, n, eps) where numpy's pairwise np.sum of phi1's products is not
# their correctly rounded sum
@pytest.mark.parametrize("k, exponent, n, epsilon", [
    (50_000, 1.1, 10**6, 0.4), (2_000, 1.1, 10**4, 0.4), (100_000, 1.05, 10**6, 0.3)])
def test_low_region_sums_are_correctly_rounded(k, exponent, n, epsilon):
    theta = distributions.make_distribution(
        distributions.SourceSpec("zipf", {"k": k, "exponent": exponent}))
    low = SourceAnalysis(theta, n, epsilon).low
    v, c, i1, i2 = theta.values, theta.counts, low.i1, low.i2
    assert low.phi0 == math.fsum((c[:i1] * v[:i1]).tolist())
    assert low.phi1 == math.fsum((c[i1:i2] * v[i1:i2]).tolist())
    assert low.sq0 == math.fsum((c[:i1] * v[:i1] * v[:i1]).tolist())


def test_default_table_makes_four_libm_passes(monkeypatch):
    """The bounds-zipf table: log2 once over the groups (H(X) and lb4's S2 share
    it), log1p and exp for the absent probabilities, and exp for lb4's
    e^-n(v+v^2) over the low groups."""
    cfg = cli.parse_config({
        "source": {"family": "zipf", "params": {"k": 50_000, "exponent": 1.1}},
        "n": 10**6, "epsilon": 0.4,
    })
    low_groups = SourceAnalysis(distributions.make_distribution(cfg.source), 10**6, 0.4).low.i2
    passes = []
    real = _common.elementwise

    def recording(f, x):
        passes.append((f.__name__, np.size(x)))
        return real(f, x)

    # bounds imports no elementwise; one put back there would be recorded too
    for module in (distributions, grids, bounds):
        monkeypatch.setattr(module, "elementwise", recording, raising=False)
    rows = cli.run_bounds(cfg)
    assert len(rows) == 10 and all(r["error"] == "" for r in rows)
    assert sorted(passes) == [("exp", low_groups), ("exp", 50_000), ("log1p", 50_000),
                              ("log2", 50_000)]


def test_default_table_makes_one_per_bin_sum(monkeypatch):
    """The bounds-zipf table splits the groups by three grids and sums over
    bins once: the tau L of c2_loosened."""
    cfg = cli.parse_config({
        "source": {"family": "zipf", "params": {"k": 50_000, "exponent": 1.1}},
        "n": 10**6, "epsilon": 0.4,
    })
    sums = []
    real = np.bincount

    def recording(x, weights=None, minlength=0):
        sums.append(np.size(x))
        return real(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", recording)
    rows = cli.run_bounds(cfg)
    assert len(rows) == 10 and all(r["error"] == "" for r in rows)
    assert sums == [50_000]


def test_range_reads_the_analysis_entropy(monkeypatch):
    """The range bound takes H(X) from the analysis: with it in the table,
    the per-group c * v * log2(v) terms are still made once."""
    calls = []
    real = distributions.entropy_terms

    def counting(theta):
        calls.append(len(theta.values))
        return real(theta)

    for module in (distributions, bounds):
        monkeypatch.setattr(module, "entropy_terms", counting)
    cfg = cli.parse_config({
        "source": {"family": "zipf", "params": {"k": 100_000, "exponent": 1.1}},
        "n": 10**6, "epsilon": 0.4, "epsilon1": 0.2, "bounds": [*cli.DEFAULT_BOUNDS, "range"],
    })
    rows = cli.run_bounds(cfg)
    assert len(rows) == 12 and all(r["error"] == "" for r in rows)
    assert calls == [100_000]


def _recording(ufunc, sizes):
    def wrapper(x, *args, **kwargs):
        sizes.append(np.size(x))
        return ufunc(x, *args, **kwargs)
    return wrapper


@st.composite
def sources_on_the_split_points(draw):
    """A source with letters exactly on thr1, thr2 and the vartheta window
    ends (vartheta- thr2, vartheta+ thr2) and one float either side of each,
    plus up to 1,500 random low letters, so the sums also take exact_sum's
    level loop, and one top letter holding the rest of the mass."""
    n = draw(st.integers(10**4, 10**9))
    epsilon = draw(st.floats(0.05, 0.5))
    vm = draw(st.sampled_from([DEFAULT_VARTHETA_MINUS, 0.5]))
    vp = draw(st.sampled_from([DEFAULT_VARTHETA_PLUS, 2.0]))
    thr1, thr2 = low_thresholds(n, epsilon)
    points = [p for x in (thr1, thr2, vm * thr2, vp * thr2)
              for p in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))]
    counts = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = draw(st.sampled_from([0, 1500]))
    spread = rng.uniform(0.5 * thr1, 2.0 * vp * thr2, bulk)
    values = np.concatenate([points, spread])
    counts = np.concatenate([counts, rng.integers(1, 4, bulk)])
    scale = min(1.0, 0.5 / float(np.sum(counts * values)))
    if scale < 1.0:  # shrink the random letters only; the split points stay put
        values[len(points):] *= scale
    rest = 1.0 - math.fsum((counts * values).tolist())
    return ParamVector.from_groups([*values, rest], [*counts, 1]), n, epsilon, vm, vp


@given(sources_on_the_split_points())
def test_slices_select_what_the_threshold_masks_selected(case):
    """The low region, the packed tails and lb4's vartheta window are index
    ranges of the ascending values; the masks below are the selections they
    replace, kept here as the reference."""
    theta, n, epsilon, vm, vp = case
    analysis = SourceAnalysis(theta, n, epsilon)
    low = analysis.low
    thr1 = low_thresholds(n, epsilon)[0]
    v, c, occ, terms = theta.values, theta.counts, analysis.occupancy, analysis.plog2p
    m0 = v <= thr1
    m1 = (v > thr1) & (v <= low.thr2)
    mlow = v <= low.thr2
    assert (low.k0, low.k01) == (int(c[m0].sum()), int(c[m0].sum()) + int(c[m1].sum()))
    assert low.phi0 == math.fsum((c[m0] * v[m0]).tolist())
    assert low.phi1 == math.fsum((c[m1] * v[m1]).tolist())
    assert low.sq0 == math.fsum((c[m0] * v[m0] * v[m0]).tolist())
    assert low.L1 == math.fsum((c[m1] * occ[m1]).tolist())
    assert low.L01 == math.fsum((c[m0] * occ[m0]).tolist()) + low.L1
    assert np.array_equal(low.low_values, v[mlow]) and np.array_equal(low.low_counts, c[mlow])

    packed = packed_entropies(analysis)
    assert packed.h01 == -xlog2x(low.phi01) - math.fsum(terms[v > low.thr2].tolist())
    assert packed.h0 == -xlog2x(low.phi0) - math.fsum(terms[v > thr1].tolist())

    lo_minus, hi_plus = vm * low.thr2, vp * low.thr2
    k_minus = int(c[(v > lo_minus) & (v <= low.thr2)].sum())
    k_plus = int(c[(v > low.thr2) & (v <= hi_plus)].sum())
    assert bounds._boundary_counts(analysis, vm, vp) == (k_minus, k_plus)
    for s2_variant in ("b1", "b2"):
        rep = lb_theorem4(analysis, s2_variant=s2_variant, vartheta_minus=vm, vartheta_plus=vp)
        s2, s3 = _ref_s2_s3(analysis, s2_variant, False)
        assert rep.term("low_reoccurrence_gain_S2") == (0.0 if s2 == 0.0 else s2)
        assert rep.term("low_first_occurrence_gain_S3") == (0.0 if s3 == 0.0 else s3)
