import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy.bounds import SourceAnalysis
from pattern_entropy.distributions import ParamVector, SourceSpec, make_distribution
from pattern_entropy.grids import (
    absent_probability,
    bin_index,
    bin_stats,
    build_grid,
    low_thresholds,
    occurrence_stats,
)
from pattern_entropy.verify import DEFAULT_SEED


class TestBuildGrid:
    def test_tau_n100_eps0(self):
        g = build_grid("tau", 100, 0.0)
        assert g.B == 10 and g.A == 7
        assert np.allclose(g.point(np.arange(4)), [0.0, 0.01, 0.04, 0.09])
        assert g.point(g.num_bins) == 1.0 and g.num_bins == 10  # tau_10 is already 1
        assert len(g.points) == 11 and g.points[-1] == 1.0

    def test_xi_equals_tau_at_eps0(self):
        t = build_grid("tau", 100, 0.0)
        x = build_grid("xi", 100, 0.0)
        every = np.arange(t.num_bins + 1)
        assert t.num_bins == x.num_bins and np.array_equal(t.point(every), x.point(every))
        assert (t.B, t.A) == (x.B, x.A)

    def test_eta_hand_evaluated_shift(self):
        # d-shift floor(1e4 ** 0.375) = 31: third point is (3+31-2)^2 / 1e6
        g = build_grid("eta", 10_000, 0.25)
        assert g.point(1) == 1e-5
        assert g.point(2) == 10_000.0 ** -0.75
        assert g.point(3) == 1024.0 / 10.0 ** 6
        assert not g.flags

    def test_eta_fallback_small_shift(self):
        g = build_grid("eta", 100, 0.1)
        assert "eta_fallback" in g.flags
        assert g.B == math.floor(100 ** 0.6)

    def test_terminal_point_appended(self):
        g = build_grid("tau", 50, 0.1)
        assert g.point(g.num_bins) == 1.0 and g.num_bins == g.B + 1
        assert np.all(np.diff(g.point(np.arange(g.num_bins + 1))) > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_grid("eta", 100, 0.0)
        with pytest.raises(ValueError):
            build_grid("tau", 1, 0.1)
        with pytest.raises(ValueError):
            build_grid("xi", 100, 1.0)
        with pytest.raises(ValueError):
            build_grid("sigma", 100, 0.1)

    def test_low_epsilon_is_silent_and_noted(self):
        # below (ln ln n)/(ln n) the grid builds without a warning; the analysis notes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_grid("tau", 1000, 0.01)
        theta = ParamVector.from_probs([0.5, 0.5])
        assert SourceAnalysis(theta, 1000, 0.01).notes == (
            "epsilon 0.01 below (ln ln n)/(ln n) = 0.2798: bound guarantees degrade",)
        assert SourceAnalysis(theta, 1000, 0.3).notes == ()
        assert SourceAnalysis(theta, 2, 0.01).notes == ()  # ln ln 2 < 0: no floor


class TestBinIndex:
    def setup_method(self):
        self.g = build_grid("tau", 100, 0.0)

    def test_interior(self):
        assert bin_index(self.g, 0.05) == 2  # 0.04 < 0.05 <= 0.09

    def test_grid_point_goes_down(self):
        assert bin_index(self.g, 0.04) == 1  # left-open interval

    def test_one_lands_in_last_bin(self):
        assert bin_index(self.g, 1.0) == self.g.num_bins - 1

    def test_domain(self):
        with pytest.raises(ValueError):
            bin_index(self.g, 0.0)
        with pytest.raises(ValueError):
            bin_index(self.g, 1.5)

    def test_array_matches_scalars(self):
        probs = np.array([1e-6, 0.04, 0.05, 0.5, 1.0])
        bins = bin_index(self.g, probs)
        assert bins.tolist() == [bin_index(self.g, float(p)) for p in probs]
        pts = self.g.point(np.arange(self.g.num_bins + 1))
        assert np.array_equal(bins, np.searchsorted(pts, probs, side="left") - 1)
        with pytest.raises(ValueError):
            bin_index(self.g, np.array([0.5, 0.0]))

    @given(st.floats(min_value=1e-12, max_value=1.0, exclude_min=False))
    def test_partition_total(self, theta):
        b = bin_index(self.g, theta)
        assert 0 <= b < self.g.num_bins
        assert self.g.point(b) < theta <= self.g.point(b + 1)


class TestBinStats:
    def test_single_bin_occupancy(self):
        # four letters of 1/4 share bin 0 of tau(n=4): L = 4 (1 - (3/4)^4)
        g = build_grid("tau", 4, 0.0)
        pv = ParamVector.from_probs([0.25] * 4)
        st_ = bin_stats(g, pv)
        assert list(st_.bins) == [0] and st_.counts[0] == 4
        L = st_.sums(pv.counts * (1.0 - absent_probability(pv.values, 4)))
        assert abs(L[0] - 2.734375) <= 1e-12

    def test_recount_matches(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6))
        pv = ParamVector.from_probs(probs)
        g = build_grid("xi", 50, 0.2)
        st_ = bin_stats(g, pv)
        assert st_.counts.sum() == pv.k
        assert abs(st_.sums(pv.counts * pv.values).sum() - 1.0) <= 1e-12
        recount = np.zeros(g.num_bins, dtype=int)
        for v, c in pv.groups():
            recount[bin_index(g, v)] += c
        assert np.array_equal(np.flatnonzero(recount), st_.bins)
        assert np.array_equal(recount[st_.bins], st_.counts)
        for b, kp in zip(st_.bins.tolist(), st_.overlap().tolist()):
            lo = g.point(b - 1) if b >= 2 else g.point(1)
            hi = g.point(min(b + 2, g.num_bins))
            assert kp == (sum(c for v, c in pv.groups() if lo < v <= hi) if b >= 1 else 0)

    def test_rows_only_for_occupied_bins(self):
        # 10^5 letters and three singletons over grids of up to ~10^5 bins
        pv = ParamVector.from_groups([1e-6, 0.15, 0.35, 0.4], [10**5, 1, 1, 1])
        for kind in ("tau", "eta", "xi"):
            g = build_grid(kind, 10**5, 0.5)
            st_ = bin_stats(g, pv)
            rows = len(pv.values)
            assert len(st_.bins) <= rows < g.num_bins
            assert len(st_.counts) == len(st_.starts) - 1 == len(st_.bins)
            assert len(st_.sums(pv.counts * pv.values)) == len(st_.bins)
            assert np.all(np.diff(st_.bins) > 0)
            assert set(st_.bins.tolist()) == {bin_index(g, v) for v, _ in pv.groups()}
            group_bin = np.repeat(st_.bins, np.diff(st_.starts))
            assert [bin_index(g, v) for v, _ in pv.groups()] == group_bin.tolist()

    @pytest.mark.parametrize("kind", ["tau", "eta", "xi"])
    def test_runs_match_unique(self, kind):
        # bins and the group-to-row map equal np.unique's, and the counts and
        # every per-bin sum keep the bits of a sequential np.add.at accumulation: on random tied
        # sources, and on zipf k = 2000, whose largest bins sum ~2000 groups
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(40):
            sizes = rng.integers(1, 50, size=int(rng.integers(1, 30)))
            weights = rng.uniform(1e-3, 1.0, size=len(sizes)) ** 3
            pv = ParamVector.from_groups(weights / (weights @ sizes), sizes)
            cases.append((pv, int(rng.integers(2, 10**4)), float(rng.uniform(0.1, 0.6))))
        zipf = make_distribution(SourceSpec("zipf", {"k": 2000, "exponent": 1.1}))
        cases += [(zipf, n, 0.4) for n in (100, 10**4, 10**6)]
        for pv, n, eps in cases:
            g = build_grid(kind, n, eps)
            st_ = bin_stats(g, pv)
            bins, first, row = np.unique(bin_index(g, pv.values), return_index=True,
                                         return_inverse=True)
            assert np.array_equal(st_.bins, bins)
            assert np.array_equal(st_.starts, [*first, len(pv.values)])
            occ = 1.0 - absent_probability(pv.values, n)
            for got, weight in ((st_.counts, pv.counts),
                                (st_.sums(pv.counts * pv.values), pv.counts * pv.values),
                                (st_.sums(pv.counts * occ), pv.counts * occ)):
                want = np.zeros(len(bins), dtype=got.dtype)
                np.add.at(want, row, weight)
                assert np.array_equal(got, want)

    def test_kappa_prime_singletons(self):
        # singletons with empty flanking bins: kappa' == kappa on every occupied row
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.02, 0.2, 0.78])
        st_ = bin_stats(g, pv)
        assert len(st_.bins) == 3
        assert np.array_equal(st_.overlap(), st_.counts)

    def test_kappa_prime_overlap(self):
        # mass in xi bins 2 and 3 (plus a lone filler): each window picks up the other
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.05, 0.06, 0.1, 0.79])
        st_ = bin_stats(g, pv)
        counts = dict(zip(st_.bins.tolist(), st_.counts.tolist()))
        kappa_prime = dict(zip(st_.bins.tolist(), st_.overlap().tolist()))
        assert counts[2] == 2 and counts[3] == 1
        assert kappa_prime[2] == 3 and kappa_prime[3] == 3
        assert kappa_prime[8] == 1  # 0.79 in (0.64, 0.81]

    def test_kappa_prime_bin1_window(self):
        # kappa'_1 counts (xi_1, xi_3] only: the bin-0 letter is excluded
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.005, 0.02, 0.975])
        st_ = bin_stats(g, pv)
        assert list(st_.bins[:2]) == [0, 1]
        assert st_.counts[0] == 1 and st_.counts[1] == 1
        assert st_.overlap()[1] == 1

    def test_eta_low_bin_scalars(self):
        pv = ParamVector.from_probs([0.0001, 0.002, 0.01, 0.9879])
        low = SourceAnalysis(pv, 100, 0.25).low
        thr1, thr2 = low_thresholds(100, 0.25)
        want_k01 = sum(c for v, c in pv.groups() if v <= thr2)
        assert low.k01 == want_k01
        assert abs(low.phi01 - sum(v * c for v, c in pv.groups() if v <= thr2)) <= 1e-15
        assert low.ell01 == min(want_k01, 100)

    def test_low_split_matches_eta_bins_0_and_1(self):
        # outside the fallback, eta bins 0 and 1 are exactly the two low regions
        for n, eps in ((100, 0.25), (1000, 0.3), (10**4, 0.2)):
            thr1, thr2 = low_thresholds(n, eps)
            low_values = [thr1 / 3, thr1, math.sqrt(thr1 * thr2), thr2]
            low_counts = [5, 2, 3, 1]
            rest = 1.0 - math.fsum(v * c for v, c in zip(low_values, low_counts))
            pv = ParamVector.from_groups(low_values + [rest / 3, 2 * rest / 3], low_counts + [1, 1])
            an = SourceAnalysis(pv, n, eps)
            assert "eta_fallback" not in an.eta_grid.flags
            st_ = an.eta_stats
            first_two = st_.bins <= 1
            assert an.low.k01 == st_.counts[first_two].sum() == 11
            phi, L = st_.sums(pv.counts * pv.values), st_.sums(pv.counts * an.occupancy)
            assert an.low.phi01 == pytest.approx(phi[first_two].sum(), rel=1e-12)
            assert an.low.L01 == pytest.approx(L[first_two].sum(), rel=1e-12)


class TestOccurrenceStats:
    def test_half_n2(self):
        st_ = occurrence_stats(0.5, 2)
        assert st_.p_absent == 0.25
        assert abs(st_.p_absent_lo - math.exp(-1.5)) <= 1e-15
        assert abs(st_.p_absent_hi - math.exp(-1.0)) <= 1e-15

    def test_large_theta_branch(self):
        st_ = occurrence_stats(0.7, 3)
        assert st_.p_absent_lo == 0.0
        assert abs(st_.p_absent - 0.027) <= 1e-15
        assert st_.p_present_hi == 1.0

    def test_refined_bounds_contain_exact(self):
        st_ = occurrence_stats(0.001, 100)
        exact = 100 * 0.001 - 1.0 + 0.999 ** 100
        assert st_.mean_reoccur_lo_refined <= exact <= st_.mean_reoccur_hi_refined
        assert abs(st_.mean_reoccur - exact) <= 1e-15

    def test_refined_absent_above_one_over_n(self):
        st_ = occurrence_stats(0.5, 100)
        assert st_.p_present_lo_refined is None

    def test_reoccurrence_identity(self):
        st_ = occurrence_stats(0.37, 19)
        want = 19 * 0.37 - 1.0 + (1.0 - 0.37) ** 19
        assert abs(st_.mean_reoccur - want) <= 1e-12

    def test_absent_probability_is_the_scalar_formula_bit_for_bit(self):
        # the (theta, n) draws of verify's criterion 4 (occurrence_formulas)
        rng = np.random.default_rng(DEFAULT_SEED)
        for _ in range(10_000):
            theta = min(float(np.exp(rng.uniform(np.log(1e-7), 0.0))), 1.0)
            n = int(rng.integers(1, 10_000))
            want = 0.0 if theta >= 1.0 else math.exp(n * math.log1p(-theta))
            got = absent_probability(np.array([theta]), n)[0]
            assert got.hex() == want.hex(), (theta, n)
            assert occurrence_stats(theta, n).p_absent.hex() == want.hex(), (theta, n)

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.integers(min_value=1, max_value=5000),
    )
    def test_brackets_random(self, theta, n):
        st_ = occurrence_stats(theta, n)
        assert st_.p_absent_lo - 1e-12 <= st_.p_absent <= st_.p_absent_hi + 1e-12
        assert st_.p_present_lo - 1e-12 <= st_.p_present <= st_.p_present_hi + 1e-12
        assert st_.mean_reoccur_lo - 1e-12 <= st_.mean_reoccur <= st_.mean_reoccur_hi + 1e-12


class TestSpacing:
    @pytest.mark.parametrize("n,eps", [(100, 0.25), (1000, 0.15)])
    def test_tau_identity(self, n, eps):
        g = build_grid("tau", n, eps)
        for b in range(1, g.B):
            gap = g.point(b + 1) - g.point(b)
            assert abs(gap - (2 * b + 1) / float(n) ** (1 + eps)) <= 1e-12 * gap

    def test_xi_lower_bound(self):
        g = build_grid("xi", 400, 0.2)
        for b in range(1, g.B):
            gap = g.point(b + 1) - g.point(b)
            assert gap >= 2 * math.sqrt(g.point(b)) / float(400) ** ((1 - 0.2) / 2) - 1e-18


@pytest.mark.parametrize("theta_i, n, words", [
    (0.0, 5, "theta must be in"),
    (1.5, 5, "theta must be in"),
    (0.5, 0, "n must be >= 1"),
], ids=["theta_zero", "theta_above_one", "n_zero"])
def test_occurrence_stats_validation_raises(theta_i, n, words):
    with pytest.raises(ValueError, match=words):
        occurrence_stats(theta_i, n)
