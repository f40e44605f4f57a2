import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy.distributions import ParamVector
from pattern_entropy.grids import (
    bin_index,
    bin_stats,
    build_grid,
    low_bin_occupancy_bounds,
    low_thresholds,
    mean_bin_occupancy_bounds,
    occurrence_stats,
)


class TestBuildGrid:
    def test_tau_n100_eps0(self):
        g = build_grid("tau", 100, 0.0)
        assert g.B == 10 and g.A == 7
        assert np.allclose(g.points[:4], [0.0, 0.01, 0.04, 0.09])
        assert g.points[-1] == 1.0 and len(g.points) == 11  # tau_10 is already 1

    def test_xi_equals_tau_at_eps0(self):
        t = build_grid("tau", 100, 0.0)
        x = build_grid("xi", 100, 0.0)
        assert np.array_equal(t.points, x.points) and (t.B, t.A) == (x.B, x.A)

    def test_eta_hand_evaluated_shift(self):
        # d-shift floor(1e4 ** 0.375) = 31: third point is (3+31-2)^2 / 1e6
        g = build_grid("eta", 10_000, 0.25)
        assert g.points[1] == 1e-5
        assert g.points[2] == 10_000.0 ** -0.75
        assert g.points[3] == 1024.0 / 10.0 ** 6
        assert not g.flags

    def test_eta_fallback_small_shift(self):
        g = build_grid("eta", 100, 0.1)
        assert "eta_fallback" in g.flags
        assert g.B == math.floor(100 ** 0.6)

    def test_terminal_point_appended(self):
        g = build_grid("tau", 50, 0.1)
        assert g.points[-1] == 1.0
        assert np.all(np.diff(g.points) > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_grid("eta", 100, 0.0)
        with pytest.raises(ValueError):
            build_grid("tau", 1, 0.1)
        with pytest.raises(ValueError):
            build_grid("xi", 100, 1.0)
        with pytest.raises(ValueError):
            build_grid("sigma", 100, 0.1)

    def test_low_epsilon_warns(self):
        with pytest.warns(UserWarning, match="below"):
            build_grid("tau", 1000, 0.01)


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
        assert np.array_equal(bins, np.searchsorted(self.g.points, probs, side="left") - 1)
        with pytest.raises(ValueError):
            bin_index(self.g, np.array([0.5, 0.0]))

    @given(st.floats(min_value=1e-12, max_value=1.0, exclude_min=False))
    def test_partition_total(self, theta):
        b = bin_index(self.g, theta)
        assert 0 <= b < self.g.num_bins
        assert self.g.points[b] < theta <= self.g.points[b + 1]


class TestBinStats:
    def test_single_bin_occupancy(self):
        # four letters of 1/4 share bin 0 of tau(n=4): L = 4 (1 - (3/4)^4)
        g = build_grid("tau", 4, 0.0)
        pv = ParamVector.from_probs([0.25] * 4)
        st_ = bin_stats(g, pv)
        assert st_.counts[0] == 4
        assert abs(st_.L[0] - 2.734375) <= 1e-12

    def test_recount_matches(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6))
        pv = ParamVector.from_probs(probs)
        g = build_grid("xi", 50, 0.2)
        st_ = bin_stats(g, pv)
        assert st_.counts.sum() == pv.k
        assert abs(st_.phi.sum() - 1.0) <= 1e-12
        recount = np.zeros(g.num_bins, dtype=int)
        for v, c in pv.groups():
            recount[bin_index(g, v)] += c
        assert np.array_equal(recount, st_.counts)
        assert np.array_equal(st_.ell, np.minimum(st_.counts, g.n))

    def test_kappa_prime_singletons(self):
        # singletons with empty flanking bins: kappa' == kappa
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.02, 0.2, 0.78])
        st_ = bin_stats(g, pv)
        nz = st_.counts > 0
        assert np.array_equal(st_.kappa_prime[nz], st_.counts[nz])
        assert np.all(st_.kappa_prime[~nz] == 0)

    def test_kappa_prime_overlap(self):
        # mass in xi bins 2 and 3 (plus a lone filler): each window picks up the other
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.05, 0.06, 0.1, 0.79])
        st_ = bin_stats(g, pv)
        assert st_.counts[2] == 2 and st_.counts[3] == 1
        assert st_.kappa_prime[2] == 3 and st_.kappa_prime[3] == 3
        assert st_.kappa_prime[8] == 1  # 0.79 in (0.64, 0.81]

    def test_kappa_prime_bin1_window(self):
        # kappa'_1 counts (xi_1, xi_3] only: the bin-0 letter is excluded
        g = build_grid("xi", 100, 0.0)
        pv = ParamVector.from_probs([0.005, 0.02, 0.975])
        st_ = bin_stats(g, pv)
        assert st_.counts[0] == 1 and st_.counts[1] == 1
        assert st_.kappa_prime[1] == 1

    def test_eta_low_bin_scalars(self):
        g = build_grid("eta", 100, 0.25)
        pv = ParamVector.from_probs([0.0001, 0.002, 0.01, 0.9879])
        st_ = bin_stats(g, pv)
        thr1, thr2 = low_thresholds(100, 0.25)
        want_k01 = sum(c for v, c in pv.groups() if v <= thr2)
        assert st_.k01 == want_k01
        assert abs(st_.phi01 - sum(v * c for v, c in pv.groups() if v <= thr2)) <= 1e-15
        assert st_.ell01 == min(want_k01, 100)
        assert abs(st_.L01 - (st_.L[0] + st_.L[1])) <= 1e-15

    def test_occupancy_bounds_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(5))
            if probs.min() <= 0:
                continue
            pv = ParamVector.from_probs(probs)
            g = build_grid("eta", 40, 0.3)
            st_ = bin_stats(g, pv)
            lo, hi = mean_bin_occupancy_bounds(g, pv)
            assert np.all(st_.L >= lo - 1e-9) and np.all(st_.L <= hi + 1e-9)

    def test_low_bin_binomial_bounds(self):
        pv = ParamVector.from_groups([1e-5, 0.9999 / 2, 0.9999 / 2], [10, 1, 1])
        lo, hi = low_bin_occupancy_bounds(pv, 50, 0.3)
        L0 = 10 * (1.0 - (1.0 - 1e-5) ** 50)
        assert lo - 1e-12 <= L0 <= hi + 1e-12


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
            gap = g.points[b + 1] - g.points[b]
            assert abs(gap - (2 * b + 1) / float(n) ** (1 + eps)) <= 1e-12 * gap

    def test_xi_lower_bound(self):
        g = build_grid("xi", 400, 0.2)
        for b in range(1, g.B):
            gap = g.points[b + 1] - g.points[b]
            assert gap >= 2 * math.sqrt(g.points[b]) / float(400) ** ((1 - 0.2) / 2) - 1e-18
