import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from pattern_entropy._common import EXACT_FACTORIAL_BELOW, LN2, LOG2E, log2_factorial
from pattern_entropy._reference import exact_distinct_count_pmf
from pattern_entropy.bounds import (
    _STIRLERR_TABLE,
    SourceAnalysis,
    binomial_pmf,
    contribution_limits,
    distinct_count_pmf,
    gamma_fixed_point,
    lb_theorem2,
    lb_theorem4,
    packed_entropies,
    range_decreases,
    range_theorem5,
    simple_bounds,
    stirling_bounds,
    ub_theorem1,
    ub_theorem3_family,
)
from pattern_entropy.distributions import ParamVector, iid_entropy
from pattern_entropy.grids import bin_stats, build_grid
from pattern_entropy.patterns import enumerate_patterns, pattern_probability


def _h_pattern(theta, n):
    return -math.fsum(
        p * math.log2(p)
        for psi in enumerate_patterns(n, min(theta.k, n))
        if (p := pattern_probability(theta, psi)) > 0.0
    )


class TestSimpleBounds:
    def test_uniform_k2_n2(self):
        lo, hi = simple_bounds(SourceAnalysis(ParamVector.from_probs([0.5, 0.5]), 2, 0.25))
        assert abs(lo.value - 1.0) <= 1e-12 and abs(hi.value - 2.0) <= 1e-12

    def test_singleton(self):
        lo, hi = simple_bounds(SourceAnalysis(ParamVector.from_probs([1.0]), 5, 0.25))
        assert lo.value == 0.0 and hi.value == 0.0

    def test_k_exceeds_n(self):
        lo, hi = simple_bounds(SourceAnalysis(ParamVector.from_probs([1 / 3] * 3), 2, 0.25))
        want_lo = 2 * math.log2(3) - math.log2(6.0 / 1.0)
        assert abs(lo.value - want_lo) <= 1e-12
        assert abs(hi.value - 2 * math.log2(3)) <= 1e-12

    def test_terms_sum_to_value(self):
        lo, _ = simple_bounds(SourceAnalysis(ParamVector.from_probs([0.2, 0.8]), 7, 0.25))
        assert lo.value == math.fsum(t for _, t in lo.terms)


class TestPackedEntropies:
    def test_no_low_letters_collapse(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        pk = packed_entropies(SourceAnalysis(pv, 50, 0.2))
        h = iid_entropy(pv)
        assert pk.h0 == h and pk.h01 == h and pk.h0_1 == h

    def test_merged_low_bin(self):
        # thresholds at n=16, eps=0.2 capture {0.05, 0.1} as low letters
        pv = ParamVector.from_probs([0.05, 0.1, 0.35, 0.5])
        pk = packed_entropies(SourceAnalysis(pv, 16, 0.2))
        want = (-0.15 * math.log2(0.15) - 0.35 * math.log2(0.35) - 0.5 * math.log2(0.5))
        assert abs(pk.h01 - want) <= 1e-12
        assert abs(want - 1.4406454496153462) <= 1e-12

    def test_singleton_packs_change_nothing(self):
        # at n=8, eps=0.2 the bins are 0={0.05}, 1={0.1}: split packing is free
        pv = ParamVector.from_probs([0.05, 0.1, 0.35, 0.5])
        analysis = SourceAnalysis(pv, 8, 0.2)
        pk = packed_entropies(analysis)
        assert analysis.low.k0 == 1 and analysis.low.k1 == 1
        assert abs(pk.h0_1 - iid_entropy(pv)) <= 1e-12


class TestUbTheorem1:
    def test_all_singleton_bins(self):
        pv = ParamVector.from_probs([0.2, 0.35, 0.45])
        rep = ub_theorem1(SourceAnalysis(pv, 60, 0.25))
        assert rep.valid
        assert rep.value == rep.term("block_entropy")

    def test_three_letter_bin_deduction(self):
        # three letters share one eta bin at n=100, eps=0.1: deduction 0.9 log2(6)
        pv = ParamVector.from_probs([0.2, 0.201, 0.202, 0.397])
        rep = ub_theorem1(SourceAnalysis(pv, 100, 0.1))
        assert abs(rep.term("permutation_deduction") + 0.9 * math.log2(6)) <= 1e-12
        assert "o(k)" in rep.residual_flags

    def test_uniform_family_single_bin(self):
        # all k = n^(1-nu) letters share one eta bin (nu > eps): deduction (1-eps) log2(k!)
        n, nu, eps = 10**6, 0.2, 0.1
        k = round(float(n) ** (1 - nu))
        pv = ParamVector.from_groups([1.0 / k], [k])
        rep = ub_theorem1(SourceAnalysis(pv, n, eps))
        assert rep.valid
        want = -(1 - eps) * log2_factorial(k)
        assert abs(rep.term("permutation_deduction") - want) <= 1e-9 * abs(want)
        lo, hi = stirling_bounds(k)
        assert (1 - eps) * lo <= -rep.term("permutation_deduction") <= (1 - eps) * hi

    def test_tightened_substitution_reported(self):
        pv = ParamVector.from_probs([0.2, 0.35, 0.45])
        rep = ub_theorem1(SourceAnalysis(pv, 60, 0.25), tighten=True)
        assert rep.name == "ub_theorem1_tightened"
        assert any("substituted" in note for note in rep.notes)

    def test_validity_flag_for_low_letters(self):
        pv = ParamVector.from_probs([0.001, 0.999])
        rep = ub_theorem1(SourceAnalysis(pv, 100, 0.2))
        assert not rep.valid


class TestLbTheorem2:
    def test_singletons_empty_flanks(self):
        pv = ParamVector.from_probs([0.02, 0.2, 0.78])
        n, eps = 100, 0.0
        a, b = lb_theorem2(SourceAnalysis(pv, n, eps))
        h_block = n * iid_entropy(pv)
        assert abs(a.value - (h_block - 3 * math.log2(3))) <= 1e-9
        assert abs(b.value - h_block) <= 1e-9

    def test_adjacent_pairs_overlap(self):
        # kappa = (2, 2) in adjacent bins: variant B deducts 2 log2(24)
        pv = ParamVector.from_probs([0.05, 0.06, 0.1, 0.11, 0.68])
        n, eps = 100, 0.0
        a, b = lb_theorem2(SourceAnalysis(pv, n, eps))
        h_block = n * iid_entropy(pv)
        assert abs(b.value - (h_block - 2 * math.log2(24))) <= 1e-9
        assert abs(a.value - (h_block - 2 * math.log2(2) - 5 * math.log2(3))) <= 1e-9

    def test_uniform_single_bin(self):
        pv = ParamVector.from_probs([0.24, 0.245, 0.25, 0.265])
        g = build_grid("xi", 50, 0.1)
        st = bin_stats(g, pv)
        assert len(st.bins) == 1
        a, _ = lb_theorem2(SourceAnalysis(pv, 50, 0.1))
        h_block = 50 * iid_entropy(pv)
        assert abs(a.value - (h_block - log2_factorial(4) - 4 * math.log2(3))) <= 1e-9


class TestUbTheorem3Family:
    def test_unknown_variant(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        with pytest.raises(ValueError):
            ub_theorem3_family(SourceAnalysis(pv, 10, 0.2), "c99")

    def test_degenerate_equals_theorem1(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n, eps = 50, 0.2
        ub3 = ub_theorem3_family(SourceAnalysis(pv, n, eps), "ub3")
        ub1 = ub_theorem1(SourceAnalysis(pv, n, eps))
        assert abs(ub3.value - ub1.value) <= 1e-12
        for name in ("bin1_reoccurrence_cost", "bin1_occupancy_cost", "bin0_packing_cost"):
            assert ub3.term(name) == 0.0

    def test_c2_exact_vs_loosened_dominate_truth(self):
        rng = np.random.default_rng(2)
        slack = lambda k, n, eps: k * math.log2(3) + 6 * k / float(n) ** (eps / 2) * LOG2E + 1.0
        eps = 0.2
        checked = 0
        for k in (2, 3, 4):
            for n in (3, 4, 5):
                thr = float(n) ** -(1 - eps)
                if k * thr >= 0.9:
                    continue
                d = rng.dirichlet(np.ones(k))
                pv = ParamVector.from_probs(thr + d * (1.0 - k * thr))
                h = _h_pattern(pv, n)
                checked += 1
                for variant in ("c2_exact", "c2_loosened"):
                    rep = ub_theorem3_family(SourceAnalysis(pv, n, eps), variant)
                    assert rep.value >= h - slack(k, n, eps)
        assert checked >= 4

    def test_c2_exact_notes_surrogate(self):
        pv = ParamVector.from_probs([0.4, 0.6])
        rep = ub_theorem3_family(SourceAnalysis(pv, 8, 0.2), "c2_exact")
        assert any("surrogate" in note for note in rep.notes)

    def test_term_budget_orders(self):
        # with low letters present, packing terms are positive and flagged terms sum
        pv = ParamVector.from_groups([1e-4, 0.4995], [10, 2])
        n, eps = 100, 0.25
        rep = ub_theorem3_family(SourceAnalysis(pv, n, eps), "ub3")
        assert rep.term("bin0_packing_cost") > 0.0
        assert rep.value == math.fsum(t for _, t in rep.terms)


class TestDistinctCountPmf:
    def test_surrogate_close_to_exact(self):
        pv = ParamVector.from_probs([0.1, 0.12, 0.38, 0.4])
        n = 12
        analysis = SourceAnalysis(pv, n, 0.0)
        grid = analysis.tau_grid
        for b in analysis.tau_stats.bins:
            if b == 0:
                continue
            sel = [v for v, c in pv.groups() for _ in range(c)
                   if grid.point(b) < v <= grid.point(b + 1)]
            exact = exact_distinct_count_pmf(sel, n)
            sur = distinct_count_pmf(analysis, int(b))
            assert abs(sur.sum() - 1.0) <= 1e-9
            assert np.abs(sur - exact).sum() / 2 <= 0.05  # documented approximation gap

    def test_mean_matches_occupancy(self):
        pv = ParamVector.from_probs([0.3, 0.32, 0.38])
        n = 9
        analysis = SourceAnalysis(pv, n, 0.0)
        st = analysis.tau_stats
        for b, Lb in zip(st.bins, st.L):
            pmf = distinct_count_pmf(analysis, int(b))
            mean = float(np.dot(np.arange(len(pmf)), pmf))
            assert abs(mean - Lb) <= 1e-9


    def test_near_certain_letters_keep_their_absent_probability(self):
        # 50 letters of 1/50 at n = 1000: each is missing with q = 1.7e-9, and
        # P(one missing) = 50 q p^49 has q's relative precision only if q is
        # not recovered as 1 - p (that loses it to 2e-8); measured 3.6e-15
        k, n = 50, 1000
        pv = ParamVector.from_probs([1 / k] * k)
        analysis = SourceAnalysis(pv, n, 0.4)
        pmf = distinct_count_pmf(analysis, int(analysis.tau_stats.group_bin[0]))
        with localcontext() as ctx:
            ctx.prec = 50
            q = (1 - Decimal(float(pv.values[0]))) ** n
            for x in (k - 2, k - 1, k):
                exact = math.comb(k, x) * (1 - q) ** x * q ** (k - x)
                assert abs(Decimal(float(pmf[x])) - exact) <= Decimal("1e-14") * exact


def _complementary(small: float) -> tuple[float, float]:
    """(small', 1 - small') with the sum exactly 1 and small' within an ulp of 1 of small."""
    big = 1.0 - small
    return 1.0 - big, big


# (p, q) pairs with p + q == 1 exactly, p within 1e-6 of 0 and of 1 included
_PQ = [pq for small in (1e-12, 3e-7, 1e-6, 0.01, 0.09, 0.1, 0.11, 0.3, 0.5)
       for pq in (_complementary(small), _complementary(small)[::-1])]


class TestBinomialPmf:
    def test_matches_exact_rationals(self):
        # |error| <= 2e-15 |ln P| P: the log-probability is good to a few ulp of
        # its size (measured 1.2e-15 over these cases); values below float64's
        # normal range are checked for smallness only
        for c in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60):
            for p, q in _PQ:
                got = binomial_pmf(c, p, q)
                assert got.shape == (c + 1,)
                assert abs(math.fsum(got) - 1.0) <= 1e-12
                pf, qf = Fraction(p), Fraction(q)
                for x in range(c + 1):
                    exact = float(math.comb(c, x) * pf ** x * qf ** (c - x))
                    if exact < sys.float_info.min:
                        assert got[x] < 2 * sys.float_info.min
                        continue
                    tol = 2e-15 * max(1.0, -math.log(exact)) * exact
                    assert abs(got[x] - exact) <= tol, (c, p, x)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        # measured max 2.7e-15 absolute, all of it scipy's own: at p = 1e-12
        # it misses the exact pmf(0) by 2e-15 where this one matches it to 5e-17
        for c in (1, 2, 7, 60, 1000, 12345, 100_000, 300_000):
            for p, q in _PQ + [_complementary(2.5e-7)[::-1]]:
                got = binomial_pmf(c, p, q)
                ref = stats.binom.pmf(np.arange(c + 1), c, p)
                assert np.max(np.abs(got - ref)) <= 4e-15, (c, p)
                assert abs(math.fsum(got) - 1.0) <= 1e-12, (c, p)

    def test_degenerate_success_probability(self):
        assert binomial_pmf(3, 0.0, 1.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binomial_pmf(3, 1.0, 0.0).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_stirling_error_table(self):
        with localcontext() as ctx:
            ctx.prec = 50
            ln_sqrt_2pi = (2 * Decimal("3.14159265358979323846264338327950288419716939937510")).ln() / 2
            for m in range(1, len(_STIRLERR_TABLE)):
                want = (Decimal(math.factorial(m)).ln() - (m + Decimal("0.5")) * Decimal(m).ln()
                        + m - ln_sqrt_2pi)
                assert _STIRLERR_TABLE[m] == float(want)


class TestLog2Factorial:
    def test_matches_exact_factorials(self):
        # measured 3.7e-16 relative at most
        for m in range(3000):
            exact = math.log2(math.factorial(m))
            assert abs(log2_factorial(m) - exact) <= 1e-15 * exact, m

    def test_branches_agree_at_cutoff(self):
        for m in (EXACT_FACTORIAL_BELOW - 1, EXACT_FACTORIAL_BELOW):
            by_int = math.log(math.factorial(m)) / LN2
            by_lgamma = math.lgamma(m + 1.0) / LN2
            assert abs(by_int - by_lgamma) <= 1e-15 * by_int
        assert log2_factorial(EXACT_FACTORIAL_BELOW) == math.lgamma(EXACT_FACTORIAL_BELOW + 1.0) / LN2

    def test_small_integers_are_exact(self):
        assert log2_factorial(0) == log2_factorial(1) == 0.0
        assert log2_factorial(2) == log2_factorial(2.0) == 1.0
        assert log2_factorial(2.5) == math.lgamma(3.5) / LN2

    def test_negative_argument_raises(self):
        for m in (-1, -0.5):
            with pytest.raises(ValueError):
                log2_factorial(m)


class TestLbTheorem4:
    def test_default_window_constants(self):
        from pattern_entropy.bounds import DEFAULT_VARTHETA_MINUS, DEFAULT_VARTHETA_PLUS
        assert abs(DEFAULT_VARTHETA_MINUS - math.exp(-5.5)) <= 1e-15
        assert abs(DEFAULT_VARTHETA_PLUS - math.exp(1.4)) <= 1e-15

    def test_invalid_window(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        with pytest.raises(ValueError):
            lb_theorem4(SourceAnalysis(pv, 10, 0.2), vartheta_minus=1.5)

    def test_no_low_letters(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        rep = lb_theorem4(SourceAnalysis(pv, 50, 0.2))
        assert rep.term("low_reoccurrence_gain_S2") == 0.0
        assert rep.term("low_first_occurrence_gain_S3") == 0.0
        assert rep.term("boundary_separation_S4") == 0.0
        a, _ = lb_theorem2(SourceAnalysis(pv, 50, 0.2))
        assert abs(rep.value - a.value) <= 1e-9

    def test_single_low_letter_zero_s2(self):
        # theta_1 = 1/n = phi01: log(phi01/theta) = 0 wipes the S2 contribution
        n = 50
        pv = ParamVector.from_probs([1.0 / n, 1.0 - 1.0 / n])
        rep = lb_theorem4(SourceAnalysis(pv, n, 0.35))
        assert abs(rep.term("low_reoccurrence_gain_S2")) <= 1e-12

    def test_s2_variants_close(self):
        pv = ParamVector.from_groups([2e-4, 5e-3, 0.493, 0.5], [10, 1, 1, 1])
        n, eps = 100, 0.25
        r1 = lb_theorem4(SourceAnalysis(pv, n, eps), s2_variant="b1")
        r2 = lb_theorem4(SourceAnalysis(pv, n, eps), s2_variant="b2")
        assert abs(r1.value - r2.value) <= 0.25 * max(1.0, abs(r1.value))

    def test_s3_origin_flag_adds_mass(self):
        pv = ParamVector.from_groups([1e-3, 0.979 / 2, 0.979 / 2], [21, 1, 1])
        n, eps = 100, 0.3
        base = lb_theorem4(SourceAnalysis(pv, n, eps))
        origin = lb_theorem4(SourceAnalysis(pv, n, eps), s3_from_origin=True)
        assert origin.term("low_first_occurrence_gain_S3") >= base.term(
            "low_first_occurrence_gain_S3")

    def test_split_form_for_large_last_letter(self):
        # n=2, eps=0.55: the low threshold exceeds 3/5, so the last low letter splits
        pv = ParamVector.from_probs([0.35, 0.65])
        rep = lb_theorem4(SourceAnalysis(pv, 2, 0.55))
        assert any("split" in note for note in rep.notes)


class TestContributionLimits:
    def test_no_low_letters(self):
        pv = ParamVector.from_probs([0.4, 0.6])
        p1, p2 = contribution_limits(SourceAnalysis(pv, 20, 0.2))
        assert p1.value == 0.0 and p2.value == 0.0

    def test_part2_formula_value(self):
        # half the mass below 1/n^(1+eps) at n=100, eps=0.2
        pv = ParamVector.from_groups([5e-5, 0.5], [10000, 1])
        _, p2 = contribution_limits(SourceAnalysis(pv, 100, 0.2))
        want = 0.5 * 100 ** 0.8 / 2 * math.log2(2 * math.e * 100 ** 1.2)
        assert abs(p2.value - want) <= 1e-9
        assert abs(want - 103.66) <= 0.01

    def test_part1_scaling_in_n(self):
        # with ell01 = n and fixed phi01, the first term scales as n log n
        phi01 = 0.5
        vals = []
        for n in (1000, 2000):
            k0 = 10 * n
            pv = ParamVector.from_groups([phi01 / k0, 1.0 - phi01], [k0, 1])
            p1, _ = contribution_limits(SourceAnalysis(pv, n, 0.2))
            vals.append(p1.terms[0][1])
        n = 1000
        lead = lambda m: phi01 * m * math.log2(m)
        ratio = vals[1] / vals[0]
        want = (2 * lead(2 * n) / lead(n) + 0.0) / 2
        assert abs(ratio - want) / want < 0.2


class TestStirling:
    def test_m1(self):
        lo, hi = stirling_bounds(1)
        # independent linear-space evaluation of the two closed forms
        want_lo = math.sqrt(2 * math.pi) / math.e
        want_hi = want_lo * math.exp(1.0 / 12.0)
        assert abs(2.0 ** lo - want_lo) <= 1e-12
        assert abs(2.0 ** hi - want_hi) <= 1e-9
        assert abs(want_lo - 0.9221) <= 5e-5 and abs(want_hi - 1.0023) <= 5e-5
        assert 2.0 ** lo <= 1.0 <= 2.0 ** hi

    def test_m10_brackets_exact(self):
        lo, hi = stirling_bounds(10)
        assert lo <= math.log2(3628800) <= hi

    def test_m1000_vs_lgamma(self):
        lo, hi = stirling_bounds(1000)
        lf = log2_factorial(1000)
        assert lo <= lf <= hi
        assert abs(hi - lo - LOG2E / 12000.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            stirling_bounds(0)


class TestRange:
    def test_gamma_fixed_point_example(self):
        g, resid = gamma_fixed_point(10.0)  # ln(e k^3 / A) = 11
        assert abs(g - 8.60093) <= 1e-4
        assert abs(resid) < 1e-9

    def test_gamma_monotone_interface(self):
        g1, _ = gamma_fixed_point(8.0)
        g2, _ = gamma_fixed_point(12.0)
        assert g2 > g1 >= 2.0

    def test_below_threshold_branch(self):
        row = range_decreases(10, 10**6, 0.2, 0.2)
        assert row["upper_nonasym"] == 0.0 and not row["upper_valid"]
        _, upper = range_theorem5(SourceAnalysis(ParamVector.from_groups([0.1], [10]), 10**6, 0.2),
                                  0.2)
        assert not upper.valid

    def test_reports_with_theta(self):
        pv = ParamVector.from_probs([0.25] * 4)
        lower, upper = range_theorem5(SourceAnalysis(pv, 30, 0.2), 0.3)
        h_block = 30 * 2.0
        assert abs(lower.value - (h_block - math.log2(24))) <= 1e-9
        assert upper.term("block_entropy") == h_block

    def test_staircase_example(self):
        # d letters at each of beta consecutive xi-bin midpoints: the permutation
        # deduction equals beta*log2(d!) and tracks the staircase frontier
        n, eps = 10**6, 0.2
        beta, d = 10, 130
        grid = build_grid("xi", n, eps)
        values, counts = [], []
        mass = 0.0
        for b in range(1, beta + 1):
            mid = 0.5 * (grid.point(b) + grid.point(b + 1))
            values.append(mid)
            counts.append(d)
            mass += d * mid
        values.append(1.0 - mass)
        counts.append(1)
        pv = ParamVector.from_groups(values, counts)
        st = bin_stats(grid, pv)
        per_bin = dict(zip(st.bins.tolist(), st.counts.tolist()))
        assert all(per_bin[b] == d for b in range(1, beta + 1))
        k = beta * d
        deduction = math.fsum(log2_factorial(c) for b, c in per_bin.items()
                              if 1 <= b <= grid.A and c > 1)
        assert abs(deduction - beta * log2_factorial(d)) <= 1e-9
        frontier = 1.5 * k * math.log2(
            k / (math.e ** (2 / 3) * float(n) ** ((1 - eps) / 3) * 3 ** (1 / 3)))
        assert abs(deduction / frontier - 1.0) <= 0.25
