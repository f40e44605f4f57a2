import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy import verify
from pattern_entropy._common import ResourceCapError
from pattern_entropy.distributions import ParamVector
from pattern_entropy.grids import build_grid
from pattern_entropy.patterns import (
    INJECTION_K_CAP,
    Pattern,
    bin_sequence,
    count_patterns,
    enumerate_patterns,
    extract_pattern,
    pattern_probability,
)


class TestExtract:
    def test_lossless(self):
        assert str(extract_pattern("lossless")) == "12331433"

    def test_sellsoll(self):
        assert str(extract_pattern("sellsoll")) == "12331433"

    def test_constant(self):
        assert str(extract_pattern("aaaaa")) == "11111"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_pattern("")

    def test_numpy_input(self):
        x = np.array([7, 3, 7, 1])
        assert extract_pattern(x).indices == (1, 2, 1, 3)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=16))
    def test_idempotent(self, x):
        psi = extract_pattern(x)
        assert extract_pattern(psi.indices).indices == psi.indices

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=16), st.integers(1, 16))
    def test_prefix_consistency(self, x, j):
        j = min(j, len(x))
        assert extract_pattern(x[:j]).indices == extract_pattern(x).indices[:j]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=16), st.randoms())
    def test_alphabet_invariance(self, x, rnd):
        relabel = list(range(10, 16))
        rnd.shuffle(relabel)
        y = [relabel[v] for v in x]
        assert extract_pattern(y).indices == extract_pattern(x).indices


class TestPatternType:
    def test_restricted_growth_enforced(self):
        with pytest.raises(ValueError):
            Pattern((1, 3))
        with pytest.raises(ValueError):
            Pattern((2,))

    def test_m_and_render(self):
        p = Pattern((1, 2, 1, 3))
        assert p.m == 3 and len(p) == 4
        assert str(p) == "1213"

    def test_wide_render_uses_commas(self):
        p = Pattern(tuple(range(1, 12)))
        assert str(p) == "1,2,3,4,5,6,7,8,9,10,11"


class TestEnumerate:
    def test_n2_k2(self):
        assert [str(p) for p in enumerate_patterns(2, 2)] == ["11", "12"]

    def test_n3_k3_is_bell(self):
        got = [str(p) for p in enumerate_patterns(3, 3)]
        assert got == ["111", "112", "121", "122", "123"]

    def test_n3_k1(self):
        assert [str(p) for p in enumerate_patterns(3, 1)] == ["111"]

    def test_counts_match_stream(self):
        for n in range(1, 8):
            for k in range(1, 5):
                assert count_patterns(n, k) == sum(1 for _ in enumerate_patterns(n, k))

    def test_bell_numbers(self):
        # with k >= n the count is the Bell number
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]:
            assert count_patterns(n, n) == bell

    def test_cap_guard(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_patterns(40, 40, cap=1000))

    def test_lexicographic_order_of_every_pattern(self):
        for n in range(1, 7):
            for k in range(1, 5):
                want = sorted({extract_pattern(seq).indices
                               for seq in itertools.product(range(k), repeat=n)})
                assert [p.indices for p in enumerate_patterns(n, k)] == want

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                list(enumerate_patterns(3, 2))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPatternProbability:
    def test_two_letter_cases(self):
        pv = ParamVector.from_probs([0.25, 0.75])
        assert abs(pattern_probability(pv, [1, 2]) - 0.375) <= 1e-15
        assert abs(pattern_probability(pv, [1, 1]) - 0.625) <= 1e-15

    def test_length_one(self):
        pv = ParamVector.from_probs([0.3, 0.7])
        assert pattern_probability(pv, [1]) == 1.0

    def test_too_many_indices_warns_zero(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        with pytest.warns(UserWarning):
            assert pattern_probability(pv, [1, 2, 3]) == 0.0

    def test_total_mass_one(self):
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            for k in (2, 3, 4):
                probs = rng.dirichlet(np.ones(k))
                while probs.min() <= 1e-9:
                    probs = rng.dirichlet(np.ones(k))
                pv = ParamVector.from_probs(probs)
                total = math.fsum(pattern_probability(pv, psi)
                                  for psi in enumerate_patterns(n, min(n, k)))
                assert abs(total - 1.0) <= 1e-10

    def test_matches_sequence_grouping(self):
        # injection-sum route equals direct summation over sequences per pattern
        rng = np.random.default_rng(9)
        for n, k in [(4, 3), (5, 2), (6, 4)]:
            probs = rng.dirichlet(np.ones(k))
            while probs.min() <= 1e-9:
                probs = rng.dirichlet(np.ones(k))
            pv = ParamVector.from_probs(probs)
            grouped: dict = {}
            for seq in itertools.product(range(k), repeat=n):
                p = math.prod(pv.probs[s] for s in seq)
                grouped.setdefault(extract_pattern(seq).indices, 0.0)
                grouped[extract_pattern(seq).indices] += p
            for psi, want in grouped.items():
                assert abs(pattern_probability(pv, psi) - want) <= 1e-12

    def test_injection_guard(self):
        pv = ParamVector.from_groups([1.0 / 16] * 16, [1] * 16)
        with pytest.raises(ResourceCapError):
            pattern_probability(pv, [1, 2])

    def test_guard_holds_for_one_group_above_cap(self):
        k = INJECTION_K_CAP + 1
        with pytest.raises(ResourceCapError, match=str(INJECTION_K_CAP)):
            pattern_probability(ParamVector.from_groups([1.0 / k], [k]), [1, 2])
        k = INJECTION_K_CAP
        want = k * (k - 1) / k ** 2
        got = pattern_probability(ParamVector.from_groups([1.0 / k], [k]), [1, 2])
        assert abs(got - want) <= 1e-15 * want

    def test_too_many_indices_warns_before_cap(self):
        # m > k returns 0 with a warning, even where k is above the cap
        k = INJECTION_K_CAP + 1
        pv = ParamVector.from_groups([1.0 / k], [k])
        with pytest.warns(UserWarning, match="probability 0"):
            assert pattern_probability(pv, range(1, k + 2)) == 0.0
        pv = ParamVector.from_groups([0.1, 0.4], [2, 2])
        with pytest.warns(UserWarning):
            assert pattern_probability(pv, [1, 2, 3, 4, 5]) == 0.0

    def test_uniform_closed_form(self):
        # k!/(k-m)! * k**-n: the falling factorial counts the injections
        for k in range(1, INJECTION_K_CAP + 1):
            pv = ParamVector.from_groups([1.0 / k], [k])
            for psi in [(1,), (1, 1, 2, 1), (1, 2, 3, 1, 2), tuple(range(1, min(k, 9) + 1)),
                        (1, 2, 2, 3, 4, 4, 4, 5, 1, 6)]:
                m = max(psi)
                if m > k:
                    continue
                n = len(psi)
                want = math.perm(k, m) / k ** n
                got = pattern_probability(pv, psi)
                assert abs(got - want) <= 1e-13 * want, (k, psi)

    def test_matches_injection_sum_on_tied_sources(self):
        # the grouped DP against the bitmask injection sum kept in verify
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 8))
            G = int(rng.integers(1, k))
            counts = rng.multinomial(k - G, np.ones(G) / G) + 1
            values = rng.dirichlet(np.ones(G)) / counts
            values /= float(np.dot(values, counts))
            pv = ParamVector.from_groups(values, counts)
            for psi in enumerate_patterns(n, min(k, n)):
                got = pattern_probability(pv, psi)
                want = verify._injection_sum_probability(pv, psi)
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12


class TestBinSequence:
    def test_constant_bins(self):
        pv = ParamVector.from_probs([0.25] * 4)
        g = build_grid("tau", 4, 0.0)
        assert bin_sequence(pv, g, [1, 2, 3, 4]) == (0, 0, 0, 0)

    def test_point_list_lookup(self):
        pv = ParamVector.from_probs([0.05, 0.95])
        g = build_grid("tau", 100, 0.0)
        assert bin_sequence(pv, g, (2, 1)) == (9, 2)

    def test_single_symbol(self):
        pv = ParamVector.from_probs([0.3, 0.7])
        g = build_grid("tau", 10, 0.0)
        assert len(bin_sequence(pv, g, [2])) == 1

    def test_rejects_out_of_alphabet(self):
        pv = ParamVector.from_probs([0.3, 0.7])
        g = build_grid("tau", 10, 0.0)
        with pytest.raises(ValueError):
            bin_sequence(pv, g, [3])
