import gc
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy import _reference
from pattern_entropy._common import ResourceCapError
from pattern_entropy.distributions import MATERIALIZE_CAP, ParamVector
from pattern_entropy.grids import bin_index, build_grid
from pattern_entropy.patterns import (
    ENUMERATION_CAP,
    PROFILE_DP_CAP,
    Pattern,
    _count_patterns,
    bin_sequence,
    count_partitions,
    enumerate_partitions,
    enumerate_patterns,
    extract_pattern,
    log_profile_probability,
    pattern_probability,
    profile_of,
)


def _random_tied_source(rng, k):
    """A k-letter source of 1..k-1 tied groups (every letter alone when k = 1)."""
    G = int(rng.integers(1, max(k, 2)))
    counts = rng.multinomial(k - G, np.ones(G) / G) + 1
    values = rng.dirichlet(np.ones(G)) / counts
    values /= float(np.dot(values, counts))
    return ParamVector.from_groups(values, counts)


def _pattern_with_profile(parts):
    """The pattern whose index j occurs parts[j - 1] times, indices in blocks."""
    return Pattern(tuple(j for j, c in enumerate(parts, 1) for _ in range(c)))


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

    def test_input_kinds_agree(self):
        text = "mississippi"
        codes = [ord(c) for c in text]
        arr = np.array(codes)
        kinds = [codes, arr, list(arr), arr.astype(float), np.array(list(text)),
                 np.array(list(arr), dtype=object)]
        assert all(extract_pattern(x) == extract_pattern(text) for x in kinds)
        assert str(extract_pattern(text)) == "12332332442"

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
                assert _count_patterns(n, k) == sum(1 for _ in enumerate_patterns(n, k))

    def test_bell_numbers(self):
        # with k >= n the count is the Bell number
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]:
            assert _count_patterns(n, n) == bell

    def test_cap_guard(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_patterns(40, 40))

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


def _partitions_with_exactly(n, parts):
    """p(n, parts) by p(n, j) = p(n - 1, j - 1) + p(n - j, j)."""
    if n == parts == 0:
        return 1
    if n <= 0 or parts <= 0:
        return 0
    return _partitions_with_exactly(n - 1, parts - 1) + _partitions_with_exactly(n - parts, parts)


class TestPartitions:
    def test_small_cases(self):
        assert list(enumerate_partitions(4, 4)) == [[1, 1, 1, 1], [1, 1, 2], [1, 3], [2, 2], [4]]
        assert list(enumerate_partitions(4, 2)) == [[1, 3], [2, 2], [4]]
        assert list(enumerate_partitions(5, 1)) == [[5]]
        assert list(enumerate_partitions(1, 3)) == [[1]]

    def test_each_partition_once_ascending_and_counted(self):
        for n in range(1, 19):
            for max_parts in range(1, n + 2):
                got = [tuple(p) for p in enumerate_partitions(n, max_parts)]
                assert got == sorted(got) and len(set(got)) == len(got)
                assert all(sum(p) == n and len(p) <= max_parts and list(p) == sorted(p)
                           for p in got)
                want = sum(_partitions_with_exactly(n, j) for j in range(1, max_parts + 1))
                assert len(got) == count_partitions(n, max_parts) == want, (n, max_parts)

    def test_every_profile_of_a_pattern(self):
        # the partitions are exactly the profiles of the length-n patterns
        for n in range(1, 8):
            for k in range(1, 5):
                want = {tuple(sorted(Counter(psi).values())) for psi in enumerate_patterns(n, k)}
                assert {tuple(p) for p in enumerate_partitions(n, k)} == want

    def test_count_stops_above_the_cap(self):
        # p(60) = 966467 is below the cap; p(100) = 190569292 and p(10**4) are not
        assert count_partitions(60, 60) == 966_467
        assert ENUMERATION_CAP < count_partitions(100, 100) < 190_569_292
        assert count_partitions(10**4, 10**4) > ENUMERATION_CAP

    def test_cap_guard(self):
        with pytest.raises(ResourceCapError, match="enumeration cap"):
            next(enumerate_partitions(200, 200))


class TestProfileProbability:
    def test_profile_of(self):
        assert profile_of(Pattern((1, 2, 1, 3, 3, 1))) == {3: 1, 1: 1, 2: 1}
        assert profile_of([1, 1, 1]) == {3: 1}

    def test_matches_bitmask_reference_on_tied_sources(self):
        # one pattern of every profile, k <= 6 and n <= 8, against the 2**k reference injection sum
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(150):
            k, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            pv = _random_tied_source(rng, k)
            for parts in enumerate_partitions(n, min(k, n)):
                psi = _pattern_with_profile(parts)
                got = math.exp(log_profile_probability(pv, profile_of(psi)))
                want = _reference._injection_sum_probability(pv, psi)
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12

    def test_reference_subset_guard(self):
        # the 2**k reference is guarded by the letter subsets it may visit
        pv = ParamVector.from_groups([1.0 / 40], [40])
        with pytest.raises(ResourceCapError, match="INJECTION_SUBSET_CAP"):
            _reference._injection_sum_probability(pv, Pattern((1, 2, 3, 4, 5)))
        assert abs(_reference._injection_sum_probability(pv, Pattern((1, 2, 1)))
                   - 40 * 39 / 40 ** 3) <= 1e-15

    def test_no_underflow(self):
        # uniform k = 10 at n = 400: P = 10! * 10**-400, far below float64's range
        pv = ParamVector.from_groups([0.1], [10])
        got = log_profile_probability(pv, {40: 10})
        assert got == pytest.approx(math.log(math.factorial(10)) - 400 * math.log(10), rel=1e-15)
        assert math.exp(got) == 0.0

    def test_more_indices_than_letters(self):
        assert log_profile_probability(ParamVector.from_groups([0.1, 0.4], [2, 2]), {1: 5}) == -math.inf


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
        # k = 16 is past the old k cap of 12: the value now matches the 2**k
        # reference; the cap is on the DP's transitions and names itself
        pv = ParamVector.from_groups([1.0 / 16] * 16, [1] * 16)
        want = _reference._injection_sum_probability(pv, Pattern((1, 2)))
        assert abs(pattern_probability(pv, [1, 2]) - want) <= 1e-15 * want
        assert abs(want - 16 * 15 / 16 ** 2) <= 1e-15
        weights = np.arange(1.0, 201.0)
        many = ParamVector.from_probs(weights / weights.sum())  # 200 groups of one letter
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP") as err:
            log_profile_probability(many, {1: 20, 2: 20, 3: 20})
        assert str(PROFILE_DP_CAP) in str(err.value)

    def test_cap_counts_the_transitions_made(self):
        # groups of 4, 4 and 2 letters and ten distinct counts at n = 200: some
        # 10**5 transitions, where a bound of entering states times takes
        # per group came to more than 10**6
        pv = ParamVector.from_groups([0.05, 0.1, 0.2], [4, 4, 2])
        parts = [*range(1, 10), 155]
        got = log_profile_probability(pv, dict.fromkeys(parts, 1))
        want = _reference._injection_sum_probability(pv, _pattern_with_profile(parts))
        assert abs(got - math.log(want)) <= 1e-13 * abs(got)
        assert 1e-150 < want < 1e-149

    def test_guard_holds_for_one_group_above_cap(self):
        # one group is one DP transition, (k)_m * v**n, whatever k and the profile
        k = 13
        want = k * (k - 1) / k ** 2
        got = pattern_probability(ParamVector.from_groups([1.0 / k], [k]), [1, 2])
        assert abs(got - want) <= 1e-15 * want
        k, profile = 10**6, {1: 1000, 2: 1000, 3: 1000}
        got = log_profile_probability(ParamVector.from_groups([1.0 / k], [k]), profile)
        want = math.log(math.perm(k, 3000)) - 6000 * math.log(k)
        assert abs(got - want) <= 1e-15 * abs(want)
        # the same profile over three groups of letters trips the cap
        j = 333_333
        three = ParamVector.from_groups([v / (3 * j) for v in (0.5, 1.0, 1.5)], [j] * 3)
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            log_profile_probability(three, profile)

    def test_too_many_indices_warns_before_cap(self):
        # m > k returns 0 with a warning before any DP runs
        k = 13
        pv = ParamVector.from_groups([1.0 / k], [k])
        with pytest.warns(UserWarning, match="probability 0"):
            assert pattern_probability(pv, range(1, k + 2)) == 0.0
        pv = ParamVector.from_groups([0.1, 0.4], [2, 2])
        with pytest.warns(UserWarning):
            assert pattern_probability(pv, [1, 2, 3, 4, 5]) == 0.0

    def test_uniform_closed_form(self):
        # k!/(k-m)! * k**-n: the falling factorial counts the injections
        for k in [*range(1, 13), 1000]:
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
        # the grouped DP against the bitmask injection sum in _reference
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
                want = _reference._injection_sum_probability(pv, psi)
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

    @pytest.mark.parametrize("kind", ["tau", "xi", "eta"])
    def test_tied_groups_match_the_per_letter_bins(self, kind):
        pv = ParamVector.from_groups([0.05, 0.1, 0.25], [6, 2, 2])
        g = build_grid(kind, 200, 0.3)
        want = bin_index(g, pv.probs).tolist()
        assert len(set(want)) == 3
        assert bin_sequence(pv, g, range(1, pv.k + 1)) == tuple(want)
        assert [bin_sequence(pv, g, [s]) for s in range(1, pv.k + 1)] == [(b,) for b in want]

    def test_numpy_input(self):
        pv = ParamVector.from_groups([0.05, 0.1, 0.25], [6, 2, 2])
        g = build_grid("eta", 50, 0.3)
        x = np.array([10, 1, 7, 6, 9, 1], dtype=np.int64)
        got = bin_sequence(pv, g, x)
        assert got == bin_sequence(pv, g, x.tolist())
        assert all(type(b) is int for b in got)

    @pytest.mark.parametrize("bad", [0, 11])
    def test_rejects_symbols_beside_the_alphabet(self, bad):
        pv = ParamVector.from_groups([0.05, 0.1, 0.25], [6, 2, 2])
        g = build_grid("eta", 50, 0.3)
        with pytest.raises(ValueError, match=f"symbol {bad} outside the alphabet 1..10"):
            bin_sequence(pv, g, [1, bad, 2])

    def test_alphabet_past_the_materialization_cap(self, monkeypatch):
        k = 2 * MATERIALIZE_CAP
        pv = ParamVector.from_groups([1.0 / k], [k])

        def refuse(self):
            raise AssertionError("bin_sequence read the per-letter probabilities")

        monkeypatch.setattr(ParamVector, "probs", property(refuse))
        g = build_grid("eta", 1000, 0.3)
        b = bin_index(g, 1.0 / k)
        assert bin_sequence(pv, g, [1, 12345, k]) == (b, b, b)
