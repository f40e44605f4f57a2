import gc
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy import _reference, oracle
from pattern_entropy._common import ResourceCapError
from pattern_entropy.distributions import (
    MATERIALIZE_CAP,
    ParamVector,
    SourceSpec,
    iid_entropy,
    make_distribution,
    sample_sequence,
)
from pattern_entropy.grids import bin_index, build_grid
from pattern_entropy.patterns import (
    ENUMERATION_CAP,
    PROFILE_DP_CAP,
    Pattern,
    ProfileProbability,
    _count_patterns,
    bin_sequence,
    count_partitions,
    enumerate_partitions,
    enumerate_patterns,
    extract_pattern,
    pattern_probability,
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
    def test_matches_bitmask_reference_on_tied_sources(self):
        # one pattern of every profile, k <= 6 and n <= 8, against the 2**k reference injection sum
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(150):
            k, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            pv = _random_tied_source(rng, k)
            log_p = ProfileProbability(pv)
            for parts in enumerate_partitions(n, min(k, n)):
                psi = _pattern_with_profile(parts)
                got = math.exp(log_p(list(Counter(psi).values())))
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
        got = ProfileProbability(pv)([40] * 10)
        assert got == pytest.approx(math.log(math.factorial(10)) - 400 * math.log(10), rel=1e-15)
        assert math.exp(got) == 0.0

    def test_more_indices_than_letters(self):
        assert ProfileProbability(ParamVector.from_groups([0.1, 0.4], [2, 2]))([1] * 5) == -math.inf

    def test_every_order_of_the_counts_gives_the_same_bits(self):
        # ascending (exact enumeration), descending (Monte Carlo rows), first
        # appearance in a pattern (pattern_probability) and shuffled orders
        rng = np.random.default_rng(11)
        for _ in range(60):
            k, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            log_p = ProfileProbability(_random_tied_source(rng, k))
            for parts in enumerate_partitions(n, min(k + 1, n)):
                want = log_p(parts)
                seq = rng.permutation(np.repeat(np.arange(len(parts)), parts))
                orders = [parts[::-1], list(Counter(extract_pattern(seq)).values()),
                          tuple(parts), *(rng.permutation(parts).tolist() for _ in range(3))]
                assert all(log_p(order) == want for order in orders), (k, parts)


class TestOneGroup:
    def test_matches_injection_sum_on_every_pattern(self):
        # ln (k)_m + n ln v against the injection sum over letters, n <= 8, k <= 4
        for k in range(1, 5):
            theta = ParamVector.from_groups([1.0 / k], [k])
            log_p = ProfileProbability(theta)
            for n in range(1, 9):
                for psi in enumerate_patterns(n, min(k, n)):
                    got = math.exp(log_p(list(Counter(psi).values())))
                    want = _reference._injection_sum_probability(theta, psi)
                    assert abs(got - want) <= 1e-12 * want, (k, psi)

    def test_closed_form_has_the_dp_bits(self):
        # the DP's last-group step run on its own gives the closed form's bits,
        # -inf past k and the sign of zero included
        for k in [*range(1, 13), 1000, 10**6]:
            log_p = ProfileProbability(ParamVector.from_groups([1.0 / k], [k]))
            for n in range(1, 11):
                for parts in enumerate_partitions(n, n):
                    got, want = log_p(parts), log_p._dp(parts)
                    assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
        assert ProfileProbability(ParamVector.from_groups([0.2], [5]))([1] * 6) == -math.inf


def _recording_routes(monkeypatch):
    """The names of ProfileProbability's routes, one per call, as they run."""
    taken = []
    for name in ("_fold", "_dp"):
        def record(self, parts, _name=name, _real=getattr(ProfileProbability, name)):
            taken.append(_name)
            return _real(self, parts)

        monkeypatch.setattr(ProfileProbability, name, record)
    return taken


def _source_of_four_letters(rng, groups):
    """Random values on ``groups`` groups of 4 letters in all, for the 2**k reference."""
    counts = rng.multinomial(4 - groups, np.ones(groups) / groups) + 1
    weights = rng.uniform(0.2, 1.0, size=groups)
    return ParamVector.from_groups(weights / float(weights @ counts), counts)


class TestFold:
    def test_matches_dp_and_injection_sum(self):
        # every profile with n <= 30 on random sources of 2, 3 and 4 groups:
        # ln P against the DP's, P against the 2**k injection sum
        rng = np.random.default_rng(30)
        for groups in (2, 3, 4):
            theta = _source_of_four_letters(rng, groups)
            fold, dp = ProfileProbability(theta), ProfileProbability(theta)
            for n in range(1, 31):
                for parts in enumerate_partitions(n, min(n, theta.k)):
                    fold.budget = dp.budget = PROFILE_DP_CAP
                    got, want = fold._fold(parts), dp._dp(parts)
                    # n = 1 gives ln P = 0.0 from the DP and -1.1e-16 from the fold
                    assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (groups, parts)
                    ref = _reference._injection_sum_probability(theta, _pattern_with_profile(parts))
                    assert abs(math.exp(got) - ref) <= 1e-13 * ref, (groups, parts)

    def test_same_bits_in_every_order_and_history(self):
        # a fresh object per profile, one object over the profiles in ascending,
        # shuffled and descending order, and every order of the counts
        rng = np.random.default_rng(31)
        for theta in (ParamVector.from_groups([1e-4, 1e-2], [5000, 50]),
                      ParamVector.from_groups([0.1, 0.2, 0.3], [3, 2, 1])):
            profiles = [p for n in range(1, 13) for p in enumerate_partitions(n, min(n, theta.k))]
            want = [ProfileProbability(theta)._fold(parts) for parts in profiles]
            for order in (range(len(profiles)), rng.permutation(len(profiles)),
                          range(len(profiles) - 1, -1, -1)):
                log_p = ProfileProbability(theta)
                got = {i: log_p._fold(profiles[i]) for i in order}
                assert [got[i] for i in range(len(profiles))] == want
            log_p = ProfileProbability(theta)
            for parts, value in zip(profiles, want):
                shuffled = rng.permutation(parts).tolist()
                assert log_p(shuffled) == log_p(parts[::-1]) == log_p(parts)
                assert log_p._fold(sorted(shuffled)) == value

    @pytest.mark.parametrize("theta, profiles, routes", [
        # the oracle workload: geometric k = 4 at n = 7 takes the fold, its
        # bin of two one-letter groups the DP
        (make_distribution(SourceSpec("geometric", {"k": 4, "decay": 0.6})),
         list(enumerate_partitions(7, 4)), ["_fold"] * 11),
        (ParamVector.from_groups([0.3, 0.7], [1, 1]),
         [p for j in range(1, 8) for p in enumerate_partitions(j, 2)], ["_dp"] * 19),
        # the two-level source: 21 states for [1] * 20 in the DP, many more
        # for distinct counts
        (ParamVector.from_groups([1e-4, 1e-2], [5000, 50]),
         [[1] * 20, [1, 2, 3, 4, 10], [1] * 10 + [2] * 5], ["_dp", "_fold", "_fold"]),
        # 100 letters of distinct probabilities: 2**99 cells a part for W
        (ParamVector.from_probs(np.arange(1.0, 101.0) / 5050.0),
         list(enumerate_partitions(6, 6)), ["_dp"] * 11),
    ], ids=["geometric4_n7", "two_letter_bin", "two_level", "k100_n6"])
    def test_route_choice(self, monkeypatch, theta, profiles, routes):
        taken = _recording_routes(monkeypatch)
        log_p = ProfileProbability(theta)
        for parts in profiles:
            log_p(parts)
        assert taken == routes

    def test_monte_carlo_profiles_take_the_fold(self, monkeypatch):
        # ex2-ex4 at n = 10^3: the profiles of ten samples, each of about a
        # thousand counts
        for params in ({"phi0": 0.5, "mu": 0.4, "nu": 0.3, "level1": "below"},
                       {"phi0": 0.5, "mu": 0.5, "nu": 0.45, "level1": "above"},
                       {"phi0": 0.5, "mu": 0.5, "level1": "unit"}):
            theta = make_distribution(SourceSpec("two-level", params, 1000))
            profiles, _ = oracle._row_profiles(sample_sequence(theta, (10, 1000), 0))
            taken = _recording_routes(monkeypatch)
            log_p = ProfileProbability(theta)
            for padded in profiles.tolist():
                log_p([c for c in padded if c])
            assert taken == ["_fold"] * len(profiles)

    def test_zipf_k200_refuses_before_any_allocation(self, monkeypatch):
        # 200 one-letter groups: the fold's charge, 2**199 cells a part, is
        # counted in Python ints, and the DP refuses on its own count
        theta = make_distribution(SourceSpec("zipf", {"k": 200, "exponent": 1.3}))
        log_p = ProfileProbability(theta)

        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated")

        for name in ("empty", "full", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        parts = [1] * 20 + [2] * 20 + [3] * 20
        for route in (log_p, log_p._fold):
            with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
                route(parts)
        assert log_p.budget == PROFILE_DP_CAP
        assert len(log_p._charges) == 2  # counted no further than the first charge past the cap

    def test_two_letters_keep_the_dp(self):
        # two one-letter groups: the DP makes at most 6 transitions a profile,
        # the fold would charge 15 (5 a part, 5 its weighing).  At n = 150,000
        # the 75,001 partitions would pass PROFILE_DP_CAP by the fold alone;
        # the DP stays under it, as it did before the fold existed
        theta = ParamVector.from_probs([0.3, 0.7])
        n = 150_000
        assert (n // 2 + 1) * ProfileProbability(theta)._charge(3) > PROFILE_DP_CAP
        h = oracle.exact_pattern_entropy(theta, n)
        # the pattern and the first letter give the sequence: H(X^n) - 1 <= h <= H(X^n)
        assert abs(h - n * iid_entropy(theta)) <= 1.0

    def test_charges_before_folding(self, monkeypatch):
        # the tail's charge is checked against what is left before any part
        theta = ParamVector.from_groups([1e-4, 1e-2], [5000, 50])
        parts = list(range(1, 30))
        log_p = ProfileProbability(theta)
        log_p._fold(parts)
        charge = PROFILE_DP_CAP - log_p.budget
        assert charge == log_p._charge(len(parts) + 1)  # the parts, then the weighing
        log_p = ProfileProbability(theta)
        log_p.budget = charge - 1
        monkeypatch.setattr(ProfileProbability, "_fold_part", lambda *args: pytest.fail("folded"))
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            log_p._fold(parts)
        assert log_p.budget == charge - 1

    def test_keeps_few_layers(self):
        # every layer j that isqrt(j) divides and the last isqrt(m) + 1:
        # at most 4 isqrt(m) + 2 of them
        theta = ParamVector.from_groups([1e-6, 1e-3], [500_000, 500])
        log_p = ProfileProbability(theta)
        for m in (2_000, 1_000, 2_500):
            log_p._fold([1] * (m - 5) + [2, 2, 3, 4, 7])
            kept = [j for j, layer in enumerate(log_p._layers) if layer is not None]
            assert len(kept) <= 4 * math.isqrt(m) + 2, m
            assert kept[-1] == m - 1


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
            ProfileProbability(many)([1] * 20 + [2] * 20 + [3] * 20)
        assert str(PROFILE_DP_CAP) in str(err.value)

    def test_cap_counts_the_transitions_made(self):
        # groups of 4, 4 and 2 letters and ten distinct counts at n = 200: some
        # 10**5 transitions, where a bound of entering states times takes
        # per group came to more than 10**6
        pv = ParamVector.from_groups([0.05, 0.1, 0.2], [4, 4, 2])
        parts = [*range(1, 10), 155]
        got = ProfileProbability(pv)(parts)
        want = _reference._injection_sum_probability(pv, _pattern_with_profile(parts))
        assert abs(got - math.log(want)) <= 1e-13 * abs(got)
        assert 1e-150 < want < 1e-149

    def test_guard_holds_for_one_group_above_cap(self):
        # one group takes the closed form (k)_m * v**n, whatever k and the profile
        k = 13
        want = k * (k - 1) / k ** 2
        got = pattern_probability(ParamVector.from_groups([1.0 / k], [k]), [1, 2])
        assert abs(got - want) <= 1e-15 * want
        k, parts = 10**6, [1] * 1000 + [2] * 1000 + [3] * 1000
        got = ProfileProbability(ParamVector.from_groups([1.0 / k], [k]))(parts)
        want = math.log(math.perm(k, 3000)) - 6000 * math.log(k)
        assert abs(got - want) <= 1e-15 * abs(want)
        # the same profile over three groups of letters trips the cap
        j = 333_333
        three = ParamVector.from_groups([v / (3 * j) for v in (0.5, 1.0, 1.5)], [j] * 3)
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            ProfileProbability(three)(parts)

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
