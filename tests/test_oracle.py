import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pattern_entropy import _reference, oracle, patterns
from pattern_entropy._common import ResourceCapError
from pattern_entropy._reference import (
    brute_force_permutation_count,
    exact_distinct_count_pmf,
    expected_codelength_stepwise,
)
from pattern_entropy.coder import CoderModel, sequence_codelength
from pattern_entropy.distributions import ParamVector, SourceSpec, iid_entropy, make_distribution
from pattern_entropy.grids import bin_index, build_grid
from pattern_entropy.oracle import exact_entropies, mc_pattern_entropy
from pattern_entropy.patterns import enumerate_patterns, extract_pattern, pattern_probability


def _grid(n):
    return build_grid("eta", n, 0.3)


def _geometric4():
    return make_distribution(SourceSpec("geometric", {"k": 4, "decay": 0.6}))


def _entropy_of(masses):
    return -math.fsum(p * math.log2(p) for p in masses if p > 0.0)


def _raw_joint(theta, grid, n):
    """P(pattern, bin string) of every key, summed over all k^n raw sequences."""
    probs = theta.probs.tolist()
    letter_bin = bin_index(grid, probs).tolist()
    joint: dict = {}
    for seq in itertools.product(range(len(probs)), repeat=n):
        key = (extract_pattern(seq).indices, tuple(letter_bin[s] for s in seq))
        joint[key] = joint.get(key, 0.0) + math.prod(probs[s] for s in seq)
    return joint


def reference_exact_entropies(theta, grid, n, model=None):
    """Slow reference for exact_entropies: one DP per pattern, then every raw
    sequence's pattern extracted and its (pattern, bin string) coded from scratch."""
    h_pattern = _entropy_of(
        pattern_probability(theta, psi) for psi in enumerate_patterns(n, min(theta.k, n)))
    joint = _raw_joint(theta, grid, n)
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    return oracle.ExactEntropies(
        h_x_block=n * iid_entropy(theta),
        h_pattern=h_pattern,
        h_joint=_entropy_of(joint.values()),
        expected_codelength=math.fsum(
            p * sequence_codelength(model, psi, beta)
            for (psi, beta), p in joint.items() if p > 0.0),
    )


def _random_source(rng, k):
    """A k-letter source whose letters fall into 1..k tied groups."""
    sizes = np.bincount(rng.integers(0, rng.integers(1, k + 1), size=k))
    sizes = sizes[sizes > 0]
    weights = rng.uniform(0.05, 1.0, size=len(sizes))
    return ParamVector.from_groups(weights / (weights @ sizes), sizes)


class TestExactEntropies:
    def test_fair_coin_n2(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        ee = exact_entropies(pv, _grid(2), 2)
        assert abs(ee.h_pattern - 1.0) <= 1e-12
        assert abs(ee.h_x_block - 2.0) <= 1e-12

    def test_quarter_three_quarter_n2(self):
        pv = ParamVector.from_probs([0.25, 0.75])
        ee = exact_entropies(pv, _grid(2), 2)
        assert abs(ee.h_pattern - 0.954434002924965) <= 1e-12

    def test_singleton_all_zero(self):
        pv = ParamVector.from_probs([1.0])
        ee = exact_entropies(pv, _grid(4), 4)
        assert ee.h_x_block == ee.h_pattern == ee.h_joint == 0.0
        assert ee.expected_codelength == 0.0

    def test_entropy_chain(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            while probs.min() <= 1e-6:
                probs = rng.dirichlet(np.ones(k))
            pv = ParamVector.from_probs(probs)
            ee = exact_entropies(pv, _grid(n), n)
            assert ee.h_pattern <= ee.h_joint + 1e-9
            assert ee.h_joint <= ee.expected_codelength + 1e-9
            assert ee.h_pattern <= ee.h_x_block + 1e-9

    def test_pattern_entropy_monotone_in_n(self):
        pv = ParamVector.from_probs([0.2, 0.35, 0.45])
        values = []
        for n in range(1, 7):
            h = -math.fsum(
                p * math.log2(p)
                for psi in enumerate_patterns(n, 3)
                if (p := pattern_probability(pv, psi)) > 0.0
            )
            values.append(h)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_cap_guard(self):
        pv = ParamVector.from_probs([0.25] * 4)
        with pytest.raises(ResourceCapError):
            exact_entropies(pv, _grid(30), 30)

    def test_bins_the_alphabet_once(self, monkeypatch):
        calls = {"bin_index": 0, "bin_sequence": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (oracle, patterns):
            for name in calls:
                if hasattr(module, name):
                    counting(module, name)
        pv = ParamVector.from_probs([0.1, 0.2, 0.3, 0.4])
        n = 5
        grid = _grid(n)
        ee = exact_entropies(pv, grid, n, model=CoderModel.from_source(pv, grid, n))
        assert calls == {"bin_index": 1, "bin_sequence": 1}
        assert ee.h_pattern <= ee.h_joint + 1e-9

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        cases = {"tied": 0, "shared_bin": 0, "model": 0, "inf": 0}
        sources = [(ParamVector.from_probs([1.0]), 3, None)]
        for _ in range(320):
            k, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            theta = _random_source(rng, k)
            model = None
            if rng.random() < 0.25:
                # the coder of another source on the same grid
                other = _random_source(rng, int(rng.integers(1, 6)))
                model = CoderModel.from_source(other, _grid(n), n)
            sources.append((theta, n, model))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for theta, n, model in sources:
                grid = _grid(n)
                got = exact_entropies(theta, grid, n, model=model)
                want = reference_exact_entropies(theta, grid, n, model=model)
                # the walk's three fields are bit-identical; h_pattern sums over
                # profiles in log space instead of over patterns
                assert (got.h_x_block, got.h_joint, got.expected_codelength) == (
                    want.h_x_block, want.h_joint, want.expected_codelength)
                assert abs(got.h_pattern - want.h_pattern) <= 1e-13 * want.h_pattern
                bins = bin_index(grid, theta.probs).tolist()
                cases["tied"] += int(theta.counts.max() > 1)
                cases["shared_bin"] += int(len(set(bins)) < len(bins))
                cases["model"] += int(model is not None)
                cases["inf"] += int(got.expected_codelength == math.inf)
        assert min(cases.values()) >= 10, cases

    def test_step_table_does_not_grow_with_n(self, monkeypatch):
        # the walk asks the coder once per (bin, indices seen) step and once per
        # bin's re-occurrence; every bin of geometric k = 4 has at most 4 < 5
        # letters, so n = 5 and n = 7 ask the same questions
        calls = {"next_symbol_prob": 0, "extract_pattern": 0}
        for module, name in ((oracle, "next_symbol_prob"), (patterns, "extract_pattern")):
            real = getattr(module, name)

            def wrapper(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, wrapper)
        counts = []
        for n in (5, 7):
            calls["next_symbol_prob"] = 0
            exact_entropies(_geometric4(), _grid(n), n)
            counts.append(calls["next_symbol_prob"])
        assert counts[0] == counts[1] > 0
        assert calls["extract_pattern"] == 0

    def test_leaf_codes_do_not_collide(self):
        rng = np.random.default_rng(10)
        shared_bin = 0
        for _ in range(120):
            k, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            theta = _random_source(rng, k)
            grid = _grid(n)
            letter_bin = bin_index(grid, theta.probs).tolist()
            joint, codelength = oracle._walk_sequences(
                theta.probs, letter_bin, n, CoderModel.from_source(theta, grid, n))
            want = _raw_joint(theta, grid, n)
            assert len(joint) == len(codelength) == len(want)
            assert sorted(joint.tolist()) == sorted(want.values())
            shared_bin += int(len(set(letter_bin)) < k)
        assert shared_bin >= 20

    def test_four_letters_at_n10_bit_for_bit(self):
        # the bits a per-sequence dict walk gives, summing each key's
        # probabilities in itertools.product order; that walk peaked at 81.8 MiB
        n = 10
        theta, grid = _geometric4(), _grid(n)
        tracemalloc.start()
        try:
            ee = exact_entropies(theta, grid, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ee.h_joint == 17.040557169805158
        assert ee.expected_codelength == 18.087957540296962
        assert peak <= 90 * 2 ** 20

    def test_zero_probability_step_warns(self):
        # a fair coin coded with the model of a one-letter source
        n = 3
        model = CoderModel.from_source(ParamVector.from_probs([1.0]), _grid(n), n)
        with pytest.warns(UserWarning, match="zero-probability step at position"):
            got = exact_entropies(ParamVector.from_probs([0.5, 0.5]), _grid(n), n, model=model)
        assert got.expected_codelength == math.inf

    def test_one_dp_per_occurrence_count_tuple(self, monkeypatch):
        # one DP per profile: the 11 partitions of 7 into at most 4 parts
        seen = []
        real = patterns.ProfileProbability.__call__

        def counting(self, cs, mus):
            seen.append((tuple(cs), tuple(mus)))
            return real(self, cs, mus)

        monkeypatch.setattr(patterns.ProfileProbability, "__call__", counting)
        theta = _geometric4()
        h = oracle.exact_pattern_entropy(theta, 7)
        assert len(seen) == len(set(seen)) == 11
        want = _entropy_of(pattern_probability(theta, psi) for psi in enumerate_patterns(7, 4))
        assert abs(h - want) <= 1e-14 * want

    def test_uses_no_pattern(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no pattern is enumerated or extracted")

        for name in ("enumerate_patterns", "extract_pattern"):
            monkeypatch.setattr(patterns, name, refuse)
            monkeypatch.setattr(oracle, name, refuse, raising=False)
        theta = _geometric4()
        assert oracle.exact_pattern_entropy(theta, 7) > 0.0
        assert mc_pattern_entropy(theta, 7, samples=50, seed=3).estimate > 0.0

    def test_large_alphabet_by_stirling_numbers(self):
        # uniform k = 1000 at n = 50: every profile with m parts has probability
        # (k)_m / k**n, and S(n, m) patterns have m distinct indices
        k, n = 1000, 50
        stirling = [1] + [0] * n  # S(i, m) over m, row by row
        for i in range(1, n + 1):
            stirling = [0] + [m * stirling[m] + stirling[m - 1] for m in range(1, n + 1)]
        want = math.fsum(
            s * math.perm(k, m) / k ** n * (n * math.log2(k) - math.log2(math.perm(k, m)))
            for m, s in enumerate(stirling) if s)
        got = oracle.exact_pattern_entropy(ParamVector.from_groups([1.0 / k], [k]), n)
        assert abs(got - want) <= 1e-12 * want

    def test_leaves_no_tables_behind(self):
        theta, n = _geometric4(), 7
        grid = _grid(n)
        gc.disable()
        tracemalloc.start()
        try:
            exact_entropies(theta, grid, n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert retained < 2 ** 20

    def test_pattern_side_matches_joint_marginal(self):
        pv = ParamVector.from_probs([0.15, 0.35, 0.5])
        n = 4
        grid = _grid(n)
        ee = exact_entropies(pv, grid, n)
        # marginalizing the joint over bin strings must reproduce h_pattern
        import itertools
        from pattern_entropy.patterns import bin_sequence, extract_pattern
        marg: dict = {}
        for seq in itertools.product(range(1, 4), repeat=n):
            p = math.prod(pv.probs[s - 1] for s in seq)
            key = extract_pattern(seq).indices
            marg[key] = marg.get(key, 0.0) + p
        h = -math.fsum(p * math.log2(p) for p in marg.values() if p > 0)
        assert abs(h - ee.h_pattern) <= 1e-10


class TestMC:
    def test_fair_coin(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        mc = mc_pattern_entropy(pv, 2, samples=100_000, seed=1)
        assert abs(mc.estimate - 1.0) <= 3 * mc.stderr + 1e-12

    def test_singleton_zero(self):
        pv = ParamVector.from_probs([1.0])
        mc = mc_pattern_entropy(pv, 5, samples=100, seed=1)
        assert mc.estimate == 0.0 and mc.stderr == 0.0

    def test_consistency_rate(self):
        # |estimate - exact| <= 3 SE in at least 99% of fixed-seed trials
        pv = ParamVector.from_probs([0.3, 0.7])
        n = 6
        exact = -math.fsum(
            p * math.log2(p)
            for psi in enumerate_patterns(n, 2)
            if (p := pattern_probability(pv, psi)) > 0.0
        )
        hits = sum(
            abs((mc := mc_pattern_entropy(pv, n, samples=5000, seed=s)).estimate - exact)
            <= 3 * mc.stderr
            for s in range(100)
        )
        assert hits >= 99

    def test_k_guard(self):
        # k = 12 was past the old k cap; the estimate brackets the exact value
        pv = ParamVector.from_groups([1.0 / 12] * 12, [1] * 12)
        mc = mc_pattern_entropy(pv, 4, samples=2000, seed=0)
        exact = oracle.exact_pattern_entropy(pv, 4)
        assert mc.samples == 2000 and abs(mc.estimate - exact) <= 4 * mc.stderr

    def test_underflowing_pattern_probability(self):
        # uniform k=10 at n=400: P(pattern) = 10! * 10**-400 is 0.0 in float64,
        # but its log is not; every sample has all ten letters
        pv = ParamVector.from_groups([0.1], [10])
        mc = mc_pattern_entropy(pv, 400, samples=10, seed=0)
        want = 400 * math.log2(10) - math.log2(math.factorial(10))
        assert abs(mc.estimate - want) <= 1e-15 * want and mc.stderr == 0.0
        assert 1306.98 < mc.estimate < 1306.99

    def test_matches_the_pattern_route(self):
        # the benchmark's seed-0 oracle input; the values are those of the
        # previous route, one extract_pattern and one linear-scale DP per sample
        mc = mc_pattern_entropy(ParamVector.from_groups([0.1], [10]), 30, 300, 1806341205)
        assert abs(mc.estimate - 77.91011506523725) <= 1e-12 * 77.91011506523725
        assert abs(mc.stderr - 0.011774860635912814) <= 1e-9 * 0.011774860635912814

    def test_matches_patterns_on_random_sources(self):
        # the profile of each row against its extracted pattern's probability
        rng = np.random.default_rng(12)
        for _ in range(20):
            k, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            theta = _random_source(rng, k)
            seed = int(rng.integers(2**32))
            draws = np.random.default_rng(seed).choice(
                np.arange(1, k + 1), size=(40, n), p=theta.probs)
            values = [-math.log2(pattern_probability(theta, extract_pattern(row)))
                      for row in draws.tolist()]
            want = math.fsum(values) / 40
            got = mc_pattern_entropy(theta, n, 40, seed)
            assert abs(got.estimate - want) <= 1e-12 * max(1.0, want)

    def test_ten_distinct_counts_on_three_groups(self):
        # 10 letters in groups of 4, 4 and 2 at n = 200: every sampled profile
        # runs its DP, and the estimate is the mean of the reference -log2 P
        pv = ParamVector.from_groups([0.05, 0.1, 0.2], [4, 4, 2])
        draws = np.random.default_rng(4).choice(np.arange(1, 11), size=(8, 200), p=pv.probs)
        values = [-math.log2(_reference._injection_sum_probability(pv, extract_pattern(row)))
                  for row in draws.tolist()]
        got = mc_pattern_entropy(pv, 200, 8, 4)
        want = math.fsum(values) / 8
        assert abs(got.estimate - want) <= 1e-12 * want

    def test_caps_the_profile_dp(self):
        # 200 letters of distinct probabilities: a sampled profile's DP is too large
        weights = np.arange(1.0, 201.0)
        pv = ParamVector.from_probs(weights / weights.sum())
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            mc_pattern_entropy(pv, 400, samples=10, seed=0)


class TestPermutationCount:
    def test_two_pairs(self):
        assert brute_force_permutation_count([0, 0, 1, 1]) == 4

    def test_all_distinct(self):
        assert brute_force_permutation_count([0, 1, 2, 3]) == 1

    def test_three_two(self):
        assert brute_force_permutation_count([0, 0, 0, 1, 1]) == 12

    def test_dict_input(self):
        assert brute_force_permutation_count({1: "a", 2: "a", 3: "b"}) == 2

    def test_matches_product_of_factorials(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            bins = rng.integers(0, 3, size=k).tolist()
            want = 1
            for b in set(bins):
                want *= math.factorial(bins.count(b))
            assert brute_force_permutation_count(bins) == want

    def test_guard(self):
        with pytest.raises(ResourceCapError):
            brute_force_permutation_count([0] * 9)


class TestDistinctCountOracle:
    def test_single_letter(self):
        pmf = exact_distinct_count_pmf([0.3], 4)
        assert abs(pmf[0] - 0.7 ** 4) <= 1e-12
        assert abs(pmf[1] - (1 - 0.7 ** 4)) <= 1e-12

    def test_sums_to_one(self):
        pmf = exact_distinct_count_pmf([0.2, 0.3, 0.1], 6)
        assert abs(pmf.sum() - 1.0) <= 1e-10
        assert np.all(pmf >= -1e-12)

    def test_matches_enumeration(self):
        import itertools
        probs = [0.15, 0.25, 0.6]
        n = 5
        want = np.zeros(3)
        # distribution of distinct letters from {0, 1} seen in n draws
        for seq in itertools.product(range(3), repeat=n):
            p = math.prod(probs[s] for s in seq)
            seen = len({s for s in seq if s in (0, 1)})
            want[seen] += p
        got = exact_distinct_count_pmf(probs[:2], n)
        assert np.allclose(got, want, atol=1e-12)


class TestStepwiseCodelength:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        cases = {"shared_bin": 0, "single_letter": 0}
        sources = [(ParamVector.from_probs([1.0]), n) for n in (2, 5)]
        sources += [(_random_source(rng, int(rng.integers(1, 6))), int(rng.integers(2, 7)))
                    for _ in range(100)]
        for theta, n in sources:
            grid = _grid(n)
            model = CoderModel.from_source(theta, grid, n)
            ee = exact_entropies(theta, grid, n, model=model)
            other = expected_codelength_stepwise(theta, grid, n, model=model)
            assert abs(other - ee.expected_codelength) <= 1e-9
            bins = bin_index(grid, theta.probs).tolist()
            cases["shared_bin"] += int(len(set(bins)) < len(bins))
            cases["single_letter"] += int(theta.k == 1)
        assert cases["shared_bin"] >= 20 and cases["single_letter"] >= 2, cases

    def test_foreign_model_matches_enumeration(self):
        # the coder of another source on the same grid can give a step of
        # positive probability q = 0; both routes then report inf
        rng = np.random.default_rng(17)
        infinite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(120):
                n = int(rng.integers(2, 6))
                theta = _random_source(rng, int(rng.integers(1, 5)))
                other = _random_source(rng, int(rng.integers(1, 5)))
                model = CoderModel.from_source(other, _grid(n), n)
                want = exact_entropies(theta, _grid(n), n, model=model).expected_codelength
                got = expected_codelength_stepwise(theta, _grid(n), n, model=model)
                if want == math.inf:
                    infinite += 1
                    assert got == math.inf
                else:
                    assert abs(got - want) <= 1e-9
        assert infinite >= 20

    def test_shared_memo_matches_a_memo_per_node(self, monkeypatch):
        # one injection-sum memo for the whole walk gives the same bits as a
        # fresh memo at every node of the (pattern, bin) prefix tree
        rng = np.random.default_rng(23)
        sources = [(_random_source(rng, int(rng.integers(1, 6))), int(rng.integers(2, 7)))
                   for _ in range(120)]
        got = [expected_codelength_stepwise(theta, _grid(n), n) for theta, n in sources]
        real = _reference._injection_sum
        fresh = []

        def memo_per_node(probs, occ, allowed, memo, j=0, used=0):
            if j == 0:
                fresh.append(memo)
                memo = {}
            return real(probs, occ, allowed, memo, j, used)

        monkeypatch.setattr(_reference, "_injection_sum", memo_per_node)
        want = [expected_codelength_stepwise(theta, _grid(n), n) for theta, n in sources]
        assert got == want
        assert len(fresh) > len(sources)
        assert sum(theta.counts.max() > 1 for theta, _ in sources) >= 30

    def test_zero_probability_step_warns(self):
        # a uniform coin coded with the model of a one-letter source
        n = 3
        model = CoderModel.from_source(ParamVector.from_probs([1.0]), _grid(n), n)
        with pytest.warns(UserWarning, match="zero-probability step at position"):
            got = expected_codelength_stepwise(ParamVector.from_probs([0.5, 0.5]),
                                               _grid(n), n, model=model)
        assert got == math.inf
