import gc
import itertools
import math
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from pattern_entropy import _reference, coder, oracle, patterns, verify
from pattern_entropy._common import ResourceCapError, exact_sum, ln_factorial
from pattern_entropy._reference import (
    brute_force_permutation_count,
    exact_distinct_count_pmf,
    expected_codelength_stepwise,
)
from pattern_entropy.coder import CoderModel, sequence_codelength
from pattern_entropy.distributions import (ParamVector, SourceSpec, iid_entropy, make_distribution,
                                           sample_sequence)
from pattern_entropy.grids import bin_index, build_grid
from pattern_entropy.oracle import (
    CHAIN_STEP_CELLS,
    MC_CELLS_CAP,
    OCCUPANCY_CHAIN_CAP,
    exact_entropies,
    mc_pattern_entropy,
    occupancy_pmf,
)
from pattern_entropy.patterns import (
    ProfileProbability,
    enumerate_partitions,
    enumerate_patterns,
    extract_pattern,
    pattern_probability,
)


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
        # 4^30 sequences were past the old sequence cap; one group in one bin
        # gives h_joint = h_pattern
        ee = exact_entropies(ParamVector.from_probs([0.25] * 4), _grid(30), 30)
        assert abs(ee.h_joint - ee.h_pattern) <= 1e-13 * ee.h_pattern
        assert ee.expected_codelength >= ee.h_joint
        # four groups at n = 2000: about 5.6e7 partitions of n into at most 4 parts
        with pytest.raises(ResourceCapError, match="ENUMERATION_CAP"):
            exact_entropies(ParamVector.from_probs([0.1, 0.2, 0.3, 0.4]), _grid(2000), 2000)

    def test_bins_the_alphabet_once(self, monkeypatch):
        calls = {"bin_stats": 0, "bin_sequence": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        pv = ParamVector.from_probs([0.1, 0.2, 0.3, 0.4])
        n = 5
        grid = _grid(n)
        model = CoderModel.from_source(pv, grid, n)
        for module in (oracle, patterns, coder):
            for name in calls:
                if hasattr(module, name):
                    counting(module, name)
        ee = exact_entropies(pv, grid, n, model=model)
        assert calls == {"bin_stats": 1, "bin_sequence": 0}
        assert ee.h_pattern <= ee.h_joint + 1e-9
        # without a model, the oracle's own split also builds the coder model
        assert exact_entropies(pv, grid, n) == ee
        assert calls == {"bin_stats": 2, "bin_sequence": 0}

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
                # h_joint and the codelength are regrouped into per-bin sums,
                # and h_pattern sums over profiles in log space
                assert got.h_x_block == want.h_x_block
                for field in ("h_pattern", "h_joint", "expected_codelength"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert g == w if w == math.inf else abs(g - w) <= 1e-13 * w, field
                bins = bin_index(grid, theta.probs).tolist()
                cases["tied"] += int(theta.counts.max() > 1)
                cases["shared_bin"] += int(len(set(bins)) < len(bins))
                cases["model"] += int(model is not None)
                cases["inf"] += int(got.expected_codelength == math.inf)
        assert min(cases.values()) >= 10, cases

    def test_step_table_does_not_grow_with_n(self, monkeypatch):
        # the coder is asked once per (bin, indices seen) step and once per
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

    def test_four_letters_at_n10_bit_for_bit(self):
        # the reference values are the bits a per-sequence dict walk gives,
        # summing each key's probabilities in itertools.product order
        n = 10
        theta, grid = _geometric4(), _grid(n)
        tracemalloc.start()
        try:
            ee = exact_entropies(theta, grid, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(ee.h_joint - 17.040557169805158) <= 1e-14 * 17.040557169805158
        assert abs(ee.expected_codelength - 18.087957540296966) <= 1e-14 * 18.087957540296966
        assert peak <= 2 ** 20

    def test_one_letter_per_bin_gives_the_block_entropy(self):
        # with one letter in each bin, (pattern, bins) determines the sequence;
        # the last source's rare letter loses about 1e-10 relative in a sum of
        # -p log2 p over sequence probabilities near 1, and nothing here
        cases = [(_geometric4(), 20), (ParamVector.from_probs([0.3, 0.7]), 1000),
                 (ParamVector.from_probs([0.2, 0.3, 0.5]), 100),
                 (ParamVector.from_probs([1e-9, 1 - 1e-9]), 5)]
        for theta, n in cases:
            grid = _grid(n)
            assert len(set(bin_index(grid, theta.values).tolist())) == theta.k
            ee = exact_entropies(theta, grid, n)
            assert abs(ee.h_joint - ee.h_x_block) <= 1e-13 * ee.h_x_block, (theta.k, n)
            assert ee.h_pattern <= ee.h_joint <= ee.expected_codelength

    def test_subnormal_letter(self):
        # outside / v overflows for v = 1e-310, and the chain takes its limit,
        # in which the bin is never drawn; what that drops is below 1e-300 bits
        theta, n = ParamVector.from_probs([1e-310, 0.25, 0.75]), 4
        got = exact_entropies(theta, _grid(n), n)
        want = reference_exact_entropies(theta, _grid(n), n)
        for field in ("h_joint", "expected_codelength"):
            g, w = getattr(got, field), getattr(want, field)
            assert abs(g - w) <= 1e-13 * w, field

    @pytest.mark.parametrize("theta, n", [
        (_geometric4(), 20), (ParamVector.from_probs([0.3, 0.7]), 1000),
        (make_distribution(SourceSpec("uniform", {"nu": 0.2}, 10**4)), 10**4),
        (ParamVector.from_probs([1.0]), 16384),
    ], ids=["geometric4_n20", "explicit_n1000", "ex1_n1e4", "one_letter_n16384"])
    def test_reach(self, theta, n):
        # 4^20, 2^1000 and 1585^10000 sequences, and one long sequence
        t0 = time.perf_counter()
        ee = exact_entropies(theta, _grid(n), n)
        assert time.perf_counter() - t0 < 1.0
        slack = 1e-9 * ee.h_x_block
        assert ee.h_pattern <= ee.h_joint + slack and ee.h_joint <= ee.expected_codelength + slack

    @pytest.mark.parametrize("theta, n, cap", [
        # 10,001,002 partitions of n into at most 3 parts, one letter a bin
        (ParamVector.from_probs([0.2, 0.3, 0.5]), 10_952, "ENUMERATION_CAP"),
        # the one chain, which H(pattern) and the one bin share: n * (n + 4,000)
        # cells, 15,435 the last n under the cap
        (ParamVector.from_groups([1e-6], [10**6]), 15_436, "OCCUPANCY_CHAIN_CAP"),
        # the fold of W and the DP pass 10^6 transitions in all for H(pattern)
        # alone at n = 44; n = 43 returns
        (ParamVector.from_groups([1e-4, 1e-2], [5000, 50]), 44, "PROFILE_DP_CAP"),
    ], ids=["partitions", "chain_cells", "dp_transitions"])
    def test_budget_just_over_raises(self, theta, n, cap):
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match=cap):
            exact_entropies(theta, _grid(n), n)
        assert time.perf_counter() - t0 < 2.0

    def test_budgets_are_checked_before_any_chain_or_dp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain or DP ran past a budget")

        monkeypatch.setattr(oracle, "occupancy_pmf", refuse)
        monkeypatch.setattr(ProfileProbability, "__call__", refuse)
        for theta, n in ((ParamVector.from_probs([0.2, 0.3, 0.5]), 10_952),
                         (ParamVector.from_groups([1e-6], [10**6]), 15_436)):
            with pytest.raises(ResourceCapError):
                exact_entropies(theta, _grid(n), n)

    def test_pattern_entropy_shares_one_dp_budget(self):
        # n = 44 needs more than 10^6 transitions over its 75,175 profiles, each
        # far below PROFILE_DP_CAP; n = 30 needs about 8.6e4
        theta = ParamVector.from_groups([1e-4, 1e-2], [5000, 50])
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            oracle.exact_pattern_entropy(theta, 44)
        assert oracle.exact_pattern_entropy(theta, 30) > 0.0

    @pytest.mark.parametrize("theta, n, runs", [
        (ParamVector.from_groups([1e-6], [10**6]), 5_000, ("occupancy_pmf", 1)),
        # 1,575 partitions of 24, one DP each
        (ParamVector.from_groups([1e-4, 1e-2], [5000, 50]), 24, ("__call__", 1_575)),
    ], ids=["one_group", "two_groups"])
    def test_one_bin_runs_its_chain_or_walk_once(self, monkeypatch, theta, n, runs):
        grid = _grid(n)
        assert len(set(bin_index(grid, theta.values).tolist())) == 1
        calls = {"occupancy_pmf": 0, "__call__": 0}
        for owner, name in ((oracle, "occupancy_pmf"), (ProfileProbability, "__call__")):
            def counting(*args, _name=name, _real=getattr(owner, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counting)
        ee = exact_entropies(theta, grid, n)
        assert calls[runs[0]] == runs[1] and sum(calls.values()) == runs[1]
        assert ee.h_joint == ee.h_pattern > 0.0

    def test_pattern_entropy_is_the_whole_alphabet_law(self):
        for n, _, theta in verify.instance_matrix():
            want = exact_entropies(theta, _grid(n), n).h_pattern
            assert oracle.exact_pattern_entropy(theta, n) == want, (n, theta)

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

        def counting(self, parts):
            seen.append(tuple(parts))
            return real(self, parts)

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


def _uniform(k):
    return ParamVector.from_groups([1.0 / k], [k])


def _partition_route(theta, n):
    """H(pattern) in bits summed over the partitions of n, one ln P each."""
    log_p = ProfileProbability(theta)
    ln_n = ln_factorial(n)
    terms = []
    for parts in enumerate_partitions(n, min(theta.k, n)):
        ln_p = log_p(parts)
        mus = map(parts.count, dict.fromkeys(parts))
        ln_ways = ln_n - sum(map(ln_factorial, parts)) - sum(map(ln_factorial, mus))
        terms.append(math.exp(ln_ways + ln_p) * (0.0 - ln_p) / math.log(2.0))
    return math.fsum(terms)


def _mass_bound(n):
    # each chain step rounds each entry at most 3 times, the final sum once
    return 4 * n * 2.0 ** -53


class TestOccupancyChain:
    def test_matches_the_partition_route(self):
        for k in (1, 2, 3, 10, 1000):
            theta = _uniform(k)
            for n in range(1, 41):
                got = oracle.exact_pattern_entropy(theta, n)
                want = _partition_route(theta, n)
                # relative, and absolute where H is 0 (n = 1, or k = 1)
                assert abs(got - want) <= 1e-12 * max(want, 1.0), (k, n)
                assert abs(exact_sum(occupancy_pmf(k, n)) - 1.0) <= _mass_bound(n), (k, n)

    def test_mass_defect_at_the_paper_scale(self):
        # ex1 (nu = 0.2) at n = 10^4: k = 1,585 letters
        theta = make_distribution(SourceSpec("uniform", {"nu": 0.2}, 10**4))
        pmf = occupancy_pmf(theta.k, 10**4)
        assert pmf.size == theta.k + 1
        assert abs(exact_sum(pmf) - 1.0) <= _mass_bound(10**4)
        assert oracle.exact_pattern_entropy(theta, 10**4) > 0.0

    def test_pmf_matches_inclusion_exclusion(self):
        for k in range(1, 7):
            for n in range(0, 11):
                got = occupancy_pmf(k, n)
                assert got.size == min(n, k) + 1
                # the reference lists m up to k and carries its own rounding
                # noise of about 1e-15, where m > n for instance
                want = exact_distinct_count_pmf([1.0 / k] * k, n)
                padded = np.concatenate([got, np.zeros(k + 1 - got.size)])
                assert np.allclose(padded, want, rtol=1e-12, atol=1e-14), (k, n)

    def test_outside_mass_matches_inclusion_exclusion(self):
        # k letters of value v among other letters of mass 1 - k v
        for k in range(1, 6):
            for v in (0.02, 0.1, 1.0 / (k + 1)):
                for n in range(0, 9):
                    got = occupancy_pmf(k, n, (1.0 - k * v) / v)
                    want = exact_distinct_count_pmf([v] * k, n)
                    padded = np.concatenate([got, np.zeros(k + 1 - got.size)])
                    assert np.allclose(padded, want, rtol=1e-12, atol=1e-14), (k, v, n)

    def test_cap_names_its_constant(self):
        k = 10**9
        n = OCCUPANCY_CHAIN_CAP // 10**4 + 1  # n * min(n, k) passes the cap at once
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP") as err:
            occupancy_pmf(k, n)
        assert str(OCCUPANCY_CHAIN_CAP) in str(err.value)
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP"):
            oracle.exact_pattern_entropy(_uniform(k), n)

    def test_chain_steps_are_charged(self, monkeypatch):
        # one letter: n * (1 + CHAIN_STEP_CELLS) cells, however few the letters
        last = OCCUPANCY_CHAIN_CAP // (1 + CHAIN_STEP_CELLS)
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP"):
            occupancy_pmf(1, last + 1)

        def refuse(*args, **kwargs):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(oracle, "occupancy_pmf", refuse)
        one = ParamVector.from_probs([1.0])
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP"):
            oracle.exact_pattern_entropy(one, last + 1)
        with pytest.raises(AssertionError, match="the chain ran"):
            oracle.exact_pattern_entropy(one, last)

    def test_binomial_pmfs_are_charged(self, monkeypatch):
        # a bin of two groups and mass phi = 0.6000001 draws its pmf from the
        # chain cells: with 53-bit p and q (B = 215) and the other bin's chain
        # they pass the cap at n = 4,323, where the pmf takes about 1.6 s; the
        # partitions stay under their own cap
        theta = ParamVector.from_probs([0.3, 0.3000001, 0.3999999])
        last = 4_322
        groups = [(theta.values[:2].tolist(), [1, 1]), (theta.values[2:].tolist(), [1])]
        phis = [math.fsum(v) for v, _ in groups]
        laws = [(v, k, phi, phis[1 - i]) for i, ((v, k), phi) in enumerate(zip(groups, phis))]
        whole = (theta.values.tolist(), [1, 1, 1], 1.0, 0.0)
        for n in (last, last + 1):
            assert len(set(bin_index(_grid(n), theta.values).tolist())) == 2
        oracle._check_budgets(last, [whole, *laws])
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP"):
            oracle._check_budgets(last + 1, [whole, *laws])

        def refuse(*args, **kwargs):
            raise AssertionError("a pmf, chain or DP ran past a budget")

        for owner, name in ((oracle, "_binomial_pmf"), (oracle, "occupancy_pmf"),
                            (ProfileProbability, "__call__")):
            monkeypatch.setattr(owner, name, refuse)
        with pytest.raises(ResourceCapError, match="OCCUPANCY_CHAIN_CAP"):
            exact_entropies(theta, _grid(last + 1), last + 1)

    def test_whole_alphabet_pmf_is_not_charged(self):
        # the whole alphabet's pmf is [0, ..., 0, 1]; charged as a bin's
        # (B = 3) it would pass the cap from n = 46,010 on two letters, whose
        # 23,006 partitions the DP finishes in under 0.5 s
        theta = ParamVector.from_probs([0.3, 0.7])
        n = 46_010
        assert n * n * 3 * (3 + 384) // oracle.PMF_BIT_CELLS > OCCUPANCY_CHAIN_CAP
        assert oracle._pmf_cells(n, 1.0, 0.0) == 0
        h = oracle.exact_pattern_entropy(theta, n)
        # the pattern and the first letter give the sequence: H(X^n) - 1 <= h <= H(X^n)
        assert abs(h - n * iid_entropy(theta)) <= 1.0

    def test_one_draw_has_zero_entropy(self):
        # ln 10 + ln 0.1 rounds to 4.4e-16 > 0; ln P is cut to 0.0
        theta = _uniform(10)
        assert ProfileProbability(theta)([1]) == 0.0
        assert oracle.exact_pattern_entropy(theta, 1) == 0.0

    def test_one_group_walks_no_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no partition is enumerated for one group")

        monkeypatch.setattr(oracle, "enumerate_partitions", refuse)
        assert oracle.exact_pattern_entropy(_uniform(1000), 200) > 0.0


class TestRowProfiles:
    @staticmethod
    def _reference(draws):
        # ascending occurrence counts of each row, zero-padded, then np.unique
        rows = [sorted(Counter(row).values()) for row in draws.tolist()]
        width = max(map(len, rows))
        table = np.array([r + [0] * (width - len(r)) for r in rows], dtype=np.int64)
        return np.unique(table, axis=0, return_counts=True)

    def test_matches_unique_rows(self):
        rng = np.random.default_rng(21)
        cases = [rng.integers(1, int(rng.integers(1, 12)) + 1,
                              size=(int(rng.integers(2, 200)), int(rng.integers(1, 40))))
                 for _ in range(60)]
        cases += [np.ones((5, 9), dtype=np.int64),  # one letter: every row the same
                  np.tile(rng.integers(1, 4, size=12), (7, 1)),  # equal rows, several letters
                  np.array([[3, 1], [2, 2]])]
        for draws in cases:
            got_rows, got_counts = oracle._row_profiles(draws)
            want_rows, want_counts = self._reference(draws)
            assert got_rows.tolist() == want_rows.tolist()
            assert got_counts.tolist() == want_counts.tolist()


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

    def test_caps_the_sample_matrix_before_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no sample is drawn past the cap")

        monkeypatch.setattr(oracle, "sample_sequence", refuse)
        with pytest.raises(ResourceCapError, match="MC_CELLS_CAP") as err:
            mc_pattern_entropy(_uniform(1000), 10**7, samples=100, seed=0)
        assert str(MC_CELLS_CAP) in str(err.value)
        with pytest.raises(ResourceCapError, match="MC_CELLS_CAP"):
            mc_pattern_entropy(_uniform(10), MC_CELLS_CAP // 2 + 1, samples=2, seed=0)

    def test_profiles_share_one_dp_budget(self, monkeypatch):
        # each profile fits under the cap, their total does not; the total is
        # what one object charges over the calls in turn, the fold of W
        # redoing only each profile's changed tail
        theta, n, samples, seed = _geometric4(), 12, 200, 5
        profiles, _ = oracle._row_profiles(sample_sequence(theta, (samples, n), seed))
        shared, costs = ProfileProbability(theta), []
        for padded in profiles.tolist():
            log_p = ProfileProbability(theta)
            log_p([c for c in padded if c])
            costs.append(patterns.PROFILE_DP_CAP - log_p.budget)
            shared([c for c in padded if c])
        total = patterns.PROFILE_DP_CAP - shared.budget
        assert max(costs) < total <= sum(costs)
        monkeypatch.setattr(patterns, "PROFILE_DP_CAP", total - 1)
        with pytest.raises(ResourceCapError, match="PROFILE_DP_CAP"):
            mc_pattern_entropy(theta, n, samples, seed)
        monkeypatch.setattr(patterns, "PROFILE_DP_CAP", total)
        assert mc_pattern_entropy(theta, n, samples, seed).samples == samples

    def test_ex3_at_n_1e4_in_bounded_time_and_memory(self):
        # ex3 (k = 815,479) with ten samples: profiles of about 9,700 counts,
        # of which the fold keeps at most 4 isqrt(m) + 2 layers of cells
        theta = make_distribution(SourceSpec(
            "two-level", {"phi0": 0.5, "mu": 0.5, "nu": 0.45, "level1": "above"}, 10**4))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            try:
                assert math.isfinite(mc_pattern_entropy(theta, 10**4, 10, 0).estimate)
            except ResourceCapError as err:
                assert "PROFILE_DP_CAP" in str(err)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 10.0
        assert peak < 100 * 2**20

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


@pytest.mark.parametrize("call, error, words", [
    (lambda: mc_pattern_entropy(ParamVector.from_probs([0.25, 0.75]), 10, samples=1, seed=0),
     ValueError, "need at least 2 samples"),
    (lambda: mc_pattern_entropy(ParamVector.from_probs([0.25, 0.75]), 10, samples=0, seed=0),
     ValueError, "need at least 2 samples"),
    (lambda: exact_distinct_count_pmf([1 / 17] * 17, 5), ResourceCapError, "guarded to 16 letters"),
    (lambda: expected_codelength_stepwise(ParamVector.from_groups([1 / 7], [7]), _grid(10), 10),
     ResourceCapError, "guarded to k <= 6"),
], ids=["mc_one_sample", "mc_no_sample", "reference_subsets", "reference_tree"])
def test_validation_raises(call, error, words):
    with pytest.raises(error, match=words):
        call()
