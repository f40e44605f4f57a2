import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy._common import ResourceCapError
from pattern_entropy.distributions import (
    MATERIALIZE_CAP,
    ParamVector,
    SourceSpec,
    binary_entropy,
    iid_entropy,
    make_distribution,
    sample_sequence,
)


class TestParamVector:
    def test_uniform4(self):
        pv = make_distribution(SourceSpec("uniform", {"k": 4}))
        assert np.allclose(pv.probs, [0.25] * 4)

    def test_n_relative_uniform(self):
        # k = n^(1-nu) = 10 at n=100, nu=0.5: ten letters of 0.1
        pv = make_distribution(SourceSpec("uniform", {"nu": 0.5}, n=100))
        assert pv.k == 10
        assert np.allclose(pv.probs, [0.1] * 10)

    def test_two_level_sums_to_one(self):
        pv = make_distribution(
            SourceSpec("two-level", {"phi0": 0.5, "mu": 1.0, "nu": 0.2}, n=100))
        assert list(pv.counts) == [5000, 20]
        assert pv.values[0] == 1e-4
        total = math.fsum(c * v for v, c in pv.groups())
        assert abs(total - 1.0) <= 1e-12
        assert abs(pv.values[1] / 100 ** -(1 - 0.2) - 1.0) < 0.1

    def test_grouping_merges_duplicates(self):
        pv = ParamVector.from_probs([0.25, 0.5, 0.25])
        assert list(pv.counts) == [2, 1]

    def test_counts_beyond_int64_are_refused_by_name(self):
        with pytest.raises(ValueError, match=r"below 2\*\*63, got 10{30}$"):
            ParamVector([1.0], [10**30])
        # the merged count 2**63 would wrap to -2**63 in int64
        with pytest.raises(ValueError, match=r"below 2\*\*63, got 9223372036854775808$"):
            ParamVector.from_groups([0.25, 0.25], [2**62, 2**62])
        pv = ParamVector.from_groups([0.25, 0.5, 0.25], [1, 1, 1])
        assert list(pv.counts) == [2, 1] and pv.counts.dtype == np.int64

    def test_array_input_matches_list_input(self):
        rng = np.random.default_rng(5)
        probs = np.repeat(rng.dirichlet(np.ones(50)), 3) / 3.0
        a, b = ParamVector.from_probs(probs), ParamVector.from_probs(probs.tolist())
        assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)

    def test_sorted_ascending(self):
        pv = ParamVector.from_probs([0.5, 0.2, 0.3])
        assert list(pv.probs) == [0.2, 0.3, 0.5]

    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            ParamVector.from_probs([0.4, 0.5])
        with pytest.raises(ValueError):
            ParamVector.from_probs([0.4, -0.1, 0.7])

    @pytest.mark.parametrize("build, match", [
        (lambda: ParamVector.from_probs([math.nan]), "lie in"),
        (lambda: ParamVector.from_probs([0.5, math.nan]), "lie in"),
        (lambda: ParamVector.from_groups([math.nan], [1]), "lie in"),
        (lambda: make_distribution(SourceSpec("zipf", {"k": 3, "exponent": math.nan})), "lie in"),
        (lambda: make_distribution(SourceSpec("geometric", {"k": 3, "decay": math.nan})), "decay"),
        (lambda: ParamVector.from_groups([1e-30], [10**30]), "below 2\\*\\*63"),
    ], ids=["nan_letter", "nan_beside_a_half", "nan_group", "zipf_nan_exponent",
            "geometric_nan_decay", "count_past_int64"])
    def test_rejects_non_finite_and_out_of_range_input(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("family, params", [
        ("geometric", {"k": MATERIALIZE_CAP + 1, "decay": 0.5}),
        ("zipf", {"k": MATERIALIZE_CAP + 1, "exponent": 1.1}),
    ])
    def test_letter_cap_before_any_array(self, monkeypatch, family, params):
        def no_arange(*args, **kwargs):
            raise AssertionError("a k-element array was built past the cap")
        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(ResourceCapError, match="MATERIALIZE_CAP"):
            make_distribution(SourceSpec(family, params))

    def test_sampling_checks_the_cap_before_any_array(self, monkeypatch):
        theta = make_distribution(SourceSpec("uniform", {"k": MATERIALIZE_CAP + 1}))
        monkeypatch.setattr(np, "arange", lambda *a, **kw: pytest.fail("arange before the cap"))
        with pytest.raises(ResourceCapError, match="materialization cap"):
            sample_sequence(theta, 4, 0)

    @pytest.mark.parametrize("build", [
        lambda: ParamVector.from_probs([[0.5], [0.5]]),
        lambda: ParamVector.from_probs(1.0),
        lambda: ParamVector.from_groups([[0.5], [0.25]], [[1], [2]]),
    ], ids=["from_probs_2d", "from_probs_scalar", "from_groups_2d"])
    def test_rejects_input_that_is_not_1d(self, build):
        with pytest.raises(ValueError, match="1-d"):
            build()

    def test_deterministic_construction(self):
        spec = SourceSpec("zipf", {"k": 20, "exponent": 1.3})
        a, b = make_distribution(spec), make_distribution(spec)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)

    def test_counts_rounding_to_zero(self):
        with pytest.raises(ValueError):
            make_distribution(SourceSpec("two-level", {"phi0": 1e-9, "mu": 0.1, "nu": 0.05}, n=4))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_random_vectors_valid(self, k, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k))
        if probs.min() <= 0:
            return
        pv = ParamVector.from_probs(probs)
        assert np.all(np.diff(pv.values) > 0)
        assert abs(math.fsum(c * v for v, c in pv.groups()) - 1.0) <= 1e-12


class TestEntropies:
    def test_uniform4_entropy(self):
        assert iid_entropy(make_distribution(SourceSpec("uniform", {"k": 4}))) == 2.0

    def test_singleton_entropy(self):
        assert iid_entropy(ParamVector.from_probs([1.0])) == 0.0

    def test_quarter_three_quarter(self):
        got = iid_entropy(ParamVector.from_probs([0.25, 0.75]))
        assert abs(got - 0.8112781244591328) <= 1e-12

    @pytest.mark.parametrize("alpha,want", [(0.5, 1.0), (0.0, 0.0), (1.0, 0.0)])
    def test_binary_entropy_exact(self, alpha, want):
        assert binary_entropy(alpha) == want

    def test_binary_entropy_011(self):
        assert abs(binary_entropy(0.11) - 0.4999159581645281) <= 1e-12

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestSampling:
    def test_constant_alphabet(self):
        pv = ParamVector.from_probs([1.0])
        assert list(sample_sequence(pv, 5, seed=3)) == [1, 1, 1, 1, 1]

    def test_determinism(self):
        pv = ParamVector.from_probs([0.3, 0.7])
        a = sample_sequence(pv, 50, seed=42)
        b = sample_sequence(pv, 50, seed=42)
        assert np.array_equal(a, b)

    def test_generator_continues_its_stream(self):
        pv = ParamVector.from_probs([0.1, 0.2, 0.3, 0.4])
        n = 64
        rng = np.random.default_rng(11)
        first, second = sample_sequence(pv, n, rng), sample_sequence(pv, n, rng)
        assert not np.array_equal(first, second)
        assert np.array_equal(first, sample_sequence(pv, n, 11))
        assert np.array_equal(sample_sequence(pv, (2, n), 11), np.stack([first, second]))

    @pytest.mark.parametrize("size", [0, (3, 0), (0, 5)])
    def test_rejects_an_empty_draw(self, size):
        with pytest.raises(ValueError, match="length"):
            sample_sequence(ParamVector.from_probs([0.5, 0.5]), size, 0)

    def test_law_of_large_numbers(self):
        pv = ParamVector.from_probs([0.5, 0.5])
        x = sample_sequence(pv, 100_000, seed=7)
        freq1 = np.mean(x == 1)
        assert abs(freq1 - 0.5) < 0.01

    def test_empirical_l1_convergence(self):
        n = 100_000
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            probs = rng.dirichlet(np.ones(4))
            while probs.min() < 1e-3:
                probs = rng.dirichlet(np.ones(4))
            pv = ParamVector.from_probs(probs)
            x = sample_sequence(pv, n, seed=seed)
            emp = np.bincount(x, minlength=5)[1:] / n
            l1 = float(np.abs(emp - pv.probs).sum())
            assert l1 < 5 * pv.k / math.sqrt(n)


class TestOtherFamilies:
    def test_geometric_shape(self):
        pv = make_distribution(SourceSpec("geometric", {"k": 6, "decay": 0.5}))
        assert pv.k == 6
        probs = pv.probs
        # ascending, each value double the previous (decay 1/2), total mass 1
        ratios = probs[1:] / probs[:-1]
        assert np.allclose(ratios, 2.0)
        assert abs(math.fsum(probs) - 1.0) <= 1e-12

    def test_zipf_shape(self):
        pv = make_distribution(SourceSpec("zipf", {"k": 5, "exponent": 1.0}))
        h = math.fsum(1.0 / i for i in range(1, 6))
        assert abs(pv.probs[-1] - 1.0 / h) <= 1e-12

    def test_geometric_bad_decay(self):
        with pytest.raises(ValueError):
            make_distribution(SourceSpec("geometric", {"k": 4, "decay": 1.5}))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SourceSpec("pareto", {})
