import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pattern_entropy import coder, grids, verify
from pattern_entropy._common import ResourceCapError
from pattern_entropy._reference import exact_distinct_count_pmf
from pattern_entropy.coder import (
    CODER_N_CAP,
    Bitstring,
    CoderModel,
    CoderState,
    DecodeError,
    decode,
    encode,
    next_symbol_prob,
    sequence_codelength,
)
from pattern_entropy.distributions import ParamVector, SourceSpec, make_distribution, sample_sequence
from pattern_entropy.grids import build_grid
from pattern_entropy.oracle import exact_entropies
from pattern_entropy.patterns import bin_sequence, extract_pattern


def _occupancy(pv, n):
    """Per-group probability 1 - (1 - theta)^n that a letter occurs in n draws."""
    return 1.0 - grids.absent_probability(pv.values, n)


def three_letter_single_bin_model():
    """Synthetic model: one bin (index 2) holding three letters of total mass 1."""
    return CoderModel(
        n=8,
        phi=np.array([0.0, 0.0, 1.0]),
        rho=np.array([0.0, 0.0, 1.0 / 3.0]),
        kbins=np.array([0, 0, 3]),
    )


class TestNextSymbolProb:
    def test_first_symbol_gets_full_bin(self):
        model = three_letter_single_bin_model()
        assert next_symbol_prob(model, CoderState(), 1, 2) == 1.0

    def test_repeat_and_new(self):
        model = three_letter_single_bin_model()
        state = CoderState()
        state.update(1, 2)
        assert next_symbol_prob(model, state, 1, 2) == pytest.approx(1.0 / 3.0)
        assert next_symbol_prob(model, state, 2, 2) == pytest.approx(2.0 / 3.0)

    def test_wrong_bin_is_impossible(self):
        model = three_letter_single_bin_model()
        state = CoderState()
        state.update(1, 2)
        assert next_symbol_prob(model, state, 1, 1) == 0.0

    def test_index_jump_rejected(self):
        model = three_letter_single_bin_model()
        with pytest.raises(ValueError):
            next_symbol_prob(model, CoderState(), 3, 2)

    def test_bin_out_of_range(self):
        model = three_letter_single_bin_model()
        with pytest.raises(ValueError):
            next_symbol_prob(model, CoderState(), 1, 9)


class TestCoderState:
    def test_max_index_tracks_updates_and_pops(self):
        rng = np.random.default_rng(3)
        state = CoderState()
        for _ in range(2000):
            m = state.max_index
            if m and rng.random() < 0.4:
                state.pop_index()
            else:
                state.update(int(rng.integers(1, m + 2)), int(rng.integers(0, 4)))
            assert state.max_index == len(state.index_to_bin)
            assert sum(state.seen_per_bin.values()) == state.max_index

    def test_skip_ahead_leaves_state_unchanged(self):
        state = CoderState()
        state.update(1, 2)
        state.update(2, 0)
        before = (dict(state.index_to_bin), dict(state.seen_per_bin), state.max_index)
        with pytest.raises(ValueError):
            state.update(4, 1)
        assert (state.index_to_bin, state.seen_per_bin, state.max_index) == before


class TestSequenceCodelength:
    def test_repeat_pair(self):
        model = three_letter_single_bin_model()
        assert sequence_codelength(model, (1, 1), (2, 2)) == pytest.approx(math.log2(3))

    def test_new_pair(self):
        model = three_letter_single_bin_model()
        assert sequence_codelength(model, (1, 2), (2, 2)) == pytest.approx(
            -math.log2(2.0 / 3.0))

    def test_zero_step_reports_position(self):
        model = three_letter_single_bin_model()
        with pytest.warns(UserWarning, match="position 1"):
            assert sequence_codelength(model, (1, 1), (2, 1)) == math.inf

    def test_dominates_joint_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            k = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(k))
            while probs.min() <= 1e-6:
                probs = rng.dirichlet(np.ones(k))
            pv = ParamVector.from_probs(probs)
            grid = build_grid("eta", 2, 0.3)
            ee = exact_entropies(pv, grid, 2)
            assert ee.expected_codelength >= ee.h_joint - 1e-9


class TestDescriptionLengthDecomposition:
    def test_three_component_identity(self):
        # enumerated E[-log Q] must equal: the flat per-occurrence cost of the
        # larger letters, minus their first-occurrence credit, plus the two
        # low-bin costs, all under the exact distinct-count distributions
        rng = np.random.default_rng(12)
        for _ in range(4):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            while probs.min() <= 1e-6:
                probs = rng.dirichlet(np.ones(k))
            pv = ParamVector.from_probs(probs)
            grid = build_grid("eta", n, 0.3)
            model = CoderModel.from_source(pv, grid, n)
            ee = exact_entropies(pv, grid, n, model=model)

            pts = grid.point(np.arange(grid.num_bins + 1))
            bins = [int(np.searchsorted(pts, p, side="left") - 1) for p in pv.probs]
            total = 0.0
            # flat cost of letters outside bins 0/1
            for p, b in zip(pv.probs, bins):
                if b >= 2:
                    total += -n * p * math.log2(model.rho[b])
            # first-occurrence credit per bin b >= 2, exact occupancy law
            for b in sorted(set(bins)):
                members = [p for p, bb in zip(pv.probs, bins) if bb == b]
                pmf = exact_distinct_count_pmf(members, n)
                kb = len(members)
                if b >= 2:
                    total -= math.fsum(
                        pmf[m] * (math.log2(math.factorial(kb))
                                  - math.log2(math.factorial(kb - m)))
                        for m in range(len(pmf)))
                else:
                    # low-bin cost: re-occurrences at rho, first occurrences at
                    # the remaining mass
                    Lb = math.fsum(1.0 - (1.0 - p) ** n for p in members)
                    phi_b, rho_b = float(model.phi[b]), float(model.rho[b])
                    total += -(n * phi_b - Lb) * math.log2(rho_b) if rho_b > 0 else 0.0
                    total += -math.fsum(
                        pmf[m] * math.fsum(math.log2(phi_b - l * rho_b) for l in range(m))
                        for m in range(len(pmf)))
            assert abs(total - ee.expected_codelength) <= 1e-6


class TestArithmeticCoder:
    def test_roundtrip_small(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n = 16
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.choice([1, 2, 3], size=n, p=pv.probs)
            psi = extract_pattern(x)
            beta = bin_sequence(pv, grid, x)
            bits = encode(model, psi, beta)
            assert decode(model, bits, n) == (psi.indices, beta)
            cl = sequence_codelength(model, psi, beta)
            assert cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9

    def test_roundtrip_reports_each_check(self, monkeypatch):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n = 16
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        x = [3, 1, 3, 2, 3, 3, 1, 2, 3, 3, 2, 1, 3, 3, 3, 2]
        psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
        cl, bits, ok, within = coder.roundtrip(model, psi, beta)
        assert (cl, bits, ok, within) == (sequence_codelength(model, psi, beta),
                                          encode(model, psi, beta), True, True)
        monkeypatch.setattr(coder, "sequence_codelength", lambda *args: cl + 3.0)
        assert coder.roundtrip(model, psi, beta)[2:] == (True, False)
        wrong = (psi.indices, beta[:-1] + (beta[-1] + 1,))
        monkeypatch.setattr(coder, "decode", lambda model, bits, n: wrong)
        assert coder.roundtrip(model, psi, beta)[2:] == (False, False)

    def test_single_letter_codes_to_one_bit(self):
        pv = ParamVector.from_probs([1.0])
        n = 12
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        psi = extract_pattern([1] * n)
        beta = bin_sequence(pv, grid, [1] * n)
        bits = encode(model, psi, beta)
        assert len(bits) <= 2
        assert decode(model, bits, n) == (psi.indices, beta)

    def test_impossible_step_rejected(self):
        model = three_letter_single_bin_model()
        with pytest.raises(ValueError):
            encode(model, (1, 1), (2, 1))

    def test_truncated_stream_rejected(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n = 12
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        x = [1, 2, 3, 1, 2, 3, 3, 3, 2, 1, 2, 3]
        psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
        bits = encode(model, psi, beta)
        clipped = Bitstring.from01(bits.to01()[: len(bits) - 3])
        with pytest.raises(DecodeError):
            decode(model, clipped, n)

    def test_extended_stream_rejected(self):
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n = 10
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        x = [1, 2, 3, 1, 2, 3, 3, 3, 2, 1]
        psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
        bits = encode(model, psi, beta)
        padded = Bitstring.from01(bits.to01() + "01")
        with pytest.raises(DecodeError):
            decode(model, padded, n)

    def test_flipped_bit_never_silently_accepted(self):
        # every accepted stream is the canonical encoding of its decode, so a
        # flipped stream either raises or decodes to a sequence that re-encodes
        # to exactly the corrupted bits
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        n = 12
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        rng = np.random.default_rng(5)
        outcomes = {"rejected": 0, "other_canonical": 0}
        for _ in range(30):
            x = rng.choice([1, 2, 3], size=n, p=pv.probs)
            psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
            bits = encode(model, psi, beta)
            flip = int(rng.integers(0, len(bits)))
            s = bits.to01()
            corrupted = Bitstring.from01(s[:flip] + ("1" if s[flip] == "0" else "0") + s[flip + 1:])
            try:
                got = decode(model, corrupted, n)
            except DecodeError:
                outcomes["rejected"] += 1
                continue
            assert got != (psi.indices, beta)
            assert encode(model, *got) == corrupted
            outcomes["other_canonical"] += 1
        assert outcomes["rejected"] > 0

    def test_decoder_is_pure(self):
        pv = ParamVector.from_probs([0.4, 0.6])
        n = 8
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(pv, grid, n)
        x = [1, 2, 2, 1, 2, 2, 2, 1]
        psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
        bits = encode(model, psi, beta)
        assert decode(model, bits, n) == decode(model, bits, n)

    def test_steps_are_weighed_once_per_new_index(self, monkeypatch):
        # a re-occurrence leaves every event weight as it was, so a stream
        # with m distinct indices is weighed at most m + 1 times at any n
        weighings = []
        real = coder._Steps._weigh

        def counting(self):
            weighings.append(self.state.max_index)
            return real(self)

        monkeypatch.setattr(coder._Steps, "_weigh", counting)
        pv = ParamVector.from_probs([0.2, 0.3, 0.5])
        rng = np.random.default_rng(8)
        for n in (20, 2000):
            grid = build_grid("eta", n, 0.3)
            model = CoderModel.from_source(pv, grid, n)
            x = rng.choice([1, 2, 3], size=n, p=pv.probs)
            psi, beta = extract_pattern(x), bin_sequence(pv, grid, x)
            m = max(psi.indices)
            weighings.clear()
            bits = encode(model, psi, beta)
            assert 1 <= len(weighings) <= m + 1
            weighings.clear()
            assert decode(model, bits, n) == (psi.indices, beta)
            assert 1 <= len(weighings) <= m + 1


class TestResourceCap:
    def test_decode_refuses_n_above_cap_before_any_work(self):
        with pytest.raises(ResourceCapError, match=f"CODER_N_CAP \\({CODER_N_CAP}\\)"):
            decode(three_letter_single_bin_model(), Bitstring.from01("1"), CODER_N_CAP + 1)

    def test_model_refuses_n_above_cap_before_allocating(self):
        # eta at n = 10^9 has about 1.6e7 bins; the model must not allocate them
        grid = build_grid("eta", 10**9, 0.3)
        with pytest.raises(ResourceCapError, match="CODER_N_CAP"):
            CoderModel.from_source(ParamVector.from_probs([0.5, 0.5]), grid, 10**9)

    def test_encode_refuses_sequences_above_cap(self):
        n = CODER_N_CAP + 1
        with pytest.raises(ResourceCapError, match="CODER_N_CAP"):
            encode(three_letter_single_bin_model(), (1,) * n, (2,) * n)


def test_normalization_check_bins_each_source_once(monkeypatch):
    calls = []
    real = grids.bin_stats

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (coder, verify):
        if getattr(module, "bin_stats", None) is real:
            monkeypatch.setattr(module, "bin_stats", counting)
    assert verify.check_coder_normalization().passed
    assert len(calls) == 60  # one per trial, inside CoderModel.from_source


class TestBitstring:
    def test_roundtrip_01(self):
        for s in ("1", "0101", "111000111000111", "0" * 17):
            assert Bitstring.from01(s).to01() == s

    def test_padding_validated(self):
        bits = Bitstring.from01("101")
        corrupt = Bitstring(bytes([bits.data[0] | 0x01]), 3)
        with pytest.raises(DecodeError):
            corrupt._value()

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            Bitstring(b"\x00\x00", 3)


class TestCarriedMaps:
    """Encode's stream carries the step maps it folded, so decode folds only a
    stream whose maps it cannot match."""

    @staticmethod
    def counted_folds(monkeypatch):
        """Length of the step list of every ``coder._fold`` call from now on."""
        folds = []
        real = coder._fold

        def counting(steps):
            folds.append(len(steps))
            return real(steps)

        monkeypatch.setattr(coder, "_fold", counting)
        return folds

    @staticmethod
    def stream():
        return _source_stream(_zipf(40, 1.3), 64, 0.3, 0)

    def test_round_trip_folds_once(self, monkeypatch):
        folds = self.counted_folds(monkeypatch)
        model, psi, beta = self.stream()
        bits = encode(model, psi, beta)
        assert folds == [64]
        assert decode(model, bits, 64) == (psi, beta)
        assert folds == [64]
        folds.clear()
        assert coder.roundtrip(model, psi, beta)[2:] == (True, True)
        assert folds == [64]

    def test_copies_take_the_full_check(self, monkeypatch):
        model, psi, beta = self.stream()
        bits = encode(model, psi, beta)
        folds = self.counted_folds(monkeypatch)
        for copy in (Bitstring(bits.data, bits.nbits), Bitstring.from01(bits.to01()),
                     replace(bits)):
            folds.clear()
            assert copy._maps is None
            assert decode(model, copy, 64) == (psi, beta)
            assert folds == [64]

    def test_maps_are_not_part_of_the_value(self):
        model, psi, beta = self.stream()
        bits = encode(model, psi, beta)
        copy = Bitstring(bits.data, bits.nbits)
        assert len(bits._maps) == 64 and copy._maps is None
        assert bits == copy and hash(bits) == hash(copy) and repr(bits) == repr(copy)
        with pytest.raises(TypeError):
            Bitstring(bits.data, bits.nbits, bits._maps)
        with pytest.raises(ValueError):
            replace(bits, _maps=bits._maps)


class TestModelValidation:
    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            CoderModel(n=4, phi=np.array([1.0]), rho=np.array([-0.1]), kbins=np.array([2]))

    def test_first_occurrence_mass_must_stay_positive(self):
        with pytest.raises(ValueError):
            CoderModel(n=4, phi=np.array([0.0, 1.0]), rho=np.array([0.0, 0.5]),
                       kbins=np.array([0, 4]))

    def test_from_source_rho_values(self):
        pv = ParamVector.from_groups([1e-4, 0.249, 0.25], [10, 1, 3])
        n = 100
        grid = build_grid("eta", n, 0.25)
        model = CoderModel.from_source(pv, grid, n)
        st = grids.bin_stats(grid, pv)
        phi, L = st.sums(pv.counts * pv.values), st.sums(pv.counts * _occupancy(pv, n))
        rows = dict(zip(st.bins.tolist(), zip(st.counts.tolist(), phi.tolist(), L.tolist())))
        for b in range(model.num_bins):
            if b not in rows:
                assert model.rho[b] == 0.0 and model.kbins[b] == 0
                continue
            kb, phi_b, L_b = rows[b]
            assert model.kbins[b] == kb
            if b >= 2:
                assert model.rho[b] == pytest.approx(phi_b / kb)
            else:
                assert model.rho[b] == pytest.approx((n * phi_b - L_b) / (n * min(kb, n)))
        # ell_b = min(k_b, n) and L_b are derived, not stored
        assert [f.name for f in fields(model) if f.init] == ["n", "phi", "rho", "kbins"]
        assert model.num_bins == len(model.phi) and type(model.num_bins) is int
        with pytest.raises(TypeError):
            model.phi[0] = 0.5

    @pytest.mark.parametrize("n", [2, 10, 1000, 16384])
    def test_rare_letter_source_is_accepted(self, n):
        # below about n^2 theta^2 / 2 = 1e-16 the rounded fl(n phi_b) - L_b of
        # the rare letter's bin is noise, often <= 0; such a bin takes phi_b / k_b
        grid = build_grid("eta", n, 0.3)
        for theta in np.geomspace(5.6e-18, 1e-9, 200).tolist():
            pv = ParamVector.from_probs([theta, 1.0 - theta])
            model = CoderModel.from_source(pv, grid, n)
            st = grids.bin_stats(grid, pv)
            L = dict(zip(st.bins.tolist(), st.sums(pv.counts * _occupancy(pv, n)).tolist()))
            for b in range(min(2, model.num_bins)):
                phi_b, k_b, ell_b = model.phi[b], model.kbins[b], min(model.kbins[b], n)
                if k_b:
                    reserve = n * phi_b - L[b]
                    assert model.rho[b] == (reserve / (n * ell_b) if reserve > 0.0 else phi_b / k_b)
                    assert model.rho[b] > 0.0


def _emit_by_division(low: int, width: int, P: int) -> Bitstring:
    """The canonical dyadic with L from the long division ceil(P / width) and
    the code point from the long division ceil(low * 2**L / P)."""
    q = -(-P // width)
    L = (q - 1).bit_length() + 1
    c_num = ((low << L) + P - 1) // P
    nbytes = (L + 7) // 8
    return Bitstring((c_num << (8 * nbytes - L)).to_bytes(nbytes, "big"), L)


def _odd_times_power_of_two(P: int) -> tuple[int, int]:
    e = (P & -P).bit_length() - 1
    return P >> e, e


def _fold_by_products(steps):
    """(low, width, P) after the steps (den, cum, w), one step at a time."""
    low, width, P = 0, 1, 1
    for den, cum, w in steps:
        low, width, P = low * den + cum * width, width * w, P * den
    return low, width, P


def test_emit_length_from_bit_lengths_matches_the_division():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(3000):
        P = int(rng.integers(1, 2**62)) << int(rng.integers(0, 700))
        width = max(1, P >> int(rng.integers(0, P.bit_length() + 1)))
        width = max(1, width - int(rng.integers(0, 3)))
        cases.append((int(rng.integers(0, 2**40)) * (P - width) // 2**40, width, P))
    for P in (1, 2, 3, 7, 8, 2**64, 3 * 2**100 + 1):
        for shift in range(P.bit_length() + 1):
            width = P >> shift  # P / width an exact power of two where P is one
            if width:
                cases += [(0, width, P), (P - width, width, P)]
                cases += [(0, width - 1, P)] if width > 1 else []
                cases += [(0, width + 1, P)] if width < P else []
        cases += [(0, P + 1, P), (0, 2 * P, P), (0, P << 70, P)]  # width above P
    for low, width, P in cases:
        got = coder._emit(low, width, *_odd_times_power_of_two(P))
        assert got == _emit_by_division(low, width, P), (low, width, P)


@st.composite
def _step_maps(draw):
    """(a, e, cum, w) with a odd, a > 1 drawn often, and 0 <= cum < cum + w <= a * 2**e."""
    a = draw(st.one_of(st.just(1), st.integers(0, 2**70).map(lambda x: 2 * x + 1)))
    e = draw(st.integers(0, 90))
    den = a << e
    w = draw(st.integers(1, den))
    return a, e, draw(st.integers(0, den - w)), w


@given(st.lists(_step_maps(), min_size=1, max_size=40))
def test_fold_and_emit_match_the_product_of_the_denominators(steps):
    old = [(a << e, cum, w) for a, e, cum, w in steps]
    low, width, a, e = coder._fold(steps)
    assert a % 2 == 1 and (low, width, a << e) == _fold_by_products(old)
    assert coder._emit(low, width, a, e) == _emit_by_division(*_fold_by_products(old))


def _step_denominators(model, psi, beta):
    """The (a, e) of every step of the stream, a * 2**e being its denominator."""
    steps = coder._Steps(model)
    dens = []
    for p, b in zip(psi, beta):
        dens.append(steps.den)
        steps.update(p, b)
    return dens


def _source_stream(theta, n, epsilon, seed):
    grid = build_grid("eta", n, epsilon)
    x = sample_sequence(theta, n, seed)
    return CoderModel.from_source(theta, grid, n), extract_pattern(x).indices, bin_sequence(
        theta, grid, x)


def _zipf(k, exponent):
    return make_distribution(SourceSpec("zipf", {"k": k, "exponent": exponent}))


class TestPowerOfTwoSteps:
    """Every step of a from_source stream has the denominator 2**s."""

    def assert_power_of_two_steps(self, model, psi, beta):
        dens = _step_denominators(model, psi, beta)
        assert all(a == 1 for a, _ in dens), [j for j, (a, _) in enumerate(dens) if a != 1]
        bits = encode(model, psi, beta)
        assert decode(model, bits, len(psi)) == (tuple(psi), tuple(beta))
        cl = sequence_codelength(model, psi, beta)
        assert cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9

    @pytest.mark.parametrize("exponent", [1.28, 1.3, 1.313776874061002, 1.32, 1.34])
    def test_zipf_k200_n512(self, exponent):
        theta = _zipf(200, exponent)
        for seed in range(3):
            self.assert_power_of_two_steps(*_source_stream(theta, 512, 0.3, seed))

    def test_zipf_k200_n4096(self):
        # the stream on which the unscaled model had a 258,029-bit P
        self.assert_power_of_two_steps(*_source_stream(_zipf(200, 1.3), 4096, 0.3, 0))

    @pytest.mark.parametrize("name, level1", [("ex2", "below"), ("ex3", "above"), ("ex4", "unit")])
    def test_two_level_sources(self, name, level1):
        p = verify._EXAMPLE_PARAMS[name]
        params = {key: p[key] for key in ("mu", "nu", "phi0") if key in p}
        params["level1"] = level1
        n = 256
        theta = make_distribution(SourceSpec("two-level", params, n))
        for seed in range(2):
            self.assert_power_of_two_steps(*_source_stream(theta, n, p["eps"], seed))

    def test_dirichlet_sources(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(2, 65))
            theta = verify._dirichlet_source(rng, k, 1e-6)
            epsilon = float(rng.choice([0.2, 0.3, 0.45]))
            self.assert_power_of_two_steps(*_source_stream(theta, n, epsilon, rng))

    def test_every_reachable_state_sums_to_at_most_one_exactly(self):
        # a source reaches seen_b <= min(k_b, n) in each bin; the largest
        # exact bin total over those counts, summed over the bins, bounds
        # every such state
        geometric = make_distribution(SourceSpec("geometric", {"k": 12, "decay": 0.7}))
        for theta, n in ((_zipf(200, 1.3), 4096), (geometric, 64),
                         (ParamVector.from_probs([0.5, 0.25, 0.25]), 8),
                         (ParamVector.from_probs([1e-17, 0.5, 0.5]), 10)):
            model = CoderModel.from_source(theta, build_grid("eta", n, 0.3), n)
            worst = Fraction(0)
            for phi_b, rho_b, k_b in zip(model.phi, model.rho, model.kbins):
                ell_b = min(k_b, n)
                if phi_b > 0.0:
                    worst += max(seen * Fraction(rho_b) + Fraction(max(phi_b - seen * rho_b, 0.0))
                                 for seen in range(ell_b + 1))
            assert worst <= 1

    def test_probability_one_source_keeps_its_zero_codelength(self):
        theta = ParamVector.from_probs([1.0])
        for n in (4, 12, 64):
            grid = build_grid("eta", n, 0.3)
            model = CoderModel.from_source(theta, grid, n)
            assert [x for x in model.phi if x] == [1.0]
            assert exact_entropies(theta, grid, min(n, 12), model=model).expected_codelength == 0.0
            assert sequence_codelength(model, (1,) * n, (model.num_bins - 1,) * n) == 0.0


class TestDecodePrecision:
    """Decode keeps only the fractional bits its remaining decisions need."""

    @staticmethod
    def decoded_precisions(monkeypatch, model, psi, beta):
        """Stream length L and the K of decode's offset: at the start, then
        after each step."""
        ks = []
        real = coder._precision

        def recording(L, clb, n):
            ks.append(real(L, clb, n))
            return ks[-1]

        monkeypatch.setattr(coder, "_precision", recording)
        bits = encode(model, psi, beta)
        assert decode(model, bits, len(psi)) == (tuple(psi), tuple(beta))
        assert len(ks) == len(psi) + 1
        return len(bits), ks

    def test_rule(self):
        assert coder._precision(100, 0, 64) == 100 + 9
        assert coder._precision(100, 98, 64) == 2 + 9
        assert coder._precision(100, 150, 64) == 9

    def test_dyadic_source_falls_to_the_floor(self, monkeypatch):
        # every weight is a power of two or a hair below one, so the lower
        # bound clb misses the codelength by far less than a bit; the last K
        # is bit_length(n) + 2 plus L - clb_n = 2, the least a codelength
        # that is not an integer allows (L >= cl_n + 1)
        n = 256
        theta = ParamVector.from_probs([0.5, 0.25, 0.125, 0.125])
        L, ks = self.decoded_precisions(monkeypatch, *_source_stream(theta, n, 0.3, 0))
        assert ks[0] == L + n.bit_length() + 2
        assert ks[-1] == n.bit_length() + 4
        assert ks == sorted(ks, reverse=True)

    def test_precision_covers_every_decision(self, monkeypatch):
        # after step j, K + cl_j >= L + bit_length(n) + 2: each rounding moves
        # the code point's estimate by less than 2**-(L + bit_length(n) + 2)
        n = 4096
        model, psi, beta = _source_stream(_zipf(200, 1.3), n, 0.3, 0)
        L, ks = self.decoded_precisions(monkeypatch, model, psi, beta)
        state, cl = CoderState(), 0.0
        for j, (p, b) in enumerate(zip(psi, beta)):
            cl -= math.log2(next_symbol_prob(model, state, p, b))
            state.update(p, b)
            assert ks[j + 1] + cl >= L + n.bit_length() + 2 - 1e-6, j
        assert ks[-1] < ks[0] / 4


def _two_letter_model(n=10):
    return CoderModel.from_source(ParamVector.from_probs([0.25, 0.75]), build_grid("eta", 10, 0.3), n)


@pytest.mark.parametrize("call, words", [
    (lambda: _two_letter_model(11), "grid was built for n=10, not 11"),
    (lambda: sequence_codelength(_two_letter_model(), (1, 2), (1,)), "lengths differ"),
    (lambda: encode(_two_letter_model(), (), ()), "need non-empty"),
    (lambda: decode(_two_letter_model(), Bitstring(b"", 0), 0), "n must be >= 1"),
], ids=["grid_n", "codelength_lengths", "encode_empty", "decode_n"])
def test_validation_raises(call, words):
    with pytest.raises(ValueError, match=words):
        call()
