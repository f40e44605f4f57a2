import math

import numpy as np
import pytest

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
from pattern_entropy.distributions import ParamVector
from pattern_entropy.grids import build_grid
from pattern_entropy.oracle import exact_entropies
from pattern_entropy.patterns import bin_sequence, extract_pattern


def three_letter_single_bin_model():
    """Synthetic model: one bin (index 2) holding three letters of total mass 1."""
    return CoderModel(
        n=8,
        phi=np.array([0.0, 0.0, 1.0]),
        rho=np.array([0.0, 0.0, 1.0 / 3.0]),
        kbins=np.array([0, 0, 3]),
        ell=np.array([0, 0, 3]),
        L=np.array([0.0, 0.0, 3.0]),
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
                    Lb = float(model.L[b])
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

        def counting(self, j):
            weighings.append(j)
            return real(self, j)

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


class TestModelValidation:
    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            CoderModel(n=4, phi=np.array([1.0]), rho=np.array([-0.1]),
                       kbins=np.array([2]), ell=np.array([2]), L=np.array([1.0]))

    def test_first_occurrence_mass_must_stay_positive(self):
        with pytest.raises(ValueError):
            CoderModel(n=4, phi=np.array([0.0, 1.0]), rho=np.array([0.0, 0.5]),
                       kbins=np.array([0, 4]), ell=np.array([0, 4]),
                       L=np.array([0.0, 2.0]))

    def test_float_values_match_read_only_arrays(self):
        pv = ParamVector.from_groups([1e-4, 0.249, 0.25], [10, 1, 3])
        for model in (three_letter_single_bin_model(),
                      CoderModel.from_source(pv, build_grid("eta", 100, 0.25), 100)):
            assert list(model.phi_floats) == model.phi.tolist()
            assert list(model.rho_floats) == model.rho.tolist()
            assert model.num_bins == len(model.phi) and type(model.num_bins) is int
            for arr in (model.phi, model.rho):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.5

    def test_from_source_rho_values(self):
        pv = ParamVector.from_groups([1e-4, 0.249, 0.25], [10, 1, 3])
        n = 100
        grid = build_grid("eta", n, 0.25)
        model = CoderModel.from_source(pv, grid, n)
        from pattern_entropy.grids import bin_stats
        st = bin_stats(grid, pv)
        rows = dict(zip(st.bins.tolist(), zip(st.counts.tolist(), st.phi.tolist(), st.L.tolist())))
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
        assert np.array_equal(model.ell, np.minimum(model.kbins, n))
