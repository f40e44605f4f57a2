"""The incremental coder against an independent slow route.

The reference below rebuilds every positive-probability event and its integer
weight at every step, decodes by bisection over big-integer products, and
accepts a decoded stream only if re-encoding it gives the same bits.  The
coder in ``pattern_entropy.coder`` keeps the event table incrementally, folds
the steps in a product tree and decodes in fixed point; it must emit
identical bits and reach identical verdicts on every stream and every
corruption tried here, the edge streams included.
"""

import warnings

import numpy as np
import pytest

from pattern_entropy import coder
from pattern_entropy.coder import (
    Bitstring, CoderModel, CoderState, DecodeError, _dyadic, decode, encode,
)
from pattern_entropy.distributions import ParamVector
from pattern_entropy.grids import build_grid
from pattern_entropy.patterns import bin_sequence, extract_pattern


def _step_events(model, state):
    """Positive-probability events at a state: (psi, beta, prob), fixed order."""
    phi, rho = model.phi.tolist(), model.rho.tolist()
    events = []
    for idx in range(1, state.max_index + 1):
        b = state.index_to_bin[idx]
        q = rho[b]
        if q > 0.0:
            events.append((idx, b, q))
    new_index = state.max_index + 1
    for b in range(model.num_bins):
        seen = state.seen_per_bin.get(b, 0)
        mass = phi[b] - seen * rho[b]
        if mass > 0.0:
            events.append((new_index, b, mass))
    return events


def _event_weights(events):
    """Integer event weights over a common denominator max(2**s, total)."""
    dy = [_dyadic(q) for _, _, q in events]
    s = max(shift for _, shift in dy)
    weights = [num << (s - shift) for num, shift in dy]
    den = 1 << s
    total = sum(weights)
    return weights, max(den, total)


def reference_encode(model, psi, beta):
    psi = tuple(int(p) for p in psi)
    beta = tuple(int(b) for b in beta)
    if len(psi) != len(beta) or not psi:
        raise ValueError("need non-empty (psi, beta) of equal length")
    low, width, P = 0, 1, 1
    state = CoderState()
    for j, (p, b) in enumerate(zip(psi, beta)):
        events = _step_events(model, state)
        weights, den = _event_weights(events)
        cum = 0
        target = None
        for (ep, eb, _), w in zip(events, weights):
            if ep == p and eb == b:
                target = (cum, w)
                break
            cum += w
        if target is None:
            raise ValueError(f"zero-probability step at position {j}: ({p}, {b})")
        cum_lo, w = target
        low = low * den + cum_lo * width
        width = width * w
        P = P * den
        state.update(p, b)
    q = -(-P // width)
    L = (q - 1).bit_length() + 1
    c_num = (low * (1 << L) + P - 1) // P
    nbytes = (L + 7) // 8
    return Bitstring((c_num << (8 * nbytes - L)).to_bytes(nbytes, "big"), L)


def reference_decode(model, bits, n):
    if n < 1:
        raise ValueError("n must be >= 1")
    L = bits.nbits
    if L < 1:
        raise DecodeError("empty bitstream")
    c_num = bits._value()
    low, width, P = 0, 1, 1
    state = CoderState()
    psi, beta = [], []
    for _ in range(n):
        events = _step_events(model, state)
        weights, den = _event_weights(events)
        cums = [0]
        for w in weights:
            cums.append(cums[-1] + w)
        lhs = c_num * P * den
        scale = 1 << L
        lo_idx, hi_idx = 0, len(events) - 1
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx + 1) // 2
            if (low * den + cums[mid] * width) * scale <= lhs:
                lo_idx = mid
            else:
                hi_idx = mid - 1
        t = lo_idx
        new_low = low * den + cums[t] * width
        new_width = width * weights[t]
        if (new_low + new_width) * scale <= lhs:
            raise DecodeError("code point escapes every event interval")
        low, width, P = new_low, new_width, P * den
        p, b, _ = events[t]
        psi.append(p)
        beta.append(b)
        state.update(p, b)
    if (c_num + 1) * P > (low + width) * (1 << L) or c_num * P < low * (1 << L):
        raise DecodeError("bitstream is not contained in the decoded interval")
    if reference_encode(model, psi, beta) != bits:
        raise DecodeError("bitstream is not the canonical encoding of its decode")
    return tuple(psi), tuple(beta)


def _verdict(fn, *args):
    try:
        return "ok", fn(*args)
    except DecodeError:
        return "DecodeError", None
    except ValueError:
        return "ValueError", None


def _corruptions(bits):
    """Every single-bit flip, a 1-bit truncation and the '0'/'1' extensions."""
    s = bits.to01()
    out = [s[:i] + ("1" if s[i] == "0" else "0") + s[i + 1:] for i in range(len(s))]
    out += [s[:-1], s + "0", s + "1"]
    return [Bitstring.from01(c) for c in out]


def _source_streams(count, seed):
    """(model, psi, beta) for sampled sequences of random sources, k <= 8, n <= 64."""
    rng = np.random.default_rng(seed)
    grids = {}
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(count):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(2, 65))
            probs = rng.dirichlet(np.ones(k))
            while probs.min() <= 1e-6:
                probs = rng.dirichlet(np.ones(k))
            theta = ParamVector.from_probs(probs)
            key = (n, float(rng.choice([0.2, 0.3, 0.45])))
            if key not in grids:
                grids[key] = build_grid("eta", *key)
            grid = grids[key]
            model = CoderModel.from_source(theta, grid, n)
            x = rng.choice(np.arange(1, k + 1), size=n, p=theta.probs)
            out.append((model, extract_pattern(x).indices, bin_sequence(theta, grid, x)))
    return out


def _synthetic_streams(count, seed):
    """Random per-bin models with phi = 0 bins, rho = 0 bins and rho > 0 on
    phi = 0 bins; each stream walks the reference's own events."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nbins = int(rng.integers(1, 7))
        phi = rng.dirichlet(np.ones(nbins)) * (rng.random(nbins) < 0.7)
        if phi.sum() == 0.0:
            phi[-1] = 1.0
        kbins = rng.integers(1, 6, size=nbins) * (phi > 0)
        rho = np.where(rng.random(nbins) < 0.35, 0.0, phi / np.maximum(kbins, 1))
        rho = np.where(phi == 0.0, rng.random(nbins) * (rng.random(nbins) < 0.5), rho)
        model = CoderModel(n=16, phi=phi, rho=rho, kbins=kbins, ell=kbins,
                           L=np.zeros(nbins))
        psi, beta = _walk(model, int(rng.integers(1, 25)),
                          lambda events: events[int(rng.integers(0, len(events)))])
        if psi:
            out.append((model, psi, beta))
    return out


def _walk(model, length, pick):
    """(psi, beta) of up to ``length`` steps, each the event ``pick(events)``
    among the reference's events; stops where no event is left."""
    state = CoderState()
    psi, beta = [], []
    for _ in range(length):
        events = _step_events(model, state)
        if not events:
            break
        p, b, _ = pick(events)
        psi.append(p)
        beta.append(b)
        state.update(p, b)
    return tuple(psi), tuple(beta)


def _edge_streams():
    """Streams at the corners of the coder's arithmetic, by name."""
    n = 48
    theta = ParamVector.from_probs([0.3, 0.25, 0.2, 0.12, 0.08, 0.05])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        source = CoderModel.from_source(theta, build_grid("eta", n, 0.3), n)
    # one bin whose only letter always has probability 1
    certain = CoderModel(n=8, phi=np.array([1.0]), rho=np.array([1.0]),
                         kbins=np.array([1]), ell=np.array([1]), L=np.zeros(1))
    # phi sums to 1.3, so a step's weights total more than 2**s
    over_one = CoderModel(n=16, phi=np.array([0.7, 0.6]), rho=np.array([0.2, 0.15]),
                          kbins=np.array([3, 4]), ell=np.array([3, 4]), L=np.zeros(2))
    rng = np.random.default_rng(22)
    return {
        "first_event": (source, *_walk(source, n, lambda events: events[0])),
        "last_event": (source, *_walk(source, n, lambda events: events[-1])),
        "single_step": (source, *_walk(source, 1, lambda events: events[-1])),
        "one_bit": (certain, *_walk(certain, 8, lambda events: events[0])),
        "total_over_one": (over_one, *_walk(
            over_one, 24, lambda events: events[int(rng.integers(0, len(events)))])),
    }


SOURCE_STREAMS = _source_streams(300, seed=20)
SYNTHETIC_STREAMS = _synthetic_streams(80, seed=21)
EDGE_STREAMS = _edge_streams()


@pytest.mark.parametrize("streams", [SOURCE_STREAMS, SYNTHETIC_STREAMS],
                         ids=["sources", "synthetic"])
def test_bits_and_decodes_match_reference(streams):
    for model, psi, beta in streams:
        bits = encode(model, psi, beta)
        assert bits == reference_encode(model, psi, beta)
        assert decode(model, bits, len(psi)) == (tuple(psi), tuple(beta))


@pytest.mark.parametrize("streams", [SOURCE_STREAMS, SYNTHETIC_STREAMS],
                         ids=["sources", "synthetic"])
def test_corrupted_stream_verdicts_match_reference(streams):
    tried = rejected = 0
    for model, psi, beta in streams:
        n = len(psi)
        for bad in _corruptions(encode(model, psi, beta)):
            got = _verdict(decode, model, bad, n)
            assert got == _verdict(reference_decode, model, bad, n), (bad.to01(), n)
            tried += 1
            rejected += got[0] != "ok"
    assert 0 < rejected < tried


def test_edge_streams_are_at_the_edges():
    first = encode(*EDGE_STREAMS["first_event"])
    assert first.to01() == "0" * len(first)  # low = 0: the code point is 0
    model, psi, beta = EDGE_STREAMS["last_event"]
    assert psi[:3] == (1, 2, 3) and beta[0] == np.flatnonzero(model.phi).max()
    assert len(EDGE_STREAMS["single_step"][1]) == 1
    assert len(encode(*EDGE_STREAMS["one_bit"])) == 1
    over_one = EDGE_STREAMS["total_over_one"][0]
    assert sum(q for *_, q in _step_events(over_one, CoderState())) > 1.0


@pytest.mark.parametrize("name", EDGE_STREAMS)
def test_edge_streams_match_reference(name):
    model, psi, beta = EDGE_STREAMS[name]
    n = len(psi)
    bits = encode(model, psi, beta)
    assert bits == reference_encode(model, psi, beta)
    assert decode(model, bits, n) == (psi, beta)
    for bad in _corruptions(bits):
        assert _verdict(decode, model, bad, n) == _verdict(reference_decode, model, bad, n), (
            bad.to01(), n)


def test_impossible_steps_match_reference():
    for model, psi, beta in SYNTHETIC_STREAMS[:20] + SOURCE_STREAMS[:20]:
        for j in range(len(psi)):
            for p, b in ((psi[j] + 1, beta[j]), (psi[j], beta[j] + 1), (0, beta[j])):
                args = (model, psi[:j] + (p,) + psi[j + 1:], beta[:j] + (b,) + beta[j + 1:])
                assert _verdict(encode, *args) == _verdict(reference_encode, *args)


def test_model_without_events_is_rejected_like_reference():
    model = CoderModel(n=4, phi=np.zeros(3), rho=np.zeros(3), kbins=np.zeros(3, int),
                       ell=np.zeros(3, int), L=np.zeros(3))
    assert _verdict(encode, model, (1,), (0,)) == _verdict(reference_encode, model, (1,), (0,))
    bits = Bitstring.from01("1")
    assert _verdict(decode, model, bits, 1) == _verdict(reference_decode, model, bits, 1)


def test_decode_never_calls_encode(monkeypatch):
    calls = []
    real = coder.encode

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(coder, "encode", counting)
    for model, psi, beta in SOURCE_STREAMS[:40] + SYNTHETIC_STREAMS[:20]:
        bits = real(model, psi, beta)
        for candidate in [bits] + _corruptions(bits)[:4]:
            _verdict(coder.decode, model, candidate, len(psi))
    assert calls == []
