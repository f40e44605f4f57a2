"""Sequential probability assignment over joint (pattern, bin) sequences.

Each bin starts with its total mass phi_b.  A re-occurrence of a known index
costs the bin's per-letter rate rho_b; a new index occurring in bin b receives
the bin's remaining first-occurrence mass phi_b - seen_b * rho_b.  For bins 0
and 1 the rate is the optimized (n*phi_b - L_b)/(n * min(k_b, n)), which keeps
the first-occurrence mass positive throughout; higher bins use phi_b / k_b.

A step reads the model's per-bin values as Python floats, built once with
the model, and the state's index count as a plain int, so a step of the
exact oracle's k**n walk touches no numpy scalar.

The assignment is sub-stochastic by construction (mass reserved for new
occurrences in a bin whose letters are all seen is never claimable), which is
exactly what makes its expected codelength dominate the joint entropy.  The
arithmetic coder in this module realizes the assignment exactly: interval
arithmetic is done on integers (every float is a dyadic rational), so the
emitted length is within 2 bits of -log2 Q on every sequence.

Encode and decode share one per-stream event table (``_Steps``): an
append-only prefix sum of the re-occurrence weights over the known indices,
and the dyadic first-occurrence mass of each bin that still has one,
refreshed only when that bin receives a new index.  The events are weighed
anew, in O(B+) small-integer operations for the B+ bins with phi_b > 0, only
after a step that adds an index; any other step costs a few small-integer
operations, plus an O(log m) bisection when decoding.

A step reduces to a triple (den, cum, w) of integers of about 64 bits, and no
step loop multiplies a growing integer.  Encode folds the n triples in a
balanced product tree into the exact interval, whose integers have about
64 n bits: at most O(log n) multiplications of that size, then two divisions
with quotients of L bits to emit the stream, L being about -log2 Q.  Decode
tracks the code point's offset inside the current interval as a fixed-point
integer of L + log2 n + O(1) bits, exact on every canonical stream, so its
step loop costs O(n L) bit operations; it then folds its own triples and
accepts the stream only if it is the canonical dyadic encode would emit for
what it decodes to.  Sequences longer than CODER_N_CAP raise
ResourceCapError.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ._common import ResourceCapError
from .distributions import ParamVector
from .grids import Grid, bin_stats

__all__ = [
    "CoderModel", "CoderState", "Bitstring", "DecodeError",
    "next_symbol_prob", "sequence_codelength", "encode", "decode", "roundtrip",
]

# Longest sequence the exact coder accepts.  A round trip at this length
# (zipf k = 200, L = 76,582 bits) takes 0.9-1.0 s to encode and 2.2-2.4 s to
# decode on a 2-vCPU x86-64 host, and the cost grows about quadratically with
# n: the interval's integers and the decoder's fixed-point offset grow
# linearly.
CODER_N_CAP = 16_384


class DecodeError(ValueError):
    """The bitstream is not a canonical encoding under the given model."""


@dataclass(frozen=True)
class CoderModel:
    """Frozen per-bin parameters of the probability assignment.

    The per-bin fields take any sequence or array and are stored as tuples of
    Python numbers (floats for ``phi``, ``rho`` and ``L``, ints for ``kbins``
    and ``ell``), built once; a coder step indexes them directly.
    """

    n: int
    phi: tuple[float, ...]
    rho: tuple[float, ...]
    kbins: tuple[int, ...]
    ell: tuple[int, ...]
    L: tuple[float, ...]
    num_bins: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("phi", float), ("rho", float), ("kbins", np.int64),
                            ("ell", np.int64), ("L", float)):
            values = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, tuple(values.tolist()))
        phi, rho = self.phi, self.rho
        if any(r < 0.0 for r in rho):
            raise ValueError("per-letter rates must be non-negative")
        for b in (0, 1):
            if b < len(phi) and self.kbins[b] > 0:
                remaining = phi[b] - (self.ell[b] - 1) * rho[b]
                if remaining <= 0.0:
                    raise ValueError(
                        f"bin {b}: rate leaves no first-occurrence mass ({remaining})"
                    )
        object.__setattr__(self, "num_bins", len(phi))

    @classmethod
    def from_source(cls, theta: ParamVector, grid: Grid, n: int) -> "CoderModel":
        """Build the model for a known source over an eta grid (n <= CODER_N_CAP)."""
        if n != grid.n:
            raise ValueError(f"grid was built for n={grid.n}, not {n}")
        _check_cap(n)
        stats = bin_stats(grid, theta)
        occupied = stats.bins
        phi = np.zeros(grid.num_bins, dtype=float)
        kbins = np.zeros(grid.num_bins, dtype=np.int64)
        L = np.zeros(grid.num_bins, dtype=float)
        rho = np.zeros(grid.num_bins, dtype=float)
        phi[occupied], kbins[occupied], L[occupied] = stats.phi, stats.counts, stats.L
        ell = np.minimum(kbins, n)
        rho[occupied] = np.where(occupied <= 1,
                                 (n * stats.phi - stats.L) / (n * ell[occupied]),
                                 stats.phi / stats.counts)
        return cls(n=n, phi=phi, rho=rho, kbins=kbins, ell=ell, L=L)


@dataclass
class CoderState:
    """Mutable per-stream state: which indices occurred, and with which bin.

    ``max_index`` is the number of indices seen, kept current by
    :meth:`update` and :meth:`pop_index`.
    """

    index_to_bin: dict[int, int] = field(default_factory=dict, init=False)
    seen_per_bin: dict[int, int] = field(default_factory=dict, init=False)
    max_index: int = field(default=0, init=False)

    def update(self, psi_j: int, beta_j: int) -> None:
        """Record one (index, bin) step; the step must be legal for the state."""
        fresh = self.max_index + 1
        if psi_j == fresh:
            self.index_to_bin[psi_j] = beta_j
            self.seen_per_bin[beta_j] = self.seen_per_bin.get(beta_j, 0) + 1
            self.max_index = fresh
        elif psi_j > fresh:
            raise ValueError(f"pattern index {psi_j} skips ahead of {fresh}")
        # re-occurrences change nothing

    def pop_index(self) -> None:
        """Undo the update that introduced the highest index."""
        b = self.index_to_bin.pop(self.max_index)
        self.max_index -= 1
        if self.seen_per_bin[b] == 1:
            del self.seen_per_bin[b]
        else:
            self.seen_per_bin[b] -= 1


def next_symbol_prob(model: CoderModel, state: CoderState, psi_j: int, beta_j: int) -> float:
    """Probability assigned to the next (index, bin) pair given the state.

    A previously seen pair costs rho of its bin; a fresh index receives the
    bin's remaining first-occurrence mass; everything else has probability 0.
    """
    if not 0 <= beta_j < model.num_bins:
        raise ValueError(f"bin {beta_j} outside the model's {model.num_bins} bins")
    if psi_j > state.max_index + 1:
        raise ValueError(f"pattern index {psi_j} skips ahead of {state.max_index + 1}")
    known_bin = state.index_to_bin.get(psi_j)
    if known_bin is not None:
        return model.rho[beta_j] if known_bin == beta_j else 0.0
    # psi_j == max_index + 1: first occurrence
    seen = state.seen_per_bin.get(beta_j, 0)
    mass = model.phi[beta_j] - seen * model.rho[beta_j]
    if mass < 0.0:
        warnings.warn(f"new-occurrence mass clamped to 0 in bin {beta_j}")
        return 0.0
    return mass


def sequence_codelength(model: CoderModel, psi, beta) -> float:
    """-log2 of the assigned probability of (psi, beta), in bits.

    Returns inf when some step has probability zero; the offending position is
    reported in a warning.
    """
    psi = tuple(psi)
    beta = tuple(beta)
    if len(psi) != len(beta):
        raise ValueError("pattern and bin sequence lengths differ")
    state = CoderState()
    bits = 0.0
    for j, (p, b) in enumerate(zip(psi, beta)):
        q = next_symbol_prob(model, state, p, b)
        if q <= 0.0:
            warnings.warn(f"zero-probability step at position {j}")
            return math.inf
        bits -= math.log2(q)
        state.update(p, b)
    return bits


@dataclass(frozen=True)
class Bitstring:
    """A bit sequence packed big-endian (first bit = MSB of the first byte)."""

    data: bytes
    nbits: int

    def __post_init__(self):
        if self.nbits < 0 or len(self.data) != (self.nbits + 7) // 8:
            raise ValueError("byte payload does not match the bit count")

    def __len__(self) -> int:
        return self.nbits

    def to01(self) -> str:
        whole = bin(int.from_bytes(self.data, "big"))[2:].zfill(8 * len(self.data))
        return whole[: self.nbits]

    @classmethod
    def from01(cls, s: str) -> "Bitstring":
        nbits = len(s)
        nbytes = (nbits + 7) // 8
        value = int(s, 2) if nbits else 0
        return cls((value << (8 * nbytes - nbits)).to_bytes(nbytes, "big"), nbits)

    def _value(self) -> int:
        """The bits as an integer (padding stripped); padding must be zero."""
        raw = int.from_bytes(self.data, "big")
        pad = 8 * len(self.data) - self.nbits
        if raw & ((1 << pad) - 1):
            raise DecodeError("non-zero padding bits")
        return raw >> pad


def _dyadic(x: float) -> tuple[int, int]:
    """Exact (numerator, shift) with x = num / 2**shift, num odd."""
    m, e = math.frexp(x)
    num = int(m * (1 << 53))
    shift = 53 - e
    strip = (num & -num).bit_length() - 1
    return num >> strip, shift - strip


def _shift(x: int, k: int) -> int:
    """x * 2**k for k >= 0, floor(x / 2**-k) otherwise."""
    return x << k if k >= 0 else x >> -k


class _Steps:
    """Incremental event table of one stream, shared by encode and decode.

    At every state the positive-probability events are the re-occurrences of
    the known indices (in index order, weight rho of the index's bin) followed
    by one first occurrence per bin with positive remaining mass (in bin
    order).  Each weight is a dyadic num / 2**shift; a step puts them all over
    2**s with s the largest shift present, and its denominator is
    max(2**s, weight total).  The table keeps:

    - ``starts``: prefix sums of the re-occurrence weights over the indices,
      at the fixed scale ``top`` (the largest rate shift), so one shift
      rescales any of them to the step's scale; this is exact because every
      summed weight has shift <= s;
    - ``fresh``: the dyadic first-occurrence mass of each bin that still has
      one, recomputed only when that bin's seen count changes.
    """

    def __init__(self, model: CoderModel):
        self.phi, self.rho = model.phi, model.rho
        self.rate = [_dyadic(r) if r > 0.0 else None for r in self.rho]
        self.top = max((shift for _, shift in filter(None, self.rate)), default=0)
        self.rate_shift: int | None = None  # largest rate shift among known indices
        self.starts = [0]
        self.state = CoderState()
        self.den: int | None = None  # None until the current state is weighed
        # a bin's mass never exceeds phi_b, so only bins with phi_b > 0 can hold one
        self.fresh = {}
        for b, x in enumerate(self.phi):
            if x > 0.0:
                self._weigh_fresh(b)

    def _weigh_fresh(self, b: int) -> None:
        mass = self.phi[b] - self.state.seen_per_bin.get(b, 0) * self.rho[b]
        if mass > 0.0:
            self.fresh[b] = _dyadic(mass)
        else:
            self.fresh.pop(b, None)

    def begin(self, j: int) -> int:
        """Denominator of step j's events at this state.

        The events are weighed anew only after an update that added an index;
        a re-occurrence leaves every weight and the denominator unchanged.
        """
        if self.den is None:
            self._weigh(j)
        return self.den

    def _weigh(self, j: int) -> None:
        shifts = [shift for _, shift in self.fresh.values()]
        if self.rate_shift is not None:
            shifts.append(self.rate_shift)
        if not shifts:
            raise ValueError(f"no event has positive probability at position {j}")
        s = self.s = max(shifts)
        self.reoccur = _shift(self.starts[-1], s - self.top)
        self.fresh_w = [(b, num << (s - shift)) for b, (num, shift) in self.fresh.items()]
        total = self.reoccur + sum(w for _, w in self.fresh_w)
        self.den = max(1 << s, total)

    def _rate_at(self, b: int) -> int:
        num, shift = self.rate[b]
        return num << (self.s - shift)

    def locate(self, p: int, b: int) -> tuple[int, int] | None:
        """(start, weight) of the event (p, b), or None if it has probability 0."""
        m = self.state.max_index
        if 1 <= p <= m:
            if self.state.index_to_bin[p] != b or self.rate[b] is None:
                return None
            return _shift(self.starts[p - 1], self.s - self.top), self._rate_at(b)
        if p == m + 1:
            cum = self.reoccur
            for fb, w in self.fresh_w:
                if fb == b:
                    return cum, w
                cum += w
        return None

    def find(self, t: int) -> tuple[int, int, int, int] | None:
        """(p, b, start, weight) of the event whose span holds t, or None if
        t is at or beyond the weight total."""
        if t < self.reoccur:
            p = bisect_right(self.starts, _shift(t, self.top - self.s))
            b = self.state.index_to_bin[p]
            return p, b, _shift(self.starts[p - 1], self.s - self.top), self._rate_at(b)
        cum = self.reoccur
        for b, w in self.fresh_w:
            if t < cum + w:
                return self.state.max_index + 1, b, cum, w
            cum += w
        return None

    def update(self, p: int, b: int) -> None:
        """Record the step (p, b), which must be an event of this state."""
        if p <= self.state.max_index:
            return
        self.state.update(p, b)
        self.den = None
        self._weigh_fresh(b)
        rate = self.rate[b]
        if rate is None:
            self.starts.append(self.starts[-1])
            return
        num, shift = rate
        if self.rate_shift is None or shift > self.rate_shift:
            self.rate_shift = shift
        self.starts.append(self.starts[-1] + (num << (self.top - shift)))


def _check_cap(n: int) -> None:
    if n > CODER_N_CAP:
        raise ResourceCapError(
            f"sequence length {n} exceeds the exact coder's cap CODER_N_CAP ({CODER_N_CAP})")


def _fold(triples: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Interval (low, width, P) after the steps (den, cum, w), from [0, 1).

    A step maps [low/P, (low+width)/P) to low' = low*den + cum*width,
    width' = width*w, P' = P*den.  A run of steps is one such map (A, B, W):
    low' = low*A + width*B, width' = width*W, P' = P*A; two runs compose as
    (A1*A2, B1*A2 + W1*B2, W1*W2).  Composing neighbours level by level keeps
    the two factors of every product about equally long, so no step's small
    integers are multiplied into a number as long as the whole interval.
    """
    segs = triples
    while len(segs) > 1:
        odd = segs[-1:] if len(segs) % 2 else []
        segs = [(a1 * a2, b1 * a2 + w1 * b2, w1 * w2)
                for (a1, b1, w1), (a2, b2, w2) in zip(segs[::2], segs[1::2])] + odd
    P, low, width = segs[0]
    return low, width, P


def _emit(low: int, width: int, P: int) -> Bitstring:
    """Canonical dyadic of [low/P, (low+width)/P): the smallest length L with
    width * 2**(L-1) >= P, and the code point c = ceil(low * 2**L / P).

    L comes from bit lengths: width << d has P's bit length for
    d = P.bit_length() - width.bit_length(), so the smallest shift m with
    width << m >= P is d or d + 1 (0 when width >= P)."""
    m = max(P.bit_length() - width.bit_length(), 0)
    if (width << m) < P:
        m += 1
    L = m + 1
    c_num = ((low << L) + P - 1) // P
    nbytes = (L + 7) // 8
    return Bitstring((c_num << (8 * nbytes - L)).to_bytes(nbytes, "big"), L)


def encode(model: CoderModel, psi, beta) -> Bitstring:
    """Arithmetic-code (psi, beta) under the model's assignment.

    Every step must have strictly positive probability (true for sequences the
    source can emit).  The emitted length is at most -log2 Q + 2 bits.
    Raises ResourceCapError above CODER_N_CAP symbols.
    """
    psi = tuple(int(p) for p in psi)
    beta = tuple(int(b) for b in beta)
    if len(psi) != len(beta) or not psi:
        raise ValueError("need non-empty (psi, beta) of equal length")
    _check_cap(len(psi))
    steps = _Steps(model)
    triples = []
    for j, (p, b) in enumerate(zip(psi, beta)):
        den = steps.begin(j)
        target = steps.locate(p, b)
        if target is None:
            raise ValueError(f"zero-probability step at position {j}: ({p}, {b})")
        triples.append((den, *target))
        steps.update(p, b)
    return _emit(*_fold(triples))


def decode(model: CoderModel, bits: Bitstring, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invert :func:`encode`; length n is conveyed out of band.

    Raises DecodeError when the stream is not the canonical encoding of any
    length-n (psi, beta) under this model, and ResourceCapError above
    CODER_N_CAP symbols.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n)
    L = bits.nbits
    if L < 1:
        raise DecodeError("empty bitstream")
    # X / 2**K estimates the code point's offset inside the current interval,
    # as a fraction of its width: exact at the start and rounded up at each
    # step, so it is never too low and, after j steps, at most
    # j * 2**(cl_j - K) too high, cl_j being the first j steps' codelength.
    # On a canonical stream the code point lies in the left half of the final
    # interval, so after step j it lies more than 2**(cl_j - cl_n - 1) of the
    # interval's width below its end; as cl_n <= L - 1, every decision is
    # exact once 2**K >= n * 2**L.  Any other stream fails the final
    # comparison with what encode emits.
    K = L + n.bit_length() + 2
    X = bits._value() << (K - L)
    steps = _Steps(model)
    psi: list[int] = []
    beta: list[int] = []
    triples = []
    for j in range(n):
        den = steps.begin(j)
        X *= den
        event = steps.find(X >> K)
        if event is None:
            raise DecodeError("code point escapes every event interval")
        p, b, cum, w = event
        X = -(((cum << K) - X) // w)
        triples.append((den, cum, w))
        psi.append(p)
        beta.append(b)
        steps.update(p, b)
    if _emit(*_fold(triples)) != bits:
        raise DecodeError("bitstream is not the canonical encoding of its decode")
    return tuple(psi), tuple(beta)


def roundtrip(model: CoderModel, psi, beta) -> tuple[float, Bitstring, bool, bool]:
    """Encode (psi, beta), decode the stream back, and check both.

    Returns the codelength -log2 Q, the stream, whether decoding gives back
    (psi, beta), and whether the stream's length lies in the stated bound
    [-log2 Q, -log2 Q + 2], with 1e-9 bits of slack for the float codelength.
    """
    psi, beta = tuple(psi), tuple(beta)
    cl = sequence_codelength(model, psi, beta)
    bits = encode(model, psi, beta)
    ok = decode(model, bits, len(psi)) == (psi, beta)
    return cl, bits, ok, cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9
