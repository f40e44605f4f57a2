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

Encode and decode share one per-stream event table (``_Steps``).  Every
event weight is an integer over one stream-wide 2**S, S being the largest
dyadic shift among the model's positive phi_b and rho_b, so no weight is
ever rescaled: the table is an append-only prefix sum of the re-occurrence
weights over the known indices, plus the first-occurrence weight of each bin
that still has one.  A new index changes one bin's weight and a running
total; any other step costs a few small-integer operations, plus an
O(log m) bisection when decoding.

A step is the map (a, e, cum, w): its denominator a * 2**e (a odd), and the
start and weight of the coded event.  The float weights of a
``CoderModel.from_source`` model total at most 1 at every state its source
reaches, so each such step has a = 1 and the interval's denominator P is a
power of two.  Each recorded map drops the power of two common to 2**e, cum
and w, and encode folds the n maps in a balanced product tree into the exact
interval: O(log n) levels that multiply only the widths and the offsets and
shift by the exponents.  It takes the stream's length L, about -log2 Q, from
bit lengths, and its code point from a shift and a division by the odd part
a.  Decode tracks the code point's offset inside the current interval in
fixed point, with L - clb_j + log2 n + O(1) fractional bits after step j,
clb_j being a lower bound on the codelength so far, so its step loop costs
O(sum_j (L - clb_j)) bit operations; it then folds its own maps and accepts
the stream only if it is the canonical dyadic encode would emit for what it
decodes to.  Sequences longer than CODER_N_CAP raise ResourceCapError.
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
# (zipf k = 200, exponent 1.3, L = 76,066 bits) takes 0.11 s to encode and
# 0.47 s to decode on a 2-vCPU x86-64 host with Python 3.11, and the cost
# grows about quadratically with n: the interval's integers and the
# decoder's fixed-point offset grow linearly.
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
        """Build the model for a known source over an eta grid (n <= CODER_N_CAP).

        The model is strictly sub-stochastic in floats: at every state a
        length-n source sequence can reach (seen_b <= ell_b = min(k_b, n) in
        every bin), the exact sum of the event weights is at most 1, so every
        coder step has the power-of-two denominator 2**s.

        Bound.  Let u = 2**-53 and x = seen * rho_b.  A bin contributes
        T_b = x + f_b, where f_b = fl(phi_b - fl(x)) when that is positive and
        0 otherwise.  If f_b > 0, then fl(x) < phi_b, so x <= phi_b / (1 - u)
        and T_b <= phi_b + u x + u (phi_b - fl(x)) <= phi_b (1 + 2u).  If
        f_b = 0, T_b = x <= ell_b rho_b: rho_b = fl(phi_b / k_b) gives
        x <= phi_b (1 + u), and the bin-0/1 rate fl(fl(fl(n phi_b) - L_b) /
        (n ell_b)) with L_b >= 0 gives x <= phi_b (1 + u)**3.  So
        T_b <= phi_b (1 + 4u) in every bin, and T_b = phi_b exactly in a bin
        b >= 2 holding one letter, where rho_b = phi_b and f_b is phi_b at
        seen = 0 and 0 at seen = 1.

        Margin.  Let M be the exact sum of the source's per-bin masses.  If
        M <= 1, the one-letter bins b >= 2 keep phi_b and every other bin
        takes phi_b' = fl(phi_b c) with c = 1 - 2**-50 = 1 - 8u, so
        phi_b' (1 + 4u) <= phi_b (1 - 8u)(1 + u)(1 + 4u) < phi_b and the state
        total is below M <= 1.  If M > 1, every bin takes c = fl((1 - 8u) /
        fl(M)), and the total is at most (1 + 4u)(1 + u)**2 (1 - 8u) / (1 - u)
        <= 1 - u.  The rates are derived from the scaled masses.  A source of
        probability 1 keeps its 0-bit codelength.
        """
        if n != grid.n:
            raise ValueError(f"grid was built for n={grid.n}, not {n}")
        _check_cap(n)
        stats = bin_stats(grid, theta)
        occupied = stats.bins
        total_num, total_shift = _dyadic_sum(stats.phi.tolist())
        if total_num <= 1 << total_shift:
            scale, exact = 1.0 - 2.0**-50, (occupied >= 2) & (stats.counts == 1)
        else:
            scale, exact = (1.0 - 2.0**-50) / (total_num / (1 << total_shift)), False
        phi = np.zeros(grid.num_bins, dtype=float)
        kbins = np.zeros(grid.num_bins, dtype=np.int64)
        L = np.zeros(grid.num_bins, dtype=float)
        rho = np.zeros(grid.num_bins, dtype=float)
        phi_occ = np.where(exact, stats.phi, stats.phi * scale)
        phi[occupied], kbins[occupied], L[occupied] = phi_occ, stats.counts, stats.L
        ell = np.minimum(kbins, n)
        rho[occupied] = np.where(occupied <= 1,
                                 (n * phi_occ - stats.L) / (n * ell[occupied]),
                                 phi_occ / stats.counts)
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


def _dyadic_sum(xs) -> tuple[int, int]:
    """Exact (num, s) with sum(xs) = num / 2**s and s >= 0, for finite floats
    xs >= 0."""
    parts = [_dyadic(x) for x in xs if x]
    s = max([0] + [shift for _, shift in parts])
    return sum(num << (s - shift) for num, shift in parts), s


class _Steps:
    """Incremental event table of one stream, shared by encode and decode.

    At every state the positive-probability events are the re-occurrences of
    the known indices (in index order, weight rho of the index's bin) followed
    by one first occurrence per bin with positive remaining mass (in bin
    order).  Every weight is an integer over one stream-wide 2**S, S being the
    largest dyadic shift among the model's positive phi_b and rho_b; this is
    exact, as fl(phi_b - fl(seen * rho_b)) is a multiple of 2**-S (rounding
    never adds fraction bits).  ``den`` holds the state's denominator
    max(2**S, weight total) as (a, e), a odd, den = a * 2**e: (1, S) whenever
    the weights total at most 1, None when no event has positive probability.
    The table keeps ``starts``, the prefix sums of the re-occurrence weights
    over the indices; ``fresh``, the first-occurrence weight of each bin that
    still has one, and their sum ``fresh_total``, so a new index changes one
    bin's weight; and ``maps``, each re-occurrence's step map while ``den``
    stays the same.
    """

    def __init__(self, model: CoderModel):
        self.phi, self.rho = model.phi, model.rho
        self.S = max([0] + [_dyadic(x)[1] for x in (*self.phi, *self.rho) if x > 0.0])
        self.rate = [self._scaled(r) if r > 0.0 else 0 for r in self.rho]
        self.starts = [0]
        self.state = CoderState()
        # a bin's mass never exceeds phi_b, so only bins with phi_b > 0 can hold one
        self.fresh = {b: self._scaled(x) for b, x in enumerate(self.phi) if x > 0.0}
        self.fresh_total = sum(self.fresh.values())
        self.den, self.maps = None, {}
        self._weigh()

    def _scaled(self, x: float) -> int:
        """x * 2**S, an integer for every weight of the stream."""
        num, shift = _dyadic(x)
        return num << (self.S - shift)

    def _weigh(self) -> None:
        total = self.starts[-1] + self.fresh_total
        if total <= 1 << self.S:
            den = (1, self.S) if total else None
        else:
            zeros = (total & -total).bit_length() - 1
            den = total >> zeros, zeros
        if den != self.den:
            self.den, self.maps = den, {}

    def _map(self, cum: int, w: int) -> tuple[int, int, int, int]:
        """The step map (a, e, cum, w) of an event at this state, without the
        power of two common to 2**e, cum and w: the same rationals cum/den and
        w/den over a smaller denominator."""
        a, e = self.den
        x = cum | w | 1 << e
        g = (x & -x).bit_length() - 1
        return a, e - g, cum >> g, w >> g

    def _reoccurrence(self, p: int, b: int) -> tuple[int, int, int, int]:
        """Step map of the re-occurrence of p, in bin b, kept in ``maps``."""
        self.maps[p] = self._map(self.starts[p - 1], self.rate[b])
        return self.maps[p]

    def locate(self, p: int, b: int) -> tuple[int, int, int, int] | None:
        """Step map of the event (p, b), or None if it has probability 0."""
        m = self.state.max_index
        if 1 <= p <= m:
            if self.state.index_to_bin[p] != b or not self.rate[b]:
                return None
            return self.maps.get(p) or self._reoccurrence(p, b)
        if p == m + 1:
            cum = self.starts[-1]
            for fb, w in self.fresh.items():
                if fb == b:
                    return self._map(cum, w)
                cum += w
        return None

    def find(self, t: int) -> tuple[int, int, int, int, tuple] | None:
        """(p, b, start, weight, step map) of the event whose span holds t, or
        None if t is at or beyond the weight total."""
        cum = self.starts[-1]
        if t < cum:
            p = bisect_right(self.starts, t)
            b = self.state.index_to_bin[p]
            return (p, b, self.starts[p - 1], self.rate[b],
                    self.maps.get(p) or self._reoccurrence(p, b))
        for b, w in self.fresh.items():
            if t < cum + w:
                return self.state.max_index + 1, b, cum, w, self._map(cum, w)
            cum += w
        return None

    def update(self, p: int, b: int) -> None:
        """Record the step (p, b), which must be an event of this state."""
        if p <= self.state.max_index:
            return
        self.state.update(p, b)
        mass = self.phi[b] - self.state.seen_per_bin[b] * self.rho[b]
        w = self._scaled(mass) if mass > 0.0 else 0
        self.fresh_total += w - self.fresh[b]
        if w:
            self.fresh[b] = w
        else:
            del self.fresh[b]
        self.starts.append(self.starts[-1] + self.rate[b])
        self._weigh()


def _check_cap(n: int) -> None:
    if n > CODER_N_CAP:
        raise ResourceCapError(
            f"sequence length {n} exceeds the exact coder's cap CODER_N_CAP ({CODER_N_CAP})")


def _precision(L: int, clb: int, n: int) -> int:
    """Fractional bits decode keeps in its offset once at least clb bits of
    an L-bit stream of n symbols are coded."""
    return max(L - clb, 0) + n.bit_length() + 2


def _fold(steps: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """Interval (low, width, a, e) after the steps (a, e, cum, w), from [0, 1);
    the interval is [low/P, (low+width)/P) with P = a * 2**e.

    A step of denominator den = a * 2**e maps [low/P, (low+width)/P) to
    low' = low*den + cum*width, width' = width*w, P' = P*den.  A run of steps
    is one such map (a, e, B, W): low' = low*a*2**e + width*B,
    width' = width*W, P' = P*a*2**e; two runs compose as
    (a1*a2, e1+e2, (B1*a2)*2**e2 + W1*B2, W1*W2), so a power-of-two
    denominator (a = 1) costs a shift, not a multiplication.  Composing
    neighbours level by level keeps the two factors of every product about
    equally long, so no step's small integers are multiplied into a number as
    long as the whole interval.
    """
    segs = steps
    while len(segs) > 1:
        odd = segs[-1:] if len(segs) % 2 else []
        segs = [(a1 * a2, e1 + e2, ((b1 * a2) << e2) + w1 * b2, w1 * w2)
                for (a1, e1, b1, w1), (a2, e2, b2, w2) in zip(segs[::2], segs[1::2])] + odd
    a, e, low, width = segs[0]
    return low, width, a, e


def _emit(low: int, width: int, a: int, e: int) -> Bitstring:
    """Canonical dyadic of [low/P, (low+width)/P) with P = a * 2**e: the
    smallest length L with width * 2**(L-1) >= P, and the code point
    c = ceil(low * 2**L / P).

    L comes from bit lengths: width << d has P's bit length for
    d = P.bit_length() - width.bit_length(), so the smallest shift m with
    width << m >= P is d or d + 1 (0 when width >= P).  The code point is
    ceil(ceil(low * 2**L / 2**e) / a): a shift, then a division by a, which
    is 1 for a power-of-two P."""
    P = a << e
    m = max(P.bit_length() - width.bit_length(), 0)
    if (width << m) < P:
        m += 1
    L = m + 1
    scaled = low << (L - e) if L >= e else -(-low >> (e - L))
    c_num = -(-scaled // a)
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
    maps = []
    for j, (p, b) in enumerate(zip(psi, beta)):
        target = steps.locate(p, b)
        if target is None:
            raise ValueError(f"zero-probability step at position {j}: ({p}, {b})")
        maps.append(target)
        steps.update(p, b)
    return _emit(*_fold(maps))


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
    # X / 2**K is the code point's offset inside the current interval, as a
    # fraction of its width: exact at the start and rounded up once a step,
    # so never too low.  Step j's division also drops the bits that
    # K = _precision(L, clb, n) no longer holds, clb <= cl_j being a lower
    # bound on the first j steps' codelength: a step costs log2(a * 2**e / w)
    # bits, at least 0 and at least e + bit_length(a) - 1 - bit_length(w - 1).
    # Its rounding moves the code point's estimate by less than
    # 2**-(K + cl_j) <= 2**-(L + bit_length(n) + 2), so all n of them by less
    # than 2**-(L + 2).  On a canonical stream the code point lies more than
    # 2**-L below the end of the final interval (c < low * 2**L / P + 1 and
    # width * 2**L >= 2 * P), so every decision is exact.  Any other stream
    # fails the final comparison with what encode emits.
    K = _precision(L, 0, n)
    X = bits._value() << (K - L)
    steps = _Steps(model)
    psi, beta, maps, clb = [], [], [], 0
    for j in range(n):
        if steps.den is None:
            raise ValueError(f"no event has positive probability at position {j}")
        a, e = steps.den
        X = (X * a if a > 1 else X) << e
        event = steps.find(X >> K)
        if event is None:
            raise DecodeError("code point escapes every event interval")
        p, b, cum, w, step_map = event
        cost = e - (w - 1).bit_length() + (a.bit_length() - 1 if a > 1 else 0)
        if cost > 0:
            clb += cost
        K1 = _precision(L, clb, n)
        X = -(((cum << K) - X) // (w << (K - K1)))
        K = K1
        maps.append(step_map)
        psi.append(p)
        beta.append(b)
        steps.update(p, b)
    if _emit(*_fold(maps)) != bits:
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
