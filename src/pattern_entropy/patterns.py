"""Patterns, their profiles, and exact pattern probabilities.

A pattern replaces each symbol of a sequence by the order of its first
occurrence, producing a restricted growth string: the first entry is 1 and
every entry is at most one larger than the running maximum.

The probability of a pattern depends only on its profile {mu_c}, where mu_c
indices occur exactly c times; the profiles of length-n patterns are the
integer partitions of n.  :class:`ProfileProbability` computes ln P from a
profile with a log-space DP over the source's probability groups, so it
never underflows and never reads the per-letter probabilities;
:func:`enumerate_partitions` lists the profiles.  Enumerating the patterns
themselves (:func:`enumerate_patterns`) is kept as the reference route.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._common import ResourceCapError
from .distributions import ParamVector
from .grids import Grid, bin_index

ENUMERATION_CAP = 10_000_000
# transitions of one profile DP (see ProfileProbability)
PROFILE_DP_CAP = 1_000_000
# profiles whose ln P log_profile_probability keeps, for its most recent source
PROFILE_MEMO = 4096

BinSeq = tuple[int, ...]


@dataclass(frozen=True)
class Pattern:
    """A restricted growth string of first-occurrence indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ValueError("pattern must be non-empty")
        if idx[0] != 1:
            raise ValueError("pattern must start at index 1")
        running = 1
        for j in idx[1:]:
            if j < 1 or j > running + 1:
                raise ValueError(f"index {j} violates restricted growth")
            running = max(running, j)
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        """Number of distinct indices."""
        return max(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, item):
        return self.indices[item]

    def __str__(self) -> str:
        if self.m <= 9:
            return "".join(str(i) for i in self.indices)
        return ",".join(str(i) for i in self.indices)


def extract_pattern(x: Sequence) -> Pattern:
    """Pattern of a sequence over any discrete alphabet."""
    if len(x) == 0:
        raise ValueError("cannot extract the pattern of an empty sequence")
    seen: dict = {}
    out = []
    # one tolist() gives an array's symbols as Python scalars at once
    for sym in x.tolist() if isinstance(x, np.ndarray) else x:
        key = sym.item() if isinstance(sym, np.generic) else sym
        if key not in seen:
            seen[key] = len(seen) + 1
        out.append(seen[key])
    return Pattern(tuple(out))


def _count_patterns(n: int, k: int) -> int:
    """Number of length-n restricted growth strings with at most k distinct indices."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    # row[m] = number of strings of the current length with running maximum m
    row = [0] * (k + 1)
    row[1] = 1
    for _ in range(n - 1):
        nxt = [0] * (k + 1)
        for m in range(1, k + 1):
            if row[m] == 0:
                continue
            nxt[m] += row[m] * m
            if m + 1 <= k:
                nxt[m + 1] += row[m]
        row = nxt
    return sum(row)


def enumerate_patterns(n: int, k: int) -> Iterator[Pattern]:
    """All restricted growth strings of length n with at most k distinct indices.

    Lexicographic order; the stream is deterministic so golden tests stay
    stable.  Raises ResourceCapError if the count exceeds ``ENUMERATION_CAP``.
    """
    total = _count_patterns(n, k)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(f"{total} patterns exceed the enumeration cap ({ENUMERATION_CAP})")
    rgs = [1] * n
    top = [1] * n  # top[j] = max(rgs[:j + 1])
    while True:
        yield Pattern(tuple(rgs))
        # the next string raises the last entry that can grow and resets the rest to 1
        j = n - 1
        while j > 0 and rgs[j] >= min(top[j - 1] + 1, k):
            j -= 1
        if j == 0:
            return
        rgs[j] += 1
        top[j] = max(top[j - 1], rgs[j])
        rgs[j + 1:] = [1] * (n - j - 1)
        top[j + 1:] = [top[j]] * (n - j - 1)


def count_partitions(n: int, max_parts: int) -> int:
    """Number of partitions of n into at most ``max_parts`` parts.

    Counts partitions into parts of size at most 1, 2, ..., ``max_parts`` (the
    conjugate count) and stops as soon as a partial count exceeds
    ``ENUMERATION_CAP``, returning that partial count; so a huge count costs
    a few passes over n.
    """
    if n < 0 or max_parts < 0:
        raise ValueError("need n >= 0 and max_parts >= 0")
    ways = [1] + [0] * n
    for part in range(1, min(max_parts, n) + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
        if ways[n] > ENUMERATION_CAP:
            break
    return ways[n]


def enumerate_partitions(n: int, max_parts: int) -> Iterator[list[int]]:
    """Partitions of n >= 1 into at most ``max_parts`` parts, as ascending lists.

    Lexicographic order.  The explicit-stack ascending generator of Kelleher
    and O'Sullivan ("Generating all partitions: a comparison of two
    encodings", 2009), pruned to the part limit: with ``j`` parts fixed it
    yields the one-part and two-part completions itself and descends only
    when three more parts fit.  Raises ResourceCapError if the count exceeds
    ``ENUMERATION_CAP``.
    """
    if n < 1 or max_parts < 1:
        raise ValueError("need n >= 1 and max_parts >= 1")
    total = count_partitions(n, max_parts)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(f"{total} or more partitions exceed the enumeration cap "
                               f"({ENUMERATION_CAP})")
    a = [0] * (n + 1)
    j, y = 1, n - 1
    while j:
        x = a[j - 1] + 1
        j -= 1
        while 2 * x <= y and j + 3 <= max_parts:
            a[j] = x
            y -= x
            j += 1
        if j + 2 <= max_parts:
            while x <= y:
                a[j], a[j + 1] = x, y
                yield a[:j + 2]
                x += 1
                y -= 1
        a[j] = x + y
        y = x + y - 1
        yield a[:j + 1]


def _log_sum_exp(terms: list[float]) -> float:
    """ln sum_i exp(terms[i]), the exponentials scaled by the largest and summed with fsum."""
    top = max(terms, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum([math.exp(t - top) for t in terms]))


class ProfileProbability:
    """ln P(psi) of a pattern from its profile, under one source.

    Call with the profile's distinct occurrence counts ``cs`` and the number
    ``mus`` of indices that occur each of them.  A DP runs over the groups of
    ``theta``; its state is the number of still-unplaced indices of each count,
    at most prod_c(mu_c + 1) states.  Group g (value v_g, k_g letters) takes
    a_c of the r_c remaining count-c indices, A = sum_c a_c of them in all,
    and multiplies by prod_c C(r_c, a_c) * (k_g)_A * v_g**(sum_c c * a_c): the
    ways to choose the indices, to inject them into the group's letters, and
    their probability.  The last group takes every remaining index.  Terms
    meeting in a state are summed in log space (log-sum-exp with fsum), so no
    probability underflows.  The binomial and falling-factorial factors are
    exact integers before their one log; falling factorials are memoised.

    The DP counts its transitions as it makes them, one per (state, take)
    pair and one per state for the last group, and raises ResourceCapError
    naming ``PROFILE_DP_CAP`` once they pass it; one group is one transition,
    whatever k and the profile.
    """

    def __init__(self, theta: ParamVector):
        groups = [(math.log(v), k_g) for v, k_g in theta.groups()]
        self._groups, self._last = groups[:-1], groups[-1]  # (ln v_g, k_g); the last takes the rest
        self._log_falling: dict[int, list[float]] = {}

    def _falling(self, k_g: int, most: int) -> list[float]:
        """ln (k_g)_A for A = 0, 1, ..., at least up to ``most``, from exact integers."""
        table = self._log_falling.setdefault(k_g, [])
        if len(table) <= most:
            perm = math.perm(k_g, len(table))
            for a in range(len(table), most + 1):
                table.append(math.log(perm))
                perm *= k_g - a
        return table

    def _moves(self, cs: tuple[int, ...], r: tuple[int, ...], most: int, budget: int) -> list:
        """(next state, A, sum_c c * a_c, ln prod_c C(r_c, a_c)) of every take
        a <= r of A <= ``most`` indices.  Raises ResourceCapError rather than
        build more than ``budget`` of them."""
        moves = [((), 0, 0, 1)]
        for c, r_c in zip(cs, r):
            if sum(min(r_c, most - a) + 1 for _, a, _, _ in moves) > budget:
                raise self._over_cap()
            moves = [(nxt + (r_c - x,), a + x, e + c * x, ways * math.comb(r_c, x))
                     for nxt, a, e, ways in moves for x in range(min(r_c, most - a) + 1)]
        return [(nxt, a, e, math.log(ways)) for nxt, a, e, ways in moves]

    def __call__(self, cs: Sequence[int], mus: Sequence[int]) -> float:
        cs, start = tuple(cs), tuple(mus)
        m = sum(start)
        layer = {start: 0.0}
        moves: dict = {}
        work = 0  # transitions made
        for lv, k_g in self._groups:
            falling = self._falling(k_g, min(k_g, m))
            terms: dict[tuple[int, ...], list[float]] = {}
            for r, w in layer.items():
                key = (r, min(k_g, sum(r)))
                if key not in moves:
                    moves[key] = self._moves(cs, *key, PROFILE_DP_CAP - work)
                work += len(moves[key])
                if work > PROFILE_DP_CAP:
                    raise self._over_cap()
                for nxt, a, e, lb in moves[key]:
                    t = w + lb + falling[a] + e * lv
                    if nxt in terms:
                        terms[nxt].append(t)
                    else:
                        terms[nxt] = [t]
            layer = {r: _log_sum_exp(ts) for r, ts in terms.items()}
        if work + len(layer) > PROFILE_DP_CAP:
            raise self._over_cap()
        lv, k_g = self._last
        falling = self._falling(k_g, min(k_g, m))
        return _log_sum_exp([w + falling[a] + sum(map(mul, cs, r)) * lv
                             for r, w in layer.items() if (a := sum(r)) <= k_g])

    def _over_cap(self) -> ResourceCapError:
        return ResourceCapError(f"the profile DP over {len(self._groups) + 1} groups passed "
                                f"PROFILE_DP_CAP = {PROFILE_DP_CAP} transitions")


def profile_of(psi: Pattern | Sequence[int]) -> dict[int, int]:
    """The profile {c: mu_c} of a pattern: mu_c indices occur exactly c times."""
    return dict(Counter(Counter(psi).values()))


def profile_vectors(parts: list[int]) -> tuple[list[int], list[int]]:
    """The distinct parts c of a partition, in order of first appearance, and
    their multiplicities mu_c: the profile whose occurrence counts are ``parts``."""
    cs = list(dict.fromkeys(parts))
    return cs, list(map(parts.count, cs))


def log_profile_probability(theta: ParamVector, profile: Mapping[int, int]) -> float:
    """ln P(psi) for any pattern psi with profile {c: mu_c} (see :class:`ProfileProbability`).

    P(psi) depends on psi only through its profile (Orlitsky, Santhanam and
    Zhang, IEEE T-IT 2004).  -inf when the profile has more indices than
    ``theta`` has letters.  Raises ResourceCapError when the DP takes more
    than ``PROFILE_DP_CAP`` transitions.  The DP of the most recent source is
    kept with its last ``PROFILE_MEMO`` values, so a caller that asks again
    for a profile it has seen pays a lookup.
    """
    if any(c < 1 or mu < 0 for c, mu in profile.items()):
        raise ValueError(f"a profile maps counts >= 1 to multiplicities >= 0, got {profile}")
    log_p = _latest_source(theta.values.tobytes(), theta.counts.tobytes())
    return log_p(tuple(profile), tuple(profile.values()))


@lru_cache(maxsize=1)
def _latest_source(values: bytes, counts: bytes):
    """ProfileProbability of the source stored in ``values`` and ``counts``,
    memoised by profile."""
    theta = ParamVector(np.frombuffer(values), np.frombuffer(counts, dtype=np.int64))
    return lru_cache(maxsize=PROFILE_MEMO)(ProfileProbability(theta))


def pattern_probability(theta: ParamVector, psi: Pattern | Sequence[int]) -> float:
    """Probability that n i.i.d. draws from ``theta`` produce pattern ``psi``.

    The exponential of :func:`log_profile_probability` at the pattern's
    profile: k!/(k-m)! * k**-n for a uniform source, one DP transition.
    """
    if not isinstance(psi, Pattern):
        psi = Pattern(tuple(psi))
    m = psi.m
    if m > theta.k:
        warnings.warn(f"pattern needs {m} distinct letters but the alphabet has {theta.k}; "
                      "probability 0")
        return 0.0
    return math.exp(log_profile_probability(theta, profile_of(psi)))


def bin_sequence(theta: ParamVector, grid: Grid, x: Sequence[int]) -> BinSeq:
    """Per-symbol bin indices: entry j is the grid bin of the j-th symbol's probability.

    Symbol s is the s-th letter in ascending order of probability, so it lies
    in the first group whose running letter count reaches s; it takes that
    group's bin, and no per-letter array is built.
    """
    ends = np.cumsum(theta.counts)
    s = np.asarray(x, dtype=np.int64)
    outside = (s < 1) | (s > ends[-1])
    if outside.any():
        raise ValueError(f"symbol {s[outside][0]} outside the alphabet 1..{ends[-1]}")
    group_bin = bin_index(grid, theta.values)
    return tuple(group_bin[np.searchsorted(ends, s, side="left")].tolist())
