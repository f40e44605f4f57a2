"""Patterns, their profiles, and exact pattern probabilities.

A pattern replaces each symbol of a sequence by the order of its first
occurrence, producing a restricted growth string: the first entry is 1 and
every entry is at most one larger than the running maximum.

The probability of a pattern depends only on its profile {mu_c}, where mu_c
indices occur exactly c times; the profiles of length-n patterns are the
integer partitions of n.  ``ProfileProbability(theta)(parts)`` is the one
route to ln P: ``parts`` are the pattern's occurrence counts, a partition of
n in any order.  A one-group source (k letters of value v) gives the closed
form ln (k)_m + n ln v of the number m of counts; more groups run a
log-space DP over the source's probability groups.  Either way ln P never
underflows and the per-letter probabilities are never read.
:func:`enumerate_partitions` lists the profiles.
Enumerating the patterns themselves (:func:`enumerate_patterns`) is kept as
the reference route.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from ._common import ResourceCapError
from .distributions import ParamVector
from .grids import Grid, bin_index

ENUMERATION_CAP = 10_000_000
# transitions of one profile DP (see ProfileProbability)
PROFILE_DP_CAP = 1_000_000

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
    """ln sum_i exp(terms[i]), the exponentials scaled by the largest and summed with fsum.

    One term comes back as ``terms[0] + 0.0``, the bits the scaled route gives
    it (exp(0) = 1, fsum([1.0]) = 1.0 and ln 1.0 = 0.0), with no exp or log.
    """
    if len(terms) == 1:
        return terms[0] + 0.0
    top = max(terms, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum([math.exp(t - top) for t in terms]))


class ProfileProbability:
    """ln P(psi) of a pattern from its occurrence counts, under one source.

    The one route from a profile to ln P.  Call with ``parts``, a list or
    tuple of the pattern's occurrence counts (index j occurs parts[j] times,
    in any order; they sum to n).  P(psi) depends on psi only through these
    counts (Orlitsky, Santhanam and Zhang, IEEE T-IT 2004), and the value is
    the same, bit for bit, for every order of them.  It is -inf when there
    are more counts than ``theta`` has letters, and never above 0.0.

    The route is chosen once, from the number of groups of ``theta``.  One
    group (k letters of value v) gives every pattern with m distinct indices
    the same P = (k)_m v**n, so the call returns :meth:`log_q` of n and
    m = len(parts), with no DP and no cap.  Two or more groups run the DP
    below.

    The distinct counts c, in order of first appearance, and the number mu_c
    of indices that occur each of them form the profile.  The DP runs over the
    groups of ``theta``; its state is the number of still-unplaced indices of
    each count, at most prod_c(mu_c + 1) states.  Group g (value v_g, k_g
    letters) takes a_c of the r_c remaining count-c indices, A = sum_c a_c of
    them in all, and multiplies by prod_c C(r_c, a_c) * (k_g)_A *
    v_g**(sum_c c * a_c): the ways to choose the indices, to inject them into
    the group's letters, and their probability.  The last group takes every
    remaining index.  Terms meeting in a state are summed in log space
    (log-sum-exp with fsum), so no probability underflows.  The binomial and
    falling-factorial factors are exact integers before their one log;
    falling factorials are memoised.

    The DP counts its transitions as it makes them, one per (state, take)
    pair and one per state for the last group, and raises ResourceCapError
    naming ``PROFILE_DP_CAP`` once they pass it.
    """

    def __init__(self, theta: ParamVector):
        groups = [(math.log(v), k_g) for v, k_g in theta.groups()]
        self._groups, self._last = groups[:-1], groups[-1]  # (ln v_g, k_g); the last takes the rest
        # k_g -> (ln (k_g)_A for A < len, the exact (k_g)_len that extends it)
        self._log_falling: dict[int, tuple[list[float], int]] = {}
        self._route = self._dp if self._groups else self._one_group

    def __call__(self, parts: Sequence[int]) -> float:
        return self._route(parts)

    def log_q(self, n: int, m: int) -> float:
        """ln q_m = ln (k)_m + n ln v, the ln P of every length-n pattern with m
        distinct indices when ``theta`` is one group (k letters of value v);
        -inf when m > k.

        The float operations are those of the DP's last-group step, so the
        bits are the same; the trailing ``+ 0.0`` is its log-sum-exp's, which
        turns -0.0 into 0.0.  Both cut a value above 0 to 0.0: P <= 1, and
        only rounding puts ln P above 0 (ln 10 + ln 0.1 = 4.4e-16).
        """
        lv, k = self._last
        if m > k:
            return -math.inf
        return min(self._falling(k, m)[m] + n * lv + 0.0, 0.0)

    def _one_group(self, parts: Sequence[int]) -> float:
        return self.log_q(sum(parts), len(parts))

    def _falling(self, k_g: int, most: int) -> list[float]:
        """ln (k_g)_A for A = 0, 1, ..., at least up to ``most``, from exact integers."""
        table, perm = self._log_falling.get(k_g, ([], 1))
        if len(table) <= most:
            for a in range(len(table), most + 1):
                table.append(math.log(perm))
                perm *= k_g - a
            self._log_falling[k_g] = table, perm
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

    def _dp(self, parts: Sequence[int]) -> float:
        cs = tuple(dict.fromkeys(parts))
        start = tuple(map(parts.count, cs))
        m = len(parts)
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
        return min(_log_sum_exp([w + falling[a] + sum(map(mul, cs, r)) * lv
                                 for r, w in layer.items() if (a := sum(r)) <= k_g]), 0.0)

    def _over_cap(self) -> ResourceCapError:
        return ResourceCapError(f"the profile DP over {len(self._groups) + 1} groups passed "
                                f"PROFILE_DP_CAP = {PROFILE_DP_CAP} transitions")


def pattern_probability(theta: ParamVector, psi: Pattern | Sequence[int]) -> float:
    """Probability that n i.i.d. draws from ``theta`` produce pattern ``psi``.

    The exponential of :class:`ProfileProbability` at the pattern's
    occurrence counts: k!/(k-m)! * k**-n for a uniform source, in closed
    form.
    """
    if not isinstance(psi, Pattern):
        psi = Pattern(tuple(psi))
    m = psi.m
    if m > theta.k:
        warnings.warn(f"pattern needs {m} distinct letters but the alphabet has {theta.k}; "
                      "probability 0")
        return 0.0
    return math.exp(ProfileProbability(theta)(list(Counter(psi).values())))


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
