"""Patterns, their profiles, and exact pattern probabilities.

A pattern replaces each symbol of a sequence by the order of its first
occurrence, producing a restricted growth string: the first entry is 1 and
every entry is at most one larger than the running maximum.

The probability of a pattern depends only on its profile {mu_c}, where mu_c
indices occur exactly c times; the profiles of length-n patterns are the
integer partitions of n.  ``ProfileProbability(theta)(parts)`` is the one
route to ln P: ``parts`` are the pattern's occurrence counts, a partition of
n in any order.  A one-group source (k letters of value v) gives the closed
form ln (k)_m + n ln v of the number m of counts; more groups fold the
groups' generating function in log space, or run a log-space DP over the
distinct counts where that costs less.  Either way ln P never underflows
and the per-letter probabilities are never read.  ln P is -inf for more
counts than letters, 0.0 for the profile [1], and never above 0.0.
:func:`enumerate_partitions` lists the profiles.
Enumerating the patterns themselves (:func:`enumerate_patterns`) is kept as
the reference route.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from ._common import ResourceCapError, ln_factorial
from .distributions import ParamVector
from .grids import Grid, bin_index

ENUMERATION_CAP = 10_000_000
# DP transitions of one ProfileProbability over all its calls (see its
# budget), 1-5 us each (Python 3.11, 2-vCPU Xeon).  The fold of W charges a
# part 2G + 1, about one per numpy call it makes, and FOLD_TERMS cell-terms
# one more, a term costing 7-13 ns: 1.3-2 us a transition on the exact walks
# and Monte Carlo profiles of the two-level sources
PROFILE_DP_CAP = 1_000_000
FOLD_TERMS = 200

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
    def walk():
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
    return walk()


def _partition_counts(n: int, max_parts: int) -> list[int]:
    """Entry j <= n is the number of partitions of j into at most ``max_parts``
    parts; once entry n passes ``ENUMERATION_CAP`` all stop at partial counts."""
    ways = [1] + [0] * n
    for part in range(1, min(max_parts, n) + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
        if ways[n] > ENUMERATION_CAP:
            break
    return ways


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
    total = _partition_counts(n, max_parts)[n]
    if total > ENUMERATION_CAP:
        raise ResourceCapError(f"{total} or more partitions exceed the enumeration cap "
                               f"({ENUMERATION_CAP})")
    def walk():
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
    return walk()


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
    the same, bit for bit, for every order of them and every history of
    calls.  It is -inf when there are more counts than ``theta`` has letters,
    never above 0.0, and 0.0 for the profile [1] (P = 1) on every source.

    One group (k letters of value v) gives every pattern with m distinct
    indices P = (k)_m v**n, so the call returns ln (k)_m + n ln v with no
    work to count: the DP's last-group step alone, with its bits.

    More groups take one of two routes, chosen before any work from the
    counts alone, so that the choice, and with it the bits, never depends
    on earlier calls:

    - the fold of W (:meth:`_fold`).  Give each of the m parts c_j a group;
      group g taking A_g of them can place them on its letters in (k_g)_A_g
      ways, so P = sum_A prod_g (k_g)_A_g [x^A] W(x) with
      W(x) = prod_j (v_b**c_j + sum_{g != b} v_g**c_j x_g), the base group b
      being one of most letters, which takes the A_b = m - sum A_g parts
      left.  The parts are folded in ascending order into log-space cells
      A_g <= min(k_g, j), one C-ordered array per prefix with an axis per
      group but b, by one numpy log-add-exp per axis and part.  The last
      part is folded into the weights prod_g (k_g)_A_g instead
      (:meth:`_closing`), and ln P is the log-sum-exp of cells plus weights.
      The object keeps the cells of the last folded prefix after every part
      j that isqrt(j) divides and after the last isqrt(m) + 1 parts, at most
      4 isqrt(m) + 2 arrays, so consecutive profiles fold only their changed
      tail;
    - the DP over the groups (:meth:`_dp`), whose state is the number of
      still-unplaced indices of each distinct count c, at most
      prod_c(mu_c + 1) states.  Group g (value v_g, k_g letters) takes a_c of
      the r_c remaining count-c indices, A = sum_c a_c of them in all, and
      multiplies by prod_c C(r_c, a_c) * (k_g)_A * v_g**(sum_c c * a_c); the
      last group takes every remaining index.  Terms meeting in a state are
      summed in log space (log-sum-exp with fsum), and ln C(r_c, a_c) comes
      from a memoised table of ln i!, summed over c in ascending order.

    Either way no probability underflows, and the falling factorials are
    exact integers before their one log, memoised.  Both routes charge
    ``budget``, the work left to this object over all its calls
    (``PROFILE_DP_CAP`` DP transitions at first), and raise
    ResourceCapError naming ``PROFILE_DP_CAP`` rather than pass it.  The DP
    counts a transition per (state, take) pair and one per state for the
    last group, as it makes them.  The fold charges each part it folds
    2G + 1 transitions, G being the number of groups, and one more per
    ``FOLD_TERMS`` cell-terms (G per cell), and a call its weighing as one
    part more; the charge is counted in Python ints and checked before any
    array is allocated.  The fold is taken when its whole charge from no stored
    cells is at most ``PROFILE_DP_CAP`` and its parts' charge at most an
    exact-integer bound on the DP's transitions (:meth:`_dp_bound`).
    """

    def __init__(self, theta: ParamVector):
        groups = [(math.log(v), k_g) for v, k_g in theta.groups()]
        self._groups, self._last = groups[:-1], groups[-1]  # (ln v_g, k_g); the last takes the rest
        self._k = sum(k_g for _, k_g in groups)
        # k_g -> (ln (k_g)_A for A < len, the exact (k_g)_len that extends it)
        self._log_falling: dict[int, tuple[list[float], int]] = {}
        self._ln_fact: list[float] = []
        self.budget = PROFILE_DP_CAP
        base = max(range(len(groups)), key=lambda g: groups[g][1])
        self._base = groups[base]
        self._axes = groups[:base] + groups[base + 1:]
        self._charges = [0]  # entry j: the fold's charge for parts 1..j, from no layer
        self._parts: list[int] = []  # the folded prefix, ascending
        self._layers: list = [np.zeros(1)]  # entry j: W's cells after parts 1..j, or None
        self._loose: deque[int] = deque()  # stored layers no isqrt divides, ascending
        self._weights: dict[int, np.ndarray] = {}  # m -> ln prod_g (k_g)_A_g of each cell
        self._plans: list[tuple] = []  # entry j: _plan(j)
        self._shapes: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}  # see _weigh
        self._closings: dict[tuple[int, int], np.ndarray] = {}  # (m, c) -> _closing(m, c)

    def __call__(self, parts: Sequence[int]) -> float:
        m = len(parts)
        if m > self._k:
            return -math.inf
        if m == 1 and parts[0] == 1:
            return 0.0  # P([1]) = 1, which every route may round
        if not self._groups:
            lv, k = self._last  # the float operations of the DP's last-group step
            log_p = self._falling(k, m)[m] + sum(parts) * lv + 0.0
        elif self._charge(m + 1) <= PROFILE_DP_CAP and self._charges[m] <= self._dp_bound(parts):
            log_p = self._fold(sorted(parts))
        else:
            log_p = self._dp(parts)
        return min(log_p, 0.0)

    def _charge(self, m: int) -> int:
        """The fold's charge for parts 1..m from no stored cells: 2G + 1 a
        part, and its cell-terms, G per cell, one per ``FOLD_TERMS``.  It is
        not counted past the first charge over ``PROFILE_DP_CAP``, which is
        returned for every longer prefix: no such prefix is folded."""
        groups = len(self._axes) + 1
        for j in range(len(self._charges), m + 1):
            if self._charges[-1] > PROFILE_DP_CAP:
                return self._charges[-1]
            cells = math.prod(min(k_g, j) + 1 for _, k_g in self._axes)
            self._charges.append(self._charges[-1] + 2 * groups + 1 + groups * cells // FOLD_TERMS)
        return self._charges[m]

    def _dp_bound(self, parts: Sequence[int]) -> int:
        """At least the transitions :meth:`_dp` makes on ``parts``.  The first
        K letters take, and so reach, at most N(K) = min(S, (d + 1)**K) of the
        S = prod_c(mu_c + 1) states, d being the number of distinct counts: at
        most C(K + d, d) <= (d + 1)**K takes a <= mu sum to K or less.  Each
        group g but the last makes at most N(k_g) takes from each of the
        N(k_1 + ... + k_{g-1}) states it meets, and the last group one per
        state it meets."""
        ways = [parts.count(c) + 1 for c in set(parts)]  # mu_c + 1
        d, states = len(ways), math.prod(ways)
        top = states.bit_length()  # (d + 1)**top > S, so N(K) = min(S, (d + 1)**min(K, top))
        bound, reach, before = 0, 1, 0
        for _, k_g in self._groups:
            bound += reach * min(states, (d + 1) ** min(k_g, top))
            before += k_g
            reach = min(states, (d + 1) ** min(before, top))
        return bound + reach

    def _fold(self, parts: list[int]) -> float:
        """ln P of the ascending ``parts`` from W's cells, folding only the
        parts past the longest prefix whose layer is stored."""
        m = len(parts)
        p = 0
        for a, b in zip(parts, self._parts):
            if a != b:
                break
            p += 1
        p = min(p, m - 1)
        while self._layers[p] is None:
            p -= 1
        charge = self._charge(m + 1) - self._charges[p]  # its weighing: one part more
        if charge > self.budget:
            raise self._over_cap("fold of W")
        self.budget -= charge
        del self._parts[p:], self._layers[p + 1:]
        while self._loose and self._loose[-1] > p:
            self._loose.pop()
        window = math.isqrt(m) + 1
        layer = self._layers[p]
        for j in range(p + 1, m):
            layer = self._fold_part(layer, j, parts[j - 1])
            self._parts.append(parts[j - 1])
            self._layers.append(layer)
            if j % math.isqrt(j):
                self._loose.append(j)
            while self._loose and self._loose[0] < j - window:
                self._layers[self._loose.popleft()] = None
        return _log_sum_exp((layer + self._closing(m, parts[-1])).tolist())

    def _plan(self, j: int) -> tuple:
        """(shape before part j, shape after it, the old cells' box in the new
        shape, the new cells outside it, and per axis the (cells, sources) of
        its shift), memoised by j."""
        while len(self._plans) <= j:
            i = len(self._plans)
            was, now = (tuple(min(k_g, t) + 1 for _, k_g in self._axes) for t in (i - 1, i))
            box = tuple(map(slice, was))
            fresh = [(slice(None),) * g + (slice(s, None),) for g, s in enumerate(was) if s < now[g]]
            shifts = [(box[:g] + (slice(1, top + 1),) + box[g + 1:],
                       box[:g] + (slice(top),) + box[g + 1:])
                      for g, top in enumerate(map(min, was, (s - 1 for s in now)))]
            self._plans.append((was, now, box, fresh, shifts))
        return self._plans[j]

    def _fold_part(self, old: np.ndarray, j: int, c: int) -> np.ndarray:
        """W's cells after part j, of count c, from those after part j - 1:
        cell A takes v_b**c times its old value, then v_g**c times that of
        A - e_g for each axis g in order, added in log space."""
        was, now, box, fresh, shifts = self._plan(j)
        src = old.reshape(was)
        if was == now:
            new = old + c * self._base[0]
            cells = new.reshape(now)
        else:
            new = np.empty(math.prod(now))
            cells = new.reshape(now)
            np.add(src, c * self._base[0], out=cells[box])
            for outside in fresh:
                cells[outside] = -math.inf
        for (lv, _), (to, frm) in zip(self._axes, shifts):
            into = cells[to]
            np.logaddexp(into, src[frm] + c * lv, out=into)
        return new

    def _closing(self, m: int, c: int) -> np.ndarray:
        """The weights of the cells after m - 1 parts that fold in a last
        part of count c: ln(v_b**c w(A) + sum_g v_g**c w(A + e_g)), w being
        :meth:`_weigh`'s, so ln P = ln sum_A exp(cells(A) + this(A)) and the
        last part is never folded.  Memoised by (m, c)."""
        if (m, c) not in self._closings:
            was, now, box, _, shifts = self._plan(m)
            weights = self._weigh(m).reshape(now)
            closing = weights[box] + c * self._base[0]
            for (lv, _), (to, frm) in zip(self._axes, shifts):
                into = closing[frm]
                np.logaddexp(into, weights[to] + c * lv, out=into)
            self._closings[m, c] = closing.ravel()
        return self._closings[m, c]

    def _weigh(self, m: int) -> np.ndarray:
        """ln prod_g (k_g)_A_g of each cell after m parts, A_b = m - sum A_g
        for the base; -inf where A_b is not in 0..k_b.  Memoised by m, and
        the axes' part by the cells' shape."""
        if m not in self._weights:
            shape = self._plan(m)[1]
            if shape not in self._shapes:  # (ln prod_{g != b} (k_g)_A_g, sum A_g) of each cell
                ln, taken = np.zeros(1), np.zeros(1, dtype=np.int64)
                for (_, k_g), s in zip(self._axes, shape):
                    ln = np.add.outer(ln, self._falling(k_g, s - 1)[:s]).ravel()
                    taken = np.add.outer(taken, np.arange(s)).ravel()
                self._shapes[shape] = ln, taken
            ln, taken = self._shapes[shape]
            k_b, most = self._base[1], int(taken[-1])
            base = np.full(m + most + 1, -math.inf)  # entry most + A: ln (k_b)_A
            base[most:most + min(k_b, m) + 1] = self._falling(k_b, min(k_b, m))[:min(k_b, m) + 1]
            self._weights[m] = ln + base[most + m - taken]
        return self._weights[m]

    def _ln_factorials(self, most: int) -> list[float]:
        """ln i! for i = 0, 1, ..., at least up to ``most``."""
        if len(self._ln_fact) <= most:
            self._ln_fact.extend(map(ln_factorial, range(len(self._ln_fact), most + 1)))
        return self._ln_fact

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
        lf = self._ln_factorials(max(r))
        moves = [((), 0, 0, 0.0)]
        for c, r_c in zip(cs, r):
            if sum(min(r_c, most - a) + 1 for _, a, _, _ in moves) > budget:
                raise self._over_cap()
            moves = [(nxt + (r_c - x,), a + x, e + c * x, lb + (lf[r_c] - lf[x] - lf[r_c - x]))
                     for nxt, a, e, lb in moves for x in range(min(r_c, most - a) + 1)]
        return moves

    def _dp(self, parts: Sequence[int]) -> float:
        cs = tuple(sorted(set(parts)))
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
                    moves[key] = self._moves(cs, *key, self.budget - work)
                work += len(moves[key])
                if work > self.budget:
                    raise self._over_cap()
                for nxt, a, e, lb in moves[key]:
                    t = w + lb + falling[a] + e * lv
                    if nxt in terms:
                        terms[nxt].append(t)
                    else:
                        terms[nxt] = [t]
            layer = {r: _log_sum_exp(ts) for r, ts in terms.items()}
        if work + len(layer) > self.budget:
            raise self._over_cap()
        self.budget -= work + len(layer)
        lv, k_g = self._last
        falling = self._falling(k_g, min(k_g, m))
        return _log_sum_exp([w + falling[a] + sum(map(mul, cs, r)) * lv
                             for r, w in layer.items() if (a := sum(r)) <= k_g])

    def _over_cap(self, route: str = "profile DP") -> ResourceCapError:
        return ResourceCapError(f"the {route} over {len(self._groups) + 1} groups passed "
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
