"""Pattern extraction, enumeration, and exact pattern probabilities.

A pattern replaces each symbol of a sequence by the order of its first
occurrence, producing a restricted growth string: the first entry is 1 and
every entry is at most one larger than the running maximum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._common import ResourceCapError
from .distributions import ParamVector
from .grids import Grid, bin_index

ENUMERATION_CAP = 10_000_000
INJECTION_K_CAP = 12

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
    for sym in x:
        key = sym.item() if isinstance(sym, np.generic) else sym
        if key not in seen:
            seen[key] = len(seen) + 1
        out.append(seen[key])
    return Pattern(tuple(out))


def count_patterns(n: int, k: int) -> int:
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


def enumerate_patterns(n: int, k: int, cap: int = ENUMERATION_CAP) -> Iterator[Pattern]:
    """All restricted growth strings of length n with at most k distinct indices.

    Lexicographic order; the stream is deterministic so golden tests stay
    stable.  Raises ResourceCapError if the count exceeds ``cap``.
    """
    total = count_patterns(n, k)
    if total > cap:
        raise ResourceCapError(f"{total} patterns exceed the enumeration cap ({cap})")
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


def pattern_probability(theta: ParamVector, psi: Pattern | Sequence[int]) -> float:
    """Probability that n i.i.d. draws from ``theta`` produce pattern ``psi``.

    P(psi) is a sum over injections of the pattern's indices into the
    alphabet, and it depends only on how many indices land in each
    (value, count) group of ``theta``.  A DP places the indices one at a time;
    its state is the number of letters of each group already used.  Placing
    an index that occurs n_j times in group g, with c_g of its k_g letters
    taken, multiplies by (k_g - c_g) * v_g**n_j.  Each layer's merged states
    are summed with compensated accumulation (fsum): the terms mix magnitudes
    badly.

    There are at most prod_g(min(k_g, m) + 1) <= 2**k states, so a pattern
    costs O(m * states * G): O(m) for a uniform source, where the DP yields
    k!/(k-m)! * k**-n.  Only ``theta.values`` and ``theta.counts`` are read.
    """
    if not isinstance(psi, Pattern):
        psi = Pattern(tuple(psi))
    k = theta.k
    m = psi.m
    if m > k:
        warnings.warn(f"pattern needs {m} distinct letters but the alphabet has {k}; probability 0")
        return 0.0
    if k > INJECTION_K_CAP:
        raise ResourceCapError(f"injection sum is guarded to k <= {INJECTION_K_CAP}, got {k}")
    groups = list(theta.groups())
    occ = [0] * m
    for j in psi:
        occ[j - 1] += 1
    layer: dict[tuple[int, ...], float] = {(0,) * len(groups): 1.0}
    for n_j in occ:
        powers = [v ** n_j for v, _ in groups]
        terms: dict[tuple[int, ...], list[float]] = {}
        for used, w in layer.items():
            for g, (_, k_g) in enumerate(groups):
                free = k_g - used[g]
                if free:
                    nxt = used[:g] + (used[g] + 1,) + used[g + 1:]
                    terms.setdefault(nxt, []).append(w * free * powers[g])
        layer = {state: math.fsum(ts) for state, ts in terms.items()}
    return math.fsum(layer.values())


def bin_sequence(theta: ParamVector, grid: Grid, x: Sequence[int]) -> BinSeq:
    """Per-symbol bin indices: entry j is the grid bin of the j-th symbol's probability."""
    letter_bin = bin_index(grid, theta.probs).tolist()
    k = len(letter_bin)
    out = []
    for sym in x:
        s = int(sym)
        if not 1 <= s <= k:
            raise ValueError(f"symbol {s} outside the alphabet 1..{k}")
        out.append(letter_bin[s - 1])
    return tuple(out)
