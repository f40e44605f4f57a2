"""Slow independent routes that the verification suites and the tests cross-check against.

Each function here computes, by brute force, a quantity that a fast path
elsewhere computes another way: letter permutations enumerated one by one,
inclusion-exclusion over letter subsets, and sums over injections of pattern
indices into letters.  They read per-letter probabilities, import nothing
from :mod:`~pattern_entropy.oracle` and never call the profile DP
(:class:`~pattern_entropy.patterns.ProfileProbability`), so the fast paths
they check cannot share their bugs.

All sums over injections go through one memoised kernel, ``_injection_sum``;
:func:`expected_codelength_stepwise` takes every node probability of its
(pattern, bin) prefix-tree walk from it, with one memo for the whole walk,
and :func:`_injection_sum_probability` takes P(psi) from it.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from ._common import ResourceCapError
from .coder import CoderModel, CoderState, next_symbol_prob
from .distributions import ParamVector
from .grids import Grid, bin_index
from .patterns import Pattern

PERMUTATION_K_CAP = 8
INJECTION_TREE_K_CAP = 6
# letter subsets the reference injection sum may memoise
INJECTION_SUBSET_CAP = 1 << 16


def brute_force_permutation_count(bin_assignment) -> int:
    """Number of letter permutations that keep every letter inside its bin.

    ``bin_assignment`` maps letter -> bin (a sequence indexed by letter or a
    dict).  Explicitly enumerates all k! permutations; guarded to k <= 8.
    """
    if isinstance(bin_assignment, dict):
        letters = sorted(bin_assignment)
        bins = [bin_assignment[l] for l in letters]
    else:
        bins = list(bin_assignment)
    k = len(bins)
    if k > PERMUTATION_K_CAP:
        raise ResourceCapError(f"permutation enumeration is guarded to k <= {PERMUTATION_K_CAP}")
    count = 0
    for perm in itertools.permutations(range(k)):
        if all(bins[perm[i]] == bins[i] for i in range(k)):
            count += 1
    return count


def exact_distinct_count_pmf(probs_in_bin, n: int) -> np.ndarray:
    """Exact distribution of the number of distinct listed letters seen in n draws.

    Inclusion-exclusion over subsets of the listed letters (dependence across
    letters is handled exactly); guarded to 16 letters.
    """
    probs = [float(p) for p in probs_in_bin]
    m = len(probs)
    if m > 16:
        raise ResourceCapError("inclusion-exclusion over subsets is guarded to 16 letters")
    pmf = np.zeros(m + 1)
    for appear in range(1 << m):
        size = bin(appear).count("1")
        # P(appear-set exactly the letters flagged in `appear`)
        total = 0.0
        sub = appear
        while True:
            absent_mass = math.fsum(probs[i] for i in range(m) if not sub & (1 << i))
            sign = -1.0 if (size - bin(sub).count("1")) % 2 else 1.0
            total += sign * (1.0 - absent_mass) ** n
            if sub == 0:
                break
            sub = (sub - 1) & appear
        pmf[size] += total
    pmf[np.abs(pmf) < 1e-15] = 0.0
    return pmf


def _injection_sum(probs: list[float], occ: list[int], allowed: list[tuple[int, ...]],
                   memo: dict, j: int = 0, used: int = 0) -> float:
    """Sum over injections l of indices j, j+1, ... into letters outside the
    bitmask ``used``, with l_i in allowed[i], of prod_i probs[l_i] ** occ[i].

    The value depends only on ``used`` and the suffixes occ[j:] and
    allowed[j:], which key ``memo``; so one memo serves every (occ, allowed)
    over the same ``probs``.  Each level is an fsum over allowed[j] in the
    order given.
    """
    if j == len(occ):
        return 1.0
    key = (used, tuple(occ[j:]), tuple(allowed[j:]))
    got = memo.get(key)
    if got is None:
        got = memo[key] = math.fsum(
            probs[i] ** occ[j] * _injection_sum(probs, occ, allowed, memo, j + 1, used | 1 << i)
            for i in allowed[j]
            if not used & 1 << i
        )
    return got


def _injection_sum_probability(theta: ParamVector, psi: Pattern) -> float:
    """P(psi) as the memoised sum over injections of indices into letter subsets.

    The independent slow route for :func:`~pattern_entropy.patterns.pattern_probability`:
    it reads the per-letter probabilities and visits the sum_{j <= m} C(k, j)
    letter subsets of size at most m, guarded to ``INJECTION_SUBSET_CAP``.
    """
    k, m = theta.k, psi.m
    subsets = sum(math.comb(k, j) for j in range(min(k, m) + 1))
    if subsets > INJECTION_SUBSET_CAP:
        raise ResourceCapError(f"{subsets} letter subsets exceed INJECTION_SUBSET_CAP = "
                               f"{INJECTION_SUBSET_CAP}")
    occ = [psi.indices.count(j) for j in range(1, m + 1)]
    return _injection_sum([float(p) for p in theta.probs], occ, [tuple(range(k))] * m, {})


def _subtree_codelength(probs: list[float], bin_letters: dict[int, tuple[int, ...]],
                        model: CoderModel, state: CoderState, occ: list[int],
                        allowed: list[tuple[int, ...]], n: int, memo: dict) -> float:
    """Sum of P(node) * -log2 q(node) over the (pattern, bin) prefix-tree nodes
    below the one whose indices have counts ``occ``, bin letters ``allowed``
    and coder ``state``; all three are restored on return.  ``memo`` is the
    injection-sum memo shared by every node of the walk."""
    depth, m = sum(occ), len(occ)
    if depth == n:
        return 0.0
    total = 0.0
    steps = [(j, state.index_to_bin[j]) for j in range(1, m + 1)]
    steps += [(m + 1, b) for b in bin_letters]
    for idx, b in steps:
        new = idx > m
        if new:
            occ.append(1)
            allowed.append(bin_letters[b])
        else:
            occ[idx - 1] += 1
        p = _injection_sum(probs, occ, allowed, memo)
        if p > 0.0:
            q = next_symbol_prob(model, state, idx, b)
            bits = -math.log2(q) if q > 0.0 else math.inf
            if q <= 0.0:
                warnings.warn(f"zero-probability step at position {depth}")
            state.update(idx, b)
            total += p * bits + _subtree_codelength(probs, bin_letters, model, state, occ,
                                                    allowed, n, memo)
            if new:
                state.pop_index()
        if new:
            occ.pop()
            allowed.pop()
        else:
            occ[idx - 1] -= 1
    return total


def expected_codelength_stepwise(theta: ParamVector, grid: Grid, n: int,
                                 model: CoderModel | None = None) -> float:
    """E[-log2 Q] summed per step over the joint prefix tree.

    Node probabilities are injection sums constrained to bin-consistent
    letters, so this is an independent computation path from the per-bin
    sums in :func:`~pattern_entropy.oracle.exact_entropies`.  A step of
    positive probability that the coder gives probability 0 makes the result
    inf, with a warning.
    """
    k = theta.k
    if k > INJECTION_TREE_K_CAP:
        raise ResourceCapError(f"prefix-tree injections are guarded to k <= {INJECTION_TREE_K_CAP}")
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    probs = [float(p) for p in theta.probs]
    bin_letters: dict[int, tuple[int, ...]] = {}
    for letter, b in enumerate(bin_index(grid, probs).tolist()):
        bin_letters[b] = bin_letters.get(b, ()) + (letter,)
    return _subtree_codelength(probs, bin_letters, model, CoderState(), [], [], n, {})
