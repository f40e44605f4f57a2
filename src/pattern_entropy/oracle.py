"""Ground-truth entropy computations: exact at small scale, Monte Carlo beyond.

Everything here is an independent oracle: exact pattern probabilities and
exhaustive enumeration over raw sequences.  Bound evaluations are validated
against these values.  The slower brute-force routes that cross-check these
oracles live in :mod:`pattern_entropy._reference`.

The pattern side works on profiles, never on patterns: a pattern's
probability depends only on its profile, so :func:`exact_pattern_entropy`
sums over the integer partitions of n, each weighted by its number of
patterns, and :func:`mc_pattern_entropy` reads each sample's profile from
its sorted run lengths.  Both take ln P from one log-space DP per profile
(:class:`~pattern_entropy.patterns.ProfileProbability`).

The raw-sequence enumeration of :func:`exact_entropies` is one depth-first
walk of the k-ary prefix tree of sequences.  Each step extends the
letter-to-index map, the prefix probability, one coder state (updated on
the way down, undone on backtrack) and an integer code of the (pattern, bin)
prefix, one digit per step, that keys the leaf; so every edge costs one
:func:`~pattern_entropy.coder.next_symbol_prob` call on plain floats and
small ints, and no leaf builds a tuple.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import LN2, ResourceCapError, ln_factorial
from .coder import CoderModel, CoderState, next_symbol_prob
from .distributions import ParamVector, iid_entropy, sample_sequence
from .grids import Grid
from .patterns import (ENUMERATION_CAP, ProfileProbability, bin_sequence, enumerate_partitions,
                       profile_vectors)


@dataclass(frozen=True)
class ExactEntropies:
    """Exact block quantities, all in bits."""

    h_x_block: float
    h_pattern: float
    h_joint: float
    expected_codelength: float


def _entropy_of(masses) -> float:
    return -math.fsum(p * math.log2(p) for p in masses if p > 0.0)


def exact_pattern_entropy(theta: ParamVector, n: int) -> float:
    """H(pattern) in bits, summed over the profiles of length-n patterns.

    A profile {mu_c} is a partition of n into at most min(k, n) parts; its
    N(mu) = n! / prod_c((c!)**mu_c * mu_c!) patterns share one probability
    P(mu), so H = sum_mu -N(mu) * P(mu) * log2 P(mu), one DP per partition.
    ln N(mu) comes from a table of ln m! (exact integers below
    ``EXACT_FACTORIAL_BELOW``, log-gamma above), so no integer grows with n.
    Raises ResourceCapError past the enumeration cap on the number of
    partitions.
    """
    log_p = ProfileProbability(theta)
    table = [ln_factorial(i) for i in range(n + 1)]
    ln_fact = table.__getitem__
    terms = []
    for parts in enumerate_partitions(n, min(theta.k, n)):
        cs, mus = profile_vectors(parts)
        ln_p = log_p(cs, mus)
        ln_ways = table[n] - sum(map(ln_fact, parts)) - sum(map(ln_fact, mus))
        terms.append(math.exp(ln_ways + ln_p) * (0.0 - ln_p) / LN2)
    return math.fsum(terms)


def _walk_sequences(probs: list[float], letter_bin: tuple[int, ...], n: int,
                    model: CoderModel) -> tuple[dict, dict]:
    """Probability and codelength of every (pattern, bin string) of length n.

    Visits the k**n raw sequences depth first, in the lexicographic order of
    itertools.product.  Each (pattern, bin string) is keyed by an integer
    code with one base-``radix`` digit per step: (index - 1) * nbins plus the
    rank of the step's bin among the nbins distinct bins of the letters, so
    distinct pairs get distinct codes, all below k**(2n).  The returned
    ``joint`` holds each key's summed sequence probability (each multiplied
    left to right, summed in visit order); ``codelength`` maps each key to
    -log2 of the coder's assigned probability, accumulated one step at a
    time; a zero-probability step makes the rest of its subtree inf.
    """
    k = len(probs)
    rank = {b: r for r, b in enumerate(sorted(set(letter_bin)))}
    nbins = len(rank)
    letter_digit = [rank[b] for b in letter_bin]
    radix = k * nbins
    step, log2, inf = next_symbol_prob, math.log2, math.inf
    joint: dict[int, float] = {}
    codelength: dict[int, float] = {}
    state = CoderState()
    index_of = [0] * k  # letter -> its pattern index on the current path, 0 if unseen
    # step d of the current path: its letter and whether it introduced its
    # index; prob[d], bits[d] and code[d] are the prefix's probability,
    # codelength and key before step d.  The last step (d = n - 1) ends a
    # sequence, so it records nothing: no later step reads the state.
    path, fresh = [0] * n, [False] * n
    prob, bits, code = [1.0] * n, [0.0] * n, [0] * n
    last = n - 1
    d = s = 0
    while True:
        idx = index_of[s]
        new = idx == 0
        if new:
            idx = state.max_index + 1
        b = letter_bin[s]
        cl = bits[d]
        if cl != inf:
            q = step(model, state, idx, b)
            if q > 0.0:
                cl = cl - log2(q)
            else:
                warnings.warn(f"zero-probability step at position {d}")
                cl = inf
        key = code[d] * radix + (idx - 1) * nbins + letter_digit[s]
        if d < last:
            path[d], fresh[d] = s, new
            if new:
                index_of[s] = idx
                state.update(idx, b)
            d += 1
            prob[d], bits[d], code[d] = prob[d - 1] * probs[s], cl, key
            s = 0
            continue
        joint[key] = joint.get(key, 0.0) + prob[d] * probs[s]
        codelength[key] = cl
        # the next letter at this step, else at the deepest step that has one
        s += 1
        while s == k:
            if d == 0:
                return joint, codelength
            d -= 1
            s = path[d]
            if fresh[d]:
                index_of[s] = 0
                state.pop_index()
            s += 1


def exact_entropies(theta: ParamVector, grid: Grid, n: int,
                    model: CoderModel | None = None) -> ExactEntropies:
    """Exact pattern / joint / codelength quantities by exhaustive enumeration.

    The pattern entropy is computed from the pattern side
    (:func:`exact_pattern_entropy`, one DP per profile); the joint entropy
    and expected codelength enumerate all k^n raw sequences, since the bin
    string is a function of the sequence rather than of its pattern.  That
    enumeration is one depth-first walk of the sequence prefix tree: the
    k + k^2 + ... + k^n edges each cost one coder step, and no pattern is
    extracted or coded from scratch.
    """
    k = theta.k
    if k ** n > ENUMERATION_CAP:
        raise ResourceCapError(f"{k}^{n} sequences exceed the enumeration cap ({ENUMERATION_CAP})")
    h_x_block = n * iid_entropy(theta)
    h_pattern = exact_pattern_entropy(theta, n)
    probs = theta.probs.tolist()
    letter_bin = bin_sequence(theta, grid, range(1, k + 1))
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    joint, codelength = _walk_sequences(probs, letter_bin, n, model)
    h_joint = _entropy_of(joint.values())
    expected_codelength = math.fsum(
        p * codelength[key] for key, p in joint.items() if p > 0.0
    )
    return ExactEntropies(h_x_block=h_x_block, h_pattern=h_pattern,
                          h_joint=h_joint, expected_codelength=expected_codelength)


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int


def _row_profiles(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct profiles of the rows of ``draws`` and how many rows have each.

    A row's profile is the multiset of its letters' occurrence counts, the
    run lengths of the sorted row.  Each returned profile row lists them in
    descending order, padded with zeros to the largest number of distinct
    letters in a row; no array is larger than ``draws``.
    """
    samples, n = draws.shape
    ordered = np.sort(draws, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    lengths = np.diff(first, append=ordered.size)
    row = first // n
    runs = np.bincount(row, minlength=samples)
    order = np.lexsort((-lengths, row))
    table = np.zeros((samples, int(runs.max())), dtype=np.int64)
    table[row, np.arange(row.size) - np.repeat(np.cumsum(runs) - runs, runs)] = lengths[order]
    return np.unique(table, axis=0, return_counts=True)


def mc_pattern_entropy(theta: ParamVector, n: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the pattern entropy with its standard error.

    Averages -log2 P(pattern of X^n) over i.i.d. sampled sequences; each
    per-sample probability is exact, so the estimator is unbiased.  P depends
    only on the pattern's profile, read from the sorted sample's run lengths,
    so no pattern is built and each distinct profile runs one log-space DP
    (it raises ResourceCapError past ``PROFILE_DP_CAP``).  The mean and the
    variance are taken about the smallest value, so equal values give a
    standard error of exactly 0.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    profiles, counts = _row_profiles(sample_sequence(theta, (samples, n), seed))
    log_p = ProfileProbability(theta)
    values = [(0.0 - log_p(*profile_vectors([c for c in padded if c]))) / LN2
              for padded in profiles.tolist()]
    counts = counts.tolist()
    base = min(values)
    mean = base + math.fsum(c * (v - base) for v, c in zip(values, counts)) / samples
    ss = math.fsum(c * (v - mean) ** 2 for v, c in zip(values, counts))
    stderr = math.sqrt(ss / (samples - 1) / samples)
    return MCEstimate(estimate=mean, stderr=stderr, samples=samples)
