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

The raw-sequence enumeration of :func:`exact_entropies` walks the k-ary
prefix tree of sequences one depth at a time in numpy: each depth expands
all k**d prefixes by all k letters at once, extending each prefix's
probability, codelength, int64 key of its (pattern, bin) prefix and small
letter-to-index and indices-per-bin maps.  The coder's step costs come from
a table of -log2 q filled once by
:func:`~pattern_entropy.coder.next_symbol_prob`, one call per (bin, indices
seen in it) state and per bin's re-occurrence, so the number of coder calls
does not grow with n once n reaches the largest bin's letter count.  The
leaves are grouped by key with a stable sort, so each key's probability is
summed in the order of :func:`itertools.product`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import LN2, ResourceCapError, elementwise, ln_factorial
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


def _step_bits(model: CoderModel, bins: list[int], letters_in: list[int],
               n: int) -> np.ndarray:
    """-log2 q of every coder step the walk takes, one row per bin rank.

    Entry [r, s] for s < n is a new index in bins[r] after s indices of that
    bin; the last entry, [r, n], is a re-occurrence in bins[r].  Each comes
    from one :func:`~pattern_entropy.coder.next_symbol_prob` call on a state
    the walk reaches with a finite codelength, so the table never forks the
    coder's step rule and never asks about a state the walk cannot meet: a
    new index of bins[r] follows s < min(letters in bins[r], n) earlier
    ones, each of positive probability.  A step of probability 0, and every
    entry past it, is inf.
    """
    table = np.full((len(bins), n + 1), math.inf)
    for r, (b, letters) in enumerate(zip(bins, letters_in)):
        state = CoderState()
        for seen in range(min(letters, n)):
            q = next_symbol_prob(model, state, seen + 1, b)
            if q <= 0.0:
                break
            table[r, seen] = -math.log2(q)
            state.update(seen + 1, b)
        if state.max_index:
            q = next_symbol_prob(model, state, 1, b)
            if q > 0.0:
                table[r, n] = -math.log2(q)
    return table


def _walk_sequences(probs: np.ndarray, letter_bin: tuple[int, ...], n: int,
                    model: CoderModel) -> tuple[np.ndarray, np.ndarray]:
    """Probability and codelength of every (pattern, bin string) of length n.

    Walks the k-ary prefix tree of sequences one depth at a time: the rows at
    depth d are the k**d prefixes in the lexicographic order of
    itertools.product, and each depth expands every row by all k letters at
    once.  A row carries its prefix probability (multiplied left to right),
    its codelength (the sum of the steps' -log2 q from :func:`_step_bits`,
    inf after a zero-probability step), an int64 key of its (pattern, bin)
    prefix, its index count, and int8 maps letter -> pattern index (0 while
    unseen) and bin -> indices seen.  The key has one base-k*nbins digit per
    step, (index - 1) * nbins plus the rank of the step's bin among the
    nbins distinct bins of the letters, so distinct pairs get distinct keys,
    all below k**(2n) <= ENUMERATION_CAP**2 < 2**63.

    Returns one entry per distinct key, in ascending key order: the summed
    probability of its sequences, added in visit order, and the codelength
    of its first sequence (all of its sequences share it).  Warns once per
    depth at which a step of finite codelength has probability 0.
    """
    k = len(probs)
    bins, digit = np.unique(letter_bin, return_inverse=True)
    nbins = len(bins)
    bits_of = _step_bits(model, bins.tolist(), np.bincount(digit).tolist(), n)
    letters = np.arange(k)
    prob, bits, key = np.ones(1), np.zeros(1), np.zeros(1, dtype=np.int64)
    dead = 0  # rows whose codelength is inf
    count = np.zeros(1, dtype=np.int8)  # indices seen
    index_of = np.zeros((1, k), dtype=np.int8)  # letter -> pattern index, 0 if unseen
    seen = np.zeros((1, nbins), dtype=np.int8)  # bin rank -> indices seen
    for d in range(n):
        # entry [r, s] below is child s of row r, the prefix r followed by letter s
        new = index_of == 0
        idx = np.where(new, count[:, None] + 1, index_of)
        bits = (bits[:, None] + bits_of[digit, np.where(new, seen[:, digit], -1)]).ravel()
        dead, parents_dead = np.count_nonzero(np.isinf(bits)), dead
        if dead > k * parents_dead:  # a prefix of finite codelength took a zero step
            warnings.warn(f"zero-probability step at position {d}")
        prob = (prob[:, None] * probs).ravel()
        key = ((key[:, None] * k + (idx - 1)) * nbins + digit).ravel()
        if d < n - 1:
            index_of = np.repeat(index_of[:, None, :], k, axis=1)
            index_of[:, letters, letters] = idx
            index_of = index_of.reshape(-1, k)
            seen = np.repeat(seen[:, None, :], k, axis=1)
            seen[:, letters, digit] += new
            seen = seen.reshape(-1, nbins)
            count = (count[:, None] + new).ravel()
    order = np.argsort(key, kind="stable")  # equal keys stay in visit order
    key = key[order]
    head = np.empty(key.size, dtype=bool)  # the first leaf of each key
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    del key  # frees the sorted keys before the sums
    return np.bincount(np.cumsum(head) - 1, weights=prob[order]), bits[order[head]]


def exact_entropies(theta: ParamVector, grid: Grid, n: int,
                    model: CoderModel | None = None) -> ExactEntropies:
    """Exact pattern / joint / codelength quantities by exhaustive enumeration.

    The pattern entropy is computed from the pattern side
    (:func:`exact_pattern_entropy`, one DP per profile); the joint entropy
    and expected codelength enumerate all k^n raw sequences, since the bin
    string is a function of the sequence rather than of its pattern.  That
    enumeration is the level walk of :func:`_walk_sequences`: no pattern is
    extracted or coded from scratch.  H(joint) takes each key's log2 from
    ``math`` (libm's bits) and both sums are ``math.fsum``, so the results do
    not depend on the order of the keys.

    Memory: the walk holds three 8-byte values per leaf (probability,
    codelength, key) and groups them by key with a stable argsort, so its
    tracemalloc peak is 44-49 bytes per leaf (49 MiB for geometric k = 4 at
    n = 10), about 500 MB at ``ENUMERATION_CAP`` = 10^7 leaves.  The
    entropy sums that follow need under 60 bytes per distinct
    (pattern, bin string).
    """
    k = theta.k
    if k ** n > ENUMERATION_CAP:
        raise ResourceCapError(f"{k}^{n} sequences exceed the enumeration cap ({ENUMERATION_CAP})")
    h_x_block = n * iid_entropy(theta)
    h_pattern = exact_pattern_entropy(theta, n)
    letter_bin = bin_sequence(theta, grid, range(1, k + 1))
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    joint, codelength = _walk_sequences(theta.probs, letter_bin, n, model)
    positive = joint > 0.0
    joint, codelength = joint[positive], codelength[positive]
    h_joint = -math.fsum((joint * elementwise(math.log2, joint)).tolist())
    expected_codelength = math.fsum((joint * codelength).tolist())
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
