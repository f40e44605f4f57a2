"""Ground-truth entropy computations: exact at small scale, Monte Carlo beyond.

Everything here is an independent oracle: exact pattern probabilities and
exhaustive enumeration over raw sequences.  Bound evaluations are validated
against these values.  The slower brute-force routes that cross-check these
oracles live in :mod:`pattern_entropy._reference`.

The pattern side works on profiles, never on patterns: a pattern's
probability depends only on its profile, so :func:`exact_pattern_entropy`
sums over the integer partitions of n, each weighted by its number of
patterns, and :func:`mc_pattern_entropy` reads each sample's occurrence
counts from its sorted run lengths.  Both hand the occurrence counts, one
partition of n per profile, to the one entry that turns them into ln P,
``ProfileProbability(theta)(parts)``
(:class:`~pattern_entropy.patterns.ProfileProbability`): a closed form for
a source of one group, one log-space DP per profile for more groups.  On a
one-group source P depends only on the number m of distinct indices, so
:func:`exact_pattern_entropy` weights each ln P by the exact occupancy pmf
of m (:func:`occupancy_pmf`) instead of walking the partitions.

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

from ._common import LN2, ResourceCapError, elementwise, exact_sum, ln_factorial
from .coder import CoderModel, CoderState, next_symbol_prob
from .distributions import ParamVector, iid_entropy, sample_sequence
from .grids import Grid
from .patterns import ENUMERATION_CAP, ProfileProbability, bin_sequence, enumerate_partitions

# cells n * min(n, k) of the occupancy chain (see occupancy_pmf); this many
# take about 3 s on a 2-vCPU host
OCCUPANCY_CHAIN_CAP = 300_000_000
# cells samples * n of the one draw behind a Monte Carlo estimate, checked
# before drawing: the draw peaks at 24 bytes a cell (tracemalloc, uniform
# k = 10 and k = 1000), so this many take about 0.5 GB
MC_CELLS_CAP = 20_000_000


@dataclass(frozen=True)
class ExactEntropies:
    """Exact block quantities, all in bits."""

    h_x_block: float
    h_pattern: float
    h_joint: float
    expected_codelength: float


def occupancy_pmf(k: int, n: int) -> np.ndarray:
    """Exact pmf of the number M of distinct letters in n uniform draws from k.

    Entry m is P(M = m) = S(n, m) (k)_m / k**n, for m = 0, ..., min(n, k).
    The occupancy chain P_t(m) = P_{t-1}(m) m/k + P_{t-1}(m-1) (k-m+1)/k
    runs over t = 1..n, one linear-scale numpy row per t.  Every term is
    positive, so each step moves each entry by at most 3 roundings and the
    route's error is its mass defect: |sum_m P(m) - 1| <= 3 n 2**-53 to
    first order (measured: at most 1.4e-15 for k <= 1000 and n <= 50,
    8.9e-15 at k = 1,585 and n = 10^4).  Raises ResourceCapError, naming
    ``OCCUPANCY_CHAIN_CAP``, when the n * min(n, k) cells pass it.
    """
    top = min(n, k)
    if n * top > OCCUPANCY_CHAIN_CAP:
        raise ResourceCapError(f"the occupancy chain's {n * top} cells (n = {n}, k = {k}) "
                               f"exceed OCCUPANCY_CHAIN_CAP = {OCCUPANCY_CHAIN_CAP}")
    m = np.arange(top + 1)
    stay = m / k  # the draw repeats one of m letters seen
    move = (k - m[:-1]) / k  # the draw is new: m -> m + 1
    row, nxt = np.zeros(top + 1), np.empty(top + 1)
    row[0] = 1.0
    for _ in range(n):
        np.multiply(row, stay, out=nxt)
        nxt[1:] += row[:-1] * move
        row, nxt = nxt, row
    return row


def exact_pattern_entropy(theta: ParamVector, n: int) -> float:
    """H(pattern) in bits.

    A source of one group (k letters of value v) gives each of the S(n, m)
    patterns with m distinct indices the probability q_m = (k)_m v**n, so
    H = sum_m P(M = m) * -log2 q_m with the exact occupancy pmf of
    :func:`occupancy_pmf`, in O(n min(n, k)) time and linear space; ln q_m
    is ``ProfileProbability.log_q``, and the error is the pmf's mass defect.

    Otherwise H is summed over the profiles of length-n patterns.  A profile
    {mu_c} is a partition of n into at most min(k, n) parts; its
    N(mu) = n! / prod_c((c!)**mu_c * mu_c!) patterns share one probability
    P(mu), so H = sum_mu -N(mu) * P(mu) * log2 P(mu), one DP per partition.
    ln N(mu) comes from a table of ln m! (exact integers below
    ``EXACT_FACTORIAL_BELOW``, log-gamma above), so no integer grows with n.
    Raises ResourceCapError past the enumeration cap on the number of
    partitions, or for one group past ``OCCUPANCY_CHAIN_CAP``.
    """
    log_p = ProfileProbability(theta)
    if len(theta.values) == 1:
        pmf = occupancy_pmf(theta.k, n)[1:]
        ln_q = np.array([log_p.log_q(n, m) for m in range(1, pmf.size + 1)])
        return exact_sum(pmf * (0.0 - ln_q)) / LN2
    table = [ln_factorial(i) for i in range(n + 1)]
    ln_fact = table.__getitem__
    terms = []
    for parts in enumerate_partitions(n, min(theta.k, n)):
        ln_p = log_p(parts)
        mus = map(parts.count, dict.fromkeys(parts))
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
    (:func:`exact_pattern_entropy`); the joint entropy
    and expected codelength enumerate all k^n raw sequences, since the bin
    string is a function of the sequence rather than of its pattern.  That
    enumeration is the level walk of :func:`_walk_sequences`: no pattern is
    extracted or coded from scratch.  H(joint) takes each key's log2 from
    ``math`` (libm's bits) and both sums are ``exact_sum``, correctly rounded
    exact sums with ``math.fsum``'s bits, so the results do not depend on the
    order of the keys.

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
    h_joint = -exact_sum(joint * elementwise(math.log2, joint))
    expected_codelength = exact_sum(joint * codelength)
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
    letters in a row, in ascending lexicographic order, as
    ``np.unique(table, axis=0, return_counts=True)`` gives them: one lexsort
    of the rows, and each profile's count is the distance between first
    rows.  No array is larger than ``draws``.
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
    table = table[np.lexsort(table.T[::-1])]  # the first column is the primary key
    first = np.ones(samples, dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return table[starts], np.diff(starts, append=samples)


def mc_pattern_entropy(theta: ParamVector, n: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the pattern entropy with its standard error.

    Averages -log2 P(pattern of X^n) over i.i.d. sampled sequences; each
    per-sample probability is exact, so the estimator is unbiased.  P depends
    only on the pattern's profile, read from the sorted sample's run lengths,
    so no pattern is built and each distinct profile makes one
    ``ProfileProbability`` call: the closed form ln (k)_m + n ln v on a
    one-group source, one log-space DP otherwise (it raises
    ResourceCapError past ``PROFILE_DP_CAP``).  The mean and the
    variance are taken about the smallest value, so equal values give a
    standard error of exactly 0.  The samples are drawn at once, so more
    than ``MC_CELLS_CAP`` cells samples * n raise ResourceCapError before any
    draw.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if samples * n > MC_CELLS_CAP:
        raise ResourceCapError(f"{samples} samples of length {n} are {samples * n} cells, "
                               f"past MC_CELLS_CAP = {MC_CELLS_CAP}")
    profiles, counts = _row_profiles(sample_sequence(theta, (samples, n), seed))
    log_p = ProfileProbability(theta)
    values = [(0.0 - log_p([c for c in padded if c])) / LN2
              for padded in profiles.tolist()]
    counts = counts.tolist()
    base = min(values)
    mean = base + math.fsum(c * (v - base) for v, c in zip(values, counts)) / samples
    ss = math.fsum(c * (v - mean) ** 2 for v, c in zip(values, counts))
    stderr = math.sqrt(ss / (samples - 1) / samples)
    return MCEstimate(estimate=mean, stderr=stderr, samples=samples)
