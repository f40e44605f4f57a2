"""Ground-truth entropy computations: exact at small scale, Monte Carlo beyond.

Everything here is an independent oracle, and nothing is enumerated
sequence by sequence.  Bound evaluations are validated against these
values; the slower brute-force routes that cross-check the oracles live in
:mod:`pattern_entropy._reference`.

The pattern side works on profiles, never on patterns: a pattern's
probability depends only on its profile, the occurrence counts that
``ProfileProbability(theta)(parts)`` turns into ln P
(:class:`~pattern_entropy.patterns.ProfileProbability`).
:func:`exact_pattern_entropy` walks the partitions of n, or on a one-group
source the occupancy pmf of m (:func:`occupancy_pmf`), and
:func:`mc_pattern_entropy` reads each sample's sorted run lengths.

The joint side works bin by bin.  The grid's bins split the alphabet, so
P(pattern, bins) = prod_b P_b(mu_b), mu_b being bin b's own pattern, and a
coder step's probability depends only on its bin and on how many indices
that bin has seen.  So :func:`exact_entropies` sums expectations under each
bin's law of its draw count N_b and index count M_b.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import LN2, ResourceCapError, exact_sum, ln_factorial
from .coder import CoderModel, CoderState, next_symbol_prob
from .distributions import ParamVector, iid_entropy, sample_sequence
from .grids import Grid, bin_index
from .patterns import (ENUMERATION_CAP, PROFILE_DP_CAP, ProfileProbability, _partition_counts,
                       count_partitions, enumerate_partitions)

# cells n * min(n, k) of the occupancy chains one call runs (see
# occupancy_pmf); this many take about 0.3 s on a 2-vCPU host, and each
# chain step costs about 1.5 us more
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


def occupancy_pmf(k: int, n: int, r: float = 0.0) -> np.ndarray:
    """Exact pmf of the number M of distinct letters of a group seen in n draws.

    The k letters have value v and the source puts r * v outside them, so
    the occupancy chain P_t(m) = P_{t-1}(m) (m + r)/(k + r) +
    P_{t-1}(m-1) (k-m+1)/(k + r), m <= min(n, k), runs over t = 1..n, one
    linear-scale numpy row per t; r = 0 gives S(n, m) (k)_m / k**n, and
    r = inf (outside / v overflows for a subnormal v) the limit in which the
    group is never drawn.  Every term is positive, so each step moves each
    entry by at most 3 roundings and the route's error is its mass defect:
    |sum_m P(m) - 1| <= 3 n 2**-53 to first order (measured: at most 1.4e-15
    for k <= 1000 and n <= 50, 8.9e-15 at k = 1,585 and n = 10^4).  Raises
    ResourceCapError, naming ``OCCUPANCY_CHAIN_CAP``, when the n * min(n, k)
    cells pass it.
    """
    top = min(n, k)
    _check_chain_cells(n * top)
    m = np.arange(top + 1)
    # the draw repeats one of m letters seen, or falls outside
    stay = (m + r) / (k + r) if r < math.inf else np.ones(top + 1)
    move = (k - m[:-1]) / (k + r)  # the draw is new: m -> m + 1
    row, nxt = np.zeros(top + 1), np.empty(top + 1)
    row[0] = 1.0
    for _ in range(n):
        np.multiply(row, stay, out=nxt)
        nxt[1:] += row[:-1] * move
        row, nxt = nxt, row
    return row


def _check_chain_cells(cells: int) -> None:
    if cells > OCCUPANCY_CHAIN_CAP:
        raise ResourceCapError(f"the occupancy chains' {cells} cells n * min(n, k) "
                               f"exceed OCCUPANCY_CHAIN_CAP = {OCCUPANCY_CHAIN_CAP}")


def _classes(log_p: ProfileProbability, n: int, top: int, table: list[float]):
    """(P(class), -ln P(pattern), m) of each profile class of the length-n
    patterns with at most ``top`` distinct indices, ``table`` being ln i!
    for i <= n: one class per partition of n (see exact_pattern_entropy)."""
    ln_fact = table.__getitem__
    for parts in enumerate_partitions(n, top):
        ln_p = log_p(parts)
        mus = map(parts.count, dict.fromkeys(parts))
        ln_ways = table[n] - sum(map(ln_fact, parts)) - sum(map(ln_fact, mus))
        yield math.exp(ln_ways + ln_p), 0.0 - ln_p, len(parts)


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
    partitions, once the DPs of all partitions pass ``PROFILE_DP_CAP``
    transitions in all, or for one group past ``OCCUPANCY_CHAIN_CAP``.
    """
    return _pattern_entropy(theta, n, ProfileProbability(theta))


def _pattern_entropy(theta: ParamVector, n: int, log_p: ProfileProbability) -> float:
    if len(theta.values) == 1:
        pmf = occupancy_pmf(theta.k, n)[1:]
        ln_q = np.array([log_p.log_q(n, m) for m in range(1, pmf.size + 1)])
        return exact_sum(pmf * (0.0 - ln_q)) / LN2
    table = [ln_factorial(i) for i in range(n + 1)]
    return math.fsum(p * nats / LN2 for p, nats, _ in _classes(log_p, n, min(theta.k, n), table))


def _binomial_pmf(n: int, p: float, q: float) -> list[float]:
    """C(n, j) p**j q**(n-j) for j = 0..n from exact integers, each rounded
    once; q is given apart, not as 1 - p.  Going down from j = n keeps
    every quotient exact, q = 0 included."""
    a, s = p.as_integer_ratio()
    c, t = q.as_integer_ratio()
    num, den = a ** n, s ** n
    out = [num / den]
    for j in range(n, 0, -1):
        num = num * j * c // ((n - j + 1) * a)
        den = den // s * t
        out.append(num / den)
    return out[::-1]


def _step_bits(model: CoderModel, b: int, top: int) -> list[float]:
    """-log2 q of a new index in bin b after s < ``top`` earlier ones (entry s),
    then of a re-occurrence in b: one coder call per step kind, on a state a
    sequence reaches.  A zero step, and every new index after it, is inf."""
    state, q = CoderState(), []
    while len(q) < top and (p := next_symbol_prob(model, state, len(q) + 1, b)) > 0.0:
        q.append(p)
        state.update(len(q), b)
    q += [0.0] * (top - len(q))
    q.append(next_symbol_prob(model, state, 1, b) if state.max_index else 0.0)
    return [0.0 - math.log2(p) if p > 0.0 else math.inf for p in q]


def exact_entropies(theta: ParamVector, grid: Grid, n: int,
                    model: CoderModel | None = None) -> ExactEntropies:
    """Exact H(X^n), H(pattern), H(pattern, bins) and E[-log2 Q], in bits.

    H(pattern) is :func:`exact_pattern_entropy`.  The others are sums over
    bins: H(pattern, bins) = sum_b E[-log2 P_b(mu_b)] and E[-log2 Q] =
    sum_b E[(N_b - M_b) c_b + sum_{s < M_b} c_b(s)] (:func:`_step_bits`).
    A bin of k letters of value v has P_b = (k)_{M_b} v**N_b, M_b's law
    being :func:`occupancy_pmf` with the mass outside the bin.  A bin of
    several groups and mass phi has N_b ~ Binomial(n, phi) and, given
    N_b = j, the profile classes of j draws from theta_b / phi.

    Before any DP or chain, the partitions of every profile walk are counted
    against ``ENUMERATION_CAP`` and the chain cells n * min(n, k_b) against
    ``OCCUPANCY_CHAIN_CAP``; all the DPs share one ``PROFILE_DP_CAP``.
    Memory: a row of min(n, k_b) + 1 floats per bin, and two floats per
    profile class of a several-group bin.  A zero-probability step that a
    sequence of positive probability reaches makes E[-log2 Q] inf, with one
    warning naming the earliest such position.
    """
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    bins, starts = np.unique(bin_index(grid, theta.values), return_index=True)
    groups = [(theta.values[lo:hi].tolist(), theta.counts[lo:hi].tolist())
              for lo, hi in zip(starts, [*starts[1:], len(theta.values)])]
    one = len(theta.values) == 1
    partitions = (0 if one else count_partitions(n, min(theta.k, n))) + sum(
        sum(_partition_counts(n, sum(counts))[1:]) for values, counts in groups if len(values) > 1)
    _check_chain_cells((n * min(n, theta.k) if one else 0) + sum(
        n * min(n, counts[0]) for values, counts in groups if len(values) == 1))
    if partitions > ENUMERATION_CAP:
        raise ResourceCapError(f"{partitions} or more partitions exceed the enumeration cap "
                               f"(ENUMERATION_CAP = {ENUMERATION_CAP})")

    log_p = ProfileProbability(theta)
    h_pattern = _pattern_entropy(theta, n, log_p)
    table = [ln_factorial(i) for i in range(n + 1)]
    phis = [math.fsum(k * v for v, k in zip(*group)) for group in groups]
    joint, code, zero_at = [], [], math.inf
    for i, (b, (values, counts)) in enumerate(zip(bins.tolist(), groups)):
        phi, k_b, ideal = phis[i], sum(counts), None
        outside, top = math.fsum(p for j, p in enumerate(phis) if j != i), min(n, k_b)
        if len(values) == 1:
            v = values[0]
            pmf = occupancy_pmf(k_b, n, outside / v)
            # -log2 of the source's own steps: (k - s) v for a new index, v for a repeat
            ideal = [0.0 - math.log2((k_b - s) * v) for s in range(top)] + [0.0 - math.log2(v)]
        else:
            sub = ProfileProbability(ParamVector.from_groups(np.divide(values, phi), counts))
            sub.budget = log_p.budget
            w = _binomial_pmf(n, phi, outside)
            by_m = [[] for _ in range(top + 1)]  # P(M_b = m) in parts; m = 0 is never read
            for j in range(1, n + 1):
                for p, nats, m in _classes(sub, j, min(k_b, j), table) if w[j] else ():
                    by_m[m].append(w[j] * p)
                    joint.append(w[j] * p * nats / LN2)
            log_p.budget = sub.budget
            joint.append(n * phi * (0.0 - math.log2(phi)))
            pmf = np.array([math.fsum(ps) for ps in by_m])
        tail = np.cumsum(pmf[:0:-1])[::-1]  # P(M_b > s) for s < top
        # E[N_b - M_b]: draw t repeats an earlier letter l with probability
        # theta_l (1 - (1 - theta_l)**t), taken as -expm1
        repeats = math.fsum(k * v * math.fsum(-math.expm1(t * math.log1p(-v)) if v < 1.0 else 1.0
                                              for t in range(1, n)) for v, k in zip(values, counts))
        weights = np.append(tail, repeats)[:top + (n > 1)]  # a re-occurrence needs n > 1
        bits = _step_bits(model, b, top)[:weights.size]
        # a re-occurrence's earliest position is 1
        zero_at = min([zero_at, *(s if s < top else 1 for s, c in enumerate(bits) if c == math.inf)])
        for steps, out in ((ideal, joint), (bits, code)):
            if steps and math.inf not in steps[:weights.size]:
                out.append(exact_sum(weights * np.array(steps[:weights.size])))
    if zero_at < math.inf:
        warnings.warn(f"zero-probability step at position {zero_at}")
    return ExactEntropies(h_x_block=n * iid_entropy(theta), h_pattern=h_pattern,
                          h_joint=math.fsum(joint),
                          expected_codelength=math.fsum(code) if zero_at == math.inf else math.inf)


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
    values = []
    for padded in profiles.tolist():
        log_p.budget = PROFILE_DP_CAP  # each profile has a budget of its own
        values.append((0.0 - log_p([c for c in padded if c])) / LN2)
    counts = counts.tolist()
    base = min(values)
    mean = base + math.fsum(c * (v - base) for v, c in zip(values, counts)) / samples
    ss = math.fsum(c * (v - mean) ** 2 for v, c in zip(values, counts))
    stderr = math.sqrt(ss / (samples - 1) / samples)
    return MCEstimate(estimate=mean, stderr=stderr, samples=samples)
