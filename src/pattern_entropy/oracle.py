"""Ground-truth entropy computations: exact at small scale, Monte Carlo beyond.

Everything here is an independent oracle, and nothing is enumerated
sequence by sequence.  Bound evaluations are validated against these
values; the slower brute-force routes that cross-check the oracles live in
:mod:`pattern_entropy._reference`.

The pattern side works on profiles, never on patterns: a pattern's
probability depends only on its occurrence counts, which
``ProfileProbability(theta)(parts)`` turns into ln P
(:class:`~pattern_entropy.patterns.ProfileProbability`), by the fold of the
groups' generating function or by the DP over the distinct counts, whichever
costs less.  Its object keeps the folded cells of the last profile's
prefixes, so the exact walks (partitions in lexicographic order) and
:func:`mc_pattern_entropy` (each sample's sorted run lengths, the profiles in
lexicographic order) fold only each profile's changed tail.

The exact side sums one per-bin law (:func:`_bin_law`).  The grid's bins
split the alphabet, so P(pattern, bins) = prod_b P_b(mu_b), mu_b being bin
b's own pattern, and a coder step depends only on its bin and on how many
indices that bin has seen.  H(pattern) is the law of the whole alphabet as
one bin, which a grid of one bin reuses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import LN2, ResourceCapError, exact_sum
from .coder import CoderModel, CoderState, next_symbol_prob
from .distributions import ParamVector, iid_entropy, sample_sequence
from .grids import Grid, bin_index
from .patterns import ENUMERATION_CAP, ProfileProbability, _partition_counts, enumerate_partitions

# cells n * min(n, k) of one call's occupancy chains (occupancy_pmf), plus
# CHAIN_STEP_CELLS a step: a cell costs 1-16 ns, a step 3-5 us more (Python 3.11,
# 2-vCPU Xeon); k = 10^6 at n = 15,435 takes 0.7 s, one letter at 74,981 0.4 s
OCCUPANCY_CHAIN_CAP = 300_000_000
CHAIN_STEP_CELLS = 4_000
# a bin of several groups draws its binomial pmf (_binomial_pmf) from the
# same cells: its n steps multiply and divide integers of up to about n B
# bits by integers of about B bits, B the bits of p's and q's integer
# ratios, in 0.85 ps per n^2 B (B + 384) (B = 6 to 2,206, same host), and
# PMF_BIT_CELLS of those are charged a cell, so the cap holds them near 2 s
PMF_BIT_CELLS = 8_192
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
    ResourceCapError, naming ``OCCUPANCY_CHAIN_CAP``, when the cells
    n * (min(n, k) + ``CHAIN_STEP_CELLS``) pass it.
    """
    top = min(n, k)
    _check_chain_cells(n * (top + CHAIN_STEP_CELLS))
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
        raise ResourceCapError(f"the occupancy chains' cells n * (min(n, k) + CHAIN_STEP_CELLS) "
                               f"and the binomial pmfs', {cells}, exceed OCCUPANCY_CHAIN_CAP = "
                               f"{OCCUPANCY_CHAIN_CAP}")


def _classes(log_p: ProfileProbability, n: int, top: int):
    """(P(class), -ln P(pattern), m) of each profile class of the length-n
    patterns with at most ``top`` distinct indices: one per partition mu of n,
    of n! / prod_c((c!)**mu_c * mu_c!) patterns with ln P ``log_p(mu)``."""
    table = log_p._ln_factorials(n)
    for parts in enumerate_partitions(n, top):
        ln_p = log_p(parts)
        mus = map(parts.count, dict.fromkeys(parts))
        ln_ways = table[n] - sum(map(table.__getitem__, parts)) - sum(map(table.__getitem__, mus))
        yield math.exp(ln_ways + ln_p), 0.0 - ln_p, len(parts)


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


def _pmf_cells(n: int, p: float, q: float) -> int:
    """The cells :func:`_binomial_pmf` (n, p, q) is charged (``PMF_BIT_CELLS``).
    q = 0, the whole alphabet's [0, ..., 0, 1], zeroes the numerator at the
    first step, so it is charged nothing."""
    if not q:
        return 0
    bits = sum(i.bit_length() for x in (p, q) for i in x.as_integer_ratio())
    return n * n * bits * (bits + 384) // PMF_BIT_CELLS


def _check_budgets(n: int, laws: list[tuple]) -> None:
    """Refuse the laws (values, counts, phi, outside) past a budget, before any
    chain, pmf or profile probability."""
    _check_chain_cells(sum(n * (min(n, counts[0]) + CHAIN_STEP_CELLS) if len(values) == 1
                           else _pmf_cells(n, phi, outside)
                           for values, counts, phi, outside in laws))
    # a bin walks the partitions of every N_b = j <= n, the whole alphabet those of n
    walks = [(_partition_counts(n, sum(counts)), outside)
             for values, counts, _, outside in laws if len(values) > 1]
    partitions = sum(sum(ways[1:]) if outside else ways[n] for ways, outside in walks)
    if partitions > ENUMERATION_CAP:
        raise ResourceCapError(f"{partitions} or more partitions exceed the enumeration cap "
                               f"(ENUMERATION_CAP = {ENUMERATION_CAP})")


def _bin_law(n: int, values: list, counts: list, phi: float, outside: float,
             log_p: ProfileProbability, weigh: bool = True) -> tuple[np.ndarray | None, list]:
    """(weights, terms) of the bin of groups (``values``, ``counts``) and mass
    ``phi``, with ``outside`` elsewhere, after n draws: how often its coder
    takes each step, P(M_b > s) for s < min(n, k_b) then E[N_b - M_b] if
    n > 1, M_b and N_b being its index and draw counts; and terms summing to
    E[-log2 P_b(mu_b)] in bits.  Nothing outside is the whole alphabet
    (phi = 1), of law ``log_p``, whose budget every bin shares; ``weigh``
    False skips the weights of several groups.
    """
    k_b = sum(counts)
    top = min(n, k_b)
    if len(values) == 1:  # P_b = (k_b)_{M_b} v**N_b
        pmf = occupancy_pmf(k_b, n, outside / values[0])
    else:  # N_b ~ Binomial(n, phi)
        sub = log_p if not outside else ProfileProbability(
            ParamVector.from_groups(np.divide(values, phi), counts))
        sub.budget = log_p.budget
        w = _binomial_pmf(n, phi, outside)
        by_m = [[] for _ in range(top + 1)]  # P(M_b = m) in parts; m = 0 is never read
        terms = [n * phi * (0.0 - math.log2(phi))]
        for j in range(1, n + 1):
            for p, nats, m in _classes(sub, j, min(k_b, j)) if w[j] else ():
                by_m[m].append(w[j] * p)
                terms.append(w[j] * p * nats / LN2)
        log_p.budget = sub.budget
        if not weigh:
            return None, terms
        pmf = np.array([math.fsum(ps) for ps in by_m])
    tail = np.cumsum(pmf[:0:-1])[::-1]  # P(M_b > s) for s < top
    # E[N_b - M_b]: draw t repeats an earlier letter l with probability
    # theta_l (1 - (1 - theta_l)**t), taken as -expm1
    repeats = math.fsum(k * v * math.fsum(-math.expm1(t * math.log1p(-v)) if v < 1.0 else 1.0
                                          for t in range(1, n)) for v, k in zip(values, counts))
    weights = np.append(tail, repeats)[:top + (n > 1)]  # a re-occurrence needs n > 1
    if len(values) == 1:  # -log2 of the source's steps: (k_b - s) v new, v repeated
        v = values[0]
        steps = [0.0 - math.log2((k_b - s) * v) for s in range(top)] + [0.0 - math.log2(v)]
        terms = [exact_sum(weights * np.array(steps[:weights.size]))]
    return weights, terms


def exact_pattern_entropy(theta: ParamVector, n: int) -> float:
    """H(pattern) in bits: the whole alphabet as one bin (:func:`_bin_law`),
    so one group runs one occupancy chain (O(n min(n, k)) time, linear space,
    its error the pmf's mass defect) and more groups one profile probability
    per partition of n.  Raises ResourceCapError past ``ENUMERATION_CAP``
    partitions or ``OCCUPANCY_CHAIN_CAP`` cells, both checked before any
    chain or profile probability, or once the profile probabilities pass
    ``PROFILE_DP_CAP`` transitions in all.
    """
    whole = (theta.values.tolist(), theta.counts.tolist(), 1.0, 0.0)
    _check_budgets(n, [whole])
    _, terms = _bin_law(n, *whole, ProfileProbability(theta), weigh=False)
    return math.fsum(terms)


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

    H(pattern) is :func:`exact_pattern_entropy`'s.  H(pattern, bins) =
    sum_b E[-log2 P_b(mu_b)] and E[-log2 Q] = sum_b E[(N_b - M_b) c_b +
    sum_{s < M_b} c_b(s)] (:func:`_step_bits`) sum the grid's bin laws
    (:func:`_bin_law`); a grid of one occupied bin reuses the whole
    alphabet's, so its chain or partition walk runs once.  The budgets are
    those of :func:`exact_pattern_entropy`, over all the laws of the call.
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
    phis = [math.fsum(k * v for v, k in zip(*group)) for group in groups]
    laws = [(*group, phi, math.fsum(p for j, p in enumerate(phis) if j != i))
            for i, (group, phi) in enumerate(zip(groups, phis))]
    whole = (theta.values.tolist(), theta.counts.tolist(), 1.0, 0.0)
    one_bin = len(laws) == 1
    _check_budgets(n, [whole] if one_bin else [whole, *laws])
    log_p = ProfileProbability(theta)
    weights, terms = _bin_law(n, *whole, log_p, weigh=one_bin)
    h_pattern = math.fsum(terms)
    results = [(weights, terms)] if one_bin else [_bin_law(n, *law, log_p) for law in laws]
    code, zero_at = [], math.inf
    for b, (_, counts, _, _), (weights, _) in zip(bins.tolist(), laws, results):
        top = min(n, sum(counts))
        bits = _step_bits(model, b, top)[:weights.size]
        # a re-occurrence's earliest position is 1
        zero_at = min([zero_at, *(s if s < top else 1 for s, c in enumerate(bits) if c == math.inf)])
        if math.inf not in bits:
            code.append(exact_sum(weights * np.array(bits)))
    if zero_at < math.inf:
        warnings.warn(f"zero-probability step at position {zero_at}")
    return ExactEntropies(h_x_block=n * iid_entropy(theta), h_pattern=h_pattern,
                          h_joint=math.fsum([t for _, terms in results for t in terms]),
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
    ascending order, padded with zeros to the largest number of distinct
    letters in a row, in ascending lexicographic order, as
    ``np.unique(table, axis=0, return_counts=True)`` gives them: one sort of
    the run lengths keyed by row, one lexsort of the rows, and each
    profile's count is the distance between first rows.  So consecutive
    profiles share their longest ascending prefixes, which
    :class:`~pattern_entropy.patterns.ProfileProbability` keeps.  No array is
    larger than ``draws``.
    """
    samples, n = draws.shape
    ordered = np.sort(draws, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    lengths = np.diff(first, append=ordered.size)
    row = first // n
    runs = np.bincount(row, minlength=samples)
    keyed = np.sort(row * (n + 1) + lengths)  # each row's run lengths, ascending
    table = np.zeros((samples, int(runs.max())), dtype=np.int64)
    table[row, np.arange(row.size) - np.repeat(np.cumsum(runs) - runs, runs)] = keyed - row * (n + 1)
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
    one-group source, otherwise the fold of the groups' generating function
    or the DP, whichever costs less, all of them on one budget
    (ResourceCapError past ``PROFILE_DP_CAP`` transitions).  The profiles
    come in lexicographic order of their ascending counts, so the fold
    redoes only each one's changed tail and keeps at most 4 isqrt(m) + 2
    arrays of cells: ex2-ex4 return at n = 10^4 with 10 samples.  The mean
    and the variance are taken about the smallest value, so equal values
    give a standard error of exactly 0.  The samples are drawn at once, so more
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
    widths = np.count_nonzero(profiles, axis=1).tolist()  # the counts lead each row
    values = [(0.0 - log_p(row[:m])) / LN2 for row, m in zip(profiles.tolist(), widths)]
    counts = counts.tolist()
    base = min(values)
    mean = base + math.fsum(c * (v - base) for v, c in zip(values, counts)) / samples
    ss = math.fsum(c * (v - mean) ** 2 for v, c in zip(values, counts))
    stderr = math.sqrt(ss / (samples - 1) / samples)
    return MCEstimate(estimate=mean, stderr=stderr, samples=samples)
