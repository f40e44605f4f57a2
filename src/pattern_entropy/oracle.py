"""Ground-truth entropy computations: exact at small scale, Monte Carlo beyond.

Everything here is an independent oracle: exhaustive enumeration over raw
sequences, injection sums over patterns, and inclusion-exclusion over letter
subsets.  Bound evaluations are validated against these values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._common import ResourceCapError
from .coder import CoderModel, CoderState, next_symbol_prob, sequence_codelength
from .distributions import ParamVector
from .grids import Grid, bin_index
from .patterns import Pattern, bin_sequence, enumerate_patterns, extract_pattern, pattern_probability

ENUMERATION_CAP = 10_000_000
MC_K_CAP = 10
PERMUTATION_K_CAP = 8
INJECTION_TREE_K_CAP = 6


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
    """H(pattern) in bits, from every length-n pattern's injection-sum probability."""
    return _entropy_of(
        pattern_probability(theta, psi) for psi in enumerate_patterns(n, min(theta.k, n))
    )


def exact_entropies(theta: ParamVector, grid: Grid, n: int,
                    cap: int = ENUMERATION_CAP,
                    model: CoderModel | None = None) -> ExactEntropies:
    """Exact pattern / joint / codelength quantities by exhaustive enumeration.

    The pattern entropy is computed from the pattern side (enumeration of
    restricted growth strings with injection-sum probabilities); the joint
    entropy and expected codelength enumerate all k^n raw sequences, since the
    bin string is a function of the sequence rather than of its pattern.
    """
    k = theta.k
    if k ** n > cap:
        raise ResourceCapError(f"{k}^{n} sequences exceed the enumeration cap ({cap})")
    from .distributions import iid_entropy

    h_x_block = n * iid_entropy(theta)
    h_pattern = exact_pattern_entropy(theta, n)
    probs = theta.probs
    joint: dict[tuple, float] = {}
    for seq in itertools.product(range(1, k + 1), repeat=n):
        p = 1.0
        for s in seq:
            p *= probs[s - 1]
        key = (extract_pattern(seq).indices, bin_sequence(theta, grid, seq))
        joint[key] = joint.get(key, 0.0) + p
    h_joint = _entropy_of(joint.values())
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    expected_codelength = math.fsum(
        p * sequence_codelength(model, psi, beta) for (psi, beta), p in joint.items() if p > 0.0
    )
    return ExactEntropies(h_x_block=h_x_block, h_pattern=h_pattern,
                          h_joint=h_joint, expected_codelength=expected_codelength)


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int


def mc_pattern_entropy(theta: ParamVector, n: int, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the pattern entropy with its standard error.

    Averages -log2 P(pattern of X^n) over i.i.d. sampled sequences; each
    per-sample probability is exact, so the estimator is unbiased.
    """
    k = theta.k
    if k > MC_K_CAP:
        raise ResourceCapError(f"per-sample pattern probability is guarded to k <= {MC_K_CAP}")
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = np.random.default_rng(seed)
    draws = rng.choice(np.arange(1, k + 1), size=(samples, n), p=theta.probs)
    counts: dict[tuple[int, ...], int] = {}
    for row in draws:
        key = extract_pattern(row).indices
        counts[key] = counts.get(key, 0) + 1
    values = {key: -math.log2(pattern_probability(theta, Pattern(key))) for key in counts}
    mean = math.fsum(c * values[key] for key, c in counts.items()) / samples
    ss = math.fsum(c * (values[key] - mean) ** 2 for key, c in counts.items())
    stderr = math.sqrt(ss / (samples - 1) / samples)
    return MCEstimate(estimate=mean, stderr=stderr, samples=samples)


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


def expected_codelength_stepwise(theta: ParamVector, grid: Grid, n: int,
                                 model: CoderModel | None = None) -> float:
    """E[-log2 Q] summed per step over the joint prefix tree.

    Prefix probabilities come from injection sums constrained to bin-consistent
    letters, so this is an independent computation path from the raw-sequence
    enumeration in :func:`exact_entropies`.
    """
    k = theta.k
    if k > INJECTION_TREE_K_CAP:
        raise ResourceCapError(f"prefix-tree injections are guarded to k <= {INJECTION_TREE_K_CAP}")
    if model is None:
        model = CoderModel.from_source(theta, grid, n)
    probs = [float(p) for p in theta.probs]
    letter_bin = bin_index(grid, probs).tolist()

    # node: (state, injections) where injections maps a tuple of assigned
    # letters (one per index, in index order) to its weight sum
    root_state = CoderState()
    nodes: list[tuple[CoderState, dict[tuple[int, ...], float]]] = [(root_state, {(): 1.0})]
    total = 0.0
    for _ in range(n):
        nxt: list[tuple[CoderState, dict[tuple[int, ...], float]]] = []
        for state, inj in nodes:
            m = state.max_index
            # re-occurrence of each known index
            for idx in range(1, m + 1):
                b = state.index_to_bin[idx]
                child: dict[tuple[int, ...], float] = {}
                for letters, w in inj.items():
                    child[letters] = w * probs[letters[idx - 1]]
                p_child = math.fsum(child.values())
                if p_child <= 0.0:
                    continue
                q = next_symbol_prob(model, state, idx, b)
                total += p_child * -math.log2(q)
                s2 = state.copy()
                s2.update(idx, b)
                nxt.append((s2, child))
            # first occurrence of index m+1, split by the new letter's bin
            by_bin: dict[int, dict[tuple[int, ...], float]] = {}
            for letters, w in inj.items():
                used = set(letters)
                for l in range(k):
                    if l in used:
                        continue
                    b = letter_bin[l]
                    by_bin.setdefault(b, {})
                    key = letters + (l,)
                    by_bin[b][key] = by_bin[b].get(key, 0.0) + w * probs[l]
            for b, child in by_bin.items():
                p_child = math.fsum(child.values())
                if p_child <= 0.0:
                    continue
                q = next_symbol_prob(model, state, m + 1, b)
                total += p_child * -math.log2(q)
                s2 = state.copy()
                s2.update(m + 1, b)
                nxt.append((s2, child))
        nodes = nxt
    return total


def joint_pattern_bin_probability(theta: ParamVector, grid: Grid, psi, beta) -> float:
    """P(pattern = psi and bin string = beta) via bin-constrained injection sums."""
    psi = tuple(psi)
    beta = tuple(beta)
    if len(psi) != len(beta):
        raise ValueError("pattern and bin sequence lengths differ")
    Pattern(psi)  # validates restricted growth
    k = theta.k
    if k > INJECTION_TREE_K_CAP:
        raise ResourceCapError(f"injection sums are guarded to k <= {INJECTION_TREE_K_CAP}")
    m = max(psi)
    index_bin: dict[int, int] = {}
    occ = [0] * (m + 1)
    for p, b in zip(psi, beta):
        if index_bin.setdefault(p, b) != b:
            return 0.0
        occ[p] += 1
    probs = [float(x) for x in theta.probs]
    letter_bin = bin_index(grid, probs).tolist()

    def assign(j: int, used: int) -> float:
        if j > m:
            return 1.0
        return math.fsum(
            probs[i] ** occ[j] * assign(j + 1, used | (1 << i))
            for i in range(k)
            if not used & (1 << i) and letter_bin[i] == index_bin[j]
        )

    return assign(1, 0)
