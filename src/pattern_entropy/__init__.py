"""Pattern-entropy toolkit for finite i.i.d. sources.

Computes every closed-form bound on the entropy of patterns (sequences of
first-occurrence indices), exact small-scale oracles for validating them, a
Monte Carlo estimator, and the sequential (pattern, bin) probability
assignment together with a bit-exact arithmetic coder for it.
"""

from ._common import ResourceCapError
from .distributions import (
    ParamVector,
    SourceSpec,
    binary_entropy,
    iid_entropy,
    make_distribution,
    sample_sequence,
)
from .grids import (
    BinStats,
    Grid,
    OccurrenceStats,
    bin_index,
    bin_stats,
    build_grid,
    low_thresholds,
    occurrence_stats,
)
from .patterns import (
    BinSeq,
    Pattern,
    bin_sequence,
    enumerate_patterns,
    extract_pattern,
    pattern_probability,
)
from .oracle import (
    ExactEntropies,
    MCEstimate,
    exact_entropies,
    exact_pattern_entropy,
    mc_pattern_entropy,
)
from .bounds import (
    BoundReport,
    PackedEntropies,
    SourceAnalysis,
    contribution_limits,
    distinct_count_pmf,
    epsilon_n,
    gamma_fixed_point,
    lb_theorem2,
    lb_theorem4,
    packed_entropies,
    range_decreases,
    range_theorem5,
    simple_bounds,
    stirling_bounds,
    ub_theorem1,
    ub_theorem3_family,
)
from .coder import (
    Bitstring,
    CoderModel,
    CoderState,
    DecodeError,
    decode,
    encode,
    next_symbol_prob,
    roundtrip,
    sequence_codelength,
)

__version__ = "0.1.0"

__all__ = [
    "ResourceCapError",
    "ParamVector", "SourceSpec", "binary_entropy", "iid_entropy",
    "make_distribution", "sample_sequence",
    "BinStats", "Grid", "OccurrenceStats", "bin_index", "bin_stats",
    "build_grid", "low_thresholds", "occurrence_stats",
    "BinSeq", "Pattern", "bin_sequence", "enumerate_patterns", "extract_pattern",
    "pattern_probability",
    "ExactEntropies", "MCEstimate", "exact_entropies", "exact_pattern_entropy",
    "mc_pattern_entropy",
    "BoundReport", "PackedEntropies", "SourceAnalysis", "contribution_limits",
    "distinct_count_pmf", "epsilon_n", "gamma_fixed_point", "lb_theorem2",
    "lb_theorem4", "packed_entropies", "range_decreases", "range_theorem5",
    "simple_bounds", "stirling_bounds", "ub_theorem1", "ub_theorem3_family",
    "Bitstring", "CoderModel", "CoderState", "DecodeError", "decode", "encode",
    "next_symbol_prob", "roundtrip", "sequence_codelength",
]
