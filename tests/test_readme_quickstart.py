"""The README quick-start block must run as written."""

import math


def test_quickstart_block():
    from pattern_entropy import (ParamVector, SourceAnalysis, exact_entropies,
                                 simple_bounds, ub_theorem3_family)

    theta = ParamVector.from_probs([0.08, 0.17, 0.3, 0.45])
    n = 6
    analysis = SourceAnalysis(theta, n, 0.2)
    exact = exact_entropies(theta, analysis.eta_grid, n)
    lo, hi = simple_bounds(analysis)
    ub = ub_theorem3_family(analysis, "ub3")
    assert lo.value <= exact.h_pattern <= hi.value
    assert ub.value == math.fsum(t for _, t in ub.terms)
