"""Bound trade-offs across the four parametric families at n = 10^6.

The families place letter mass at different depths of the probability space,
which flips the ordering of the four general upper bounds: packing both low
bins separately wins when the levels are well separated, the merged pack wins
when everything is "small", and the per-bin occurrence credit wins for the
uniform family.
"""

from pattern_entropy import SourceAnalysis, SourceSpec, make_distribution, ub_theorem3_family

n = 10**6
VARIANTS = ("ub3", "c1", "c21", "c2_loosened")

FAMILIES = [
    ("uniform k=n^0.8", 0.25,
     SourceSpec("uniform", {"nu": 0.2}, n)),
    ("two-level, second level above 1/n^(1-eps)", 0.4,
     SourceSpec("two-level", {"phi0": 0.5, "mu": 0.4, "nu": 0.3, "level1": "below"}, n)),
    ("two-level, both levels small", 0.5,
     SourceSpec("two-level", {"phi0": 0.5, "mu": 0.5, "nu": 0.45, "level1": "above"}, n)),
    ("two-level, second level at 1/n", 0.4,
     SourceSpec("two-level", {"phi0": 0.5, "mu": 0.5, "level1": "unit"}, n)),
]

for label, eps, spec in FAMILIES:
    theta = make_distribution(spec)
    analysis = SourceAnalysis(theta, n, eps)
    values = {v: ub_theorem3_family(analysis, v).value for v in VARIANTS}
    order = sorted(values, key=values.get)
    print(f"{label}  (k = {theta.k:,}, eps = {eps})")
    for v in VARIANTS:
        marker = "  <- tightest" if v == order[0] else ("  <- loosest" if v == order[-1] else "")
        print(f"  {v:12s} {values[v] / 1e6:9.4f} Mbit{marker}")
    print()
