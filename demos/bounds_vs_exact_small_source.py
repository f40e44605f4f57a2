"""Evaluate every bound for one small source and sandwich the exact value.

At desk scale we can enumerate all k^n sequences, so the exact pattern entropy
is available and every closed-form bound can be checked against it directly.
"""

from pattern_entropy import (
    CoderModel,
    ParamVector,
    SourceAnalysis,
    exact_entropies,
    iid_entropy,
    lb_theorem2,
    lb_theorem4,
    simple_bounds,
    ub_theorem1,
    ub_theorem3_family,
)

theta = ParamVector.from_probs([0.08, 0.17, 0.3, 0.45])
n, eps = 6, 0.2

print(f"source: {[float(p) for p in theta.probs]}   n={n}   H(X)={iid_entropy(theta):.4f} bits/symbol")

analysis = SourceAnalysis(theta, n, eps)
grid = analysis.eta_grid
exact = exact_entropies(theta, grid, n, model=CoderModel.from_source(theta, grid, n))
print(f"\nexact oracle (enumerating {theta.k}^{n} sequences):")
print(f"  block entropy nH(X)      = {exact.h_x_block:8.4f} bits")
print(f"  pattern entropy          = {exact.h_pattern:8.4f} bits")
print(f"  joint (pattern,bin)      = {exact.h_joint:8.4f} bits")
print(f"  sequential codelength    = {exact.expected_codelength:8.4f} bits")

lo, hi = simple_bounds(analysis)
print(f"\nsimple sandwich: {lo.value:.4f} <= {exact.h_pattern:.4f} <= {hi.value:.4f}")

print("\nclosed-form bounds (asymptotic residuals are flagged, not added):")
rows = [
    ub_theorem1(analysis),
    *lb_theorem2(analysis),
    ub_theorem3_family(analysis, "ub3"),
    ub_theorem3_family(analysis, "c1"),
    ub_theorem3_family(analysis, "c21"),
    ub_theorem3_family(analysis, "c2_loosened"),
    lb_theorem4(analysis),
]
for rep in rows:
    gap = rep.value - exact.h_pattern
    flags = ",".join(rep.residual_flags) or "-"
    print(f"  {rep.name:24s} {rep.value:9.4f} bits   gap to exact {gap:+8.4f}   residuals: {flags}")

print("\nper-term breakdown of the split-pack upper bound:")
for name, val in rows[3].terms:
    print(f"  {name:28s} {val + 0.0:+9.4f}")  # + 0.0: a deduction of nothing prints +0.0000
print("  " + "-" * 39)
print(f"  {'total':28s} {rows[3].value:+9.4f}")
