"""Monte Carlo pattern-entropy estimation against the exact value.

Each sampled sequence contributes -log2 of its pattern's exact probability, so
the estimator is unbiased; the standard error shrinks like 1/sqrt(samples).
The exact value sums over the profiles of the length-n patterns.
"""

from pattern_entropy import ParamVector, exact_pattern_entropy, mc_pattern_entropy

theta = ParamVector.from_probs([0.2, 0.3, 0.5])
n = 10

exact = exact_pattern_entropy(theta, n)
print(f"exact H over the patterns of {theta.k}^{n} sequences: {exact:.6f} bits\n")

print(f"{'samples':>8s} {'estimate':>10s} {'stderr':>9s} {'|err|/se':>9s}")
for samples in (100, 1000, 10_000, 100_000):
    mc = mc_pattern_entropy(theta, n, samples=samples, seed=99)
    z = abs(mc.estimate - exact) / mc.stderr if mc.stderr else 0.0
    print(f"{samples:8d} {mc.estimate:10.5f} {mc.stderr:9.5f} {z:9.2f}")

print("\nevery row should sit within ~3 standard errors of the exact value")
