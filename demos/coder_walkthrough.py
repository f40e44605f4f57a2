"""Step through the sequential (pattern, bin) probability assignment.

Each bin of the probability-space grid starts with its total mass.  The first
occurrence of a new index in bin b takes the bin's remaining first-occurrence
mass; re-occurrences cost the bin's per-letter rate.  The walkthrough prints
every conditional probability, then closes the loop with the arithmetic coder:
the emitted bitstring is within two bits of -log2 Q and decodes back exactly.
"""

from pattern_entropy import (
    CoderModel,
    CoderState,
    ParamVector,
    bin_sequence,
    build_grid,
    decode,
    encode,
    extract_pattern,
    next_symbol_prob,
    sample_sequence,
    sequence_codelength,
)

theta = ParamVector.from_probs([0.1, 0.15, 0.3, 0.45])
n, eps, seed = 12, 0.25, 2024

grid = build_grid("eta", n, eps)
model = CoderModel.from_source(theta, grid, n)
print("per-bin model parameters (only occupied bins):")
for b in range(model.num_bins):
    if model.kbins[b]:
        print(f"  bin {b}: k_b={model.kbins[b]}  phi_b={model.phi[b]:.4f}  "
              f"rho_b={model.rho[b]:.5f}  ell_b=min(k_b, n)={min(model.kbins[b], n)}")

x = sample_sequence(theta, n, seed=seed)
psi = extract_pattern(x)
beta = bin_sequence(theta, grid, x)
print(f"\nsequence  x    = {[int(s) for s in x]}")
print(f"pattern   psi  = {psi}")
print(f"bins      beta = {list(beta)}")

state = CoderState()
print("\nstep-by-step conditional probabilities:")
for j, (p, b) in enumerate(zip(psi, beta)):
    q = next_symbol_prob(model, state, p, b)
    kind = "new  " if p == state.max_index + 1 else "seen "
    print(f"  step {j:2d}: index {p} in bin {b} ({kind}) -> Q = {q:.5f}")
    state.update(p, b)

codelength = sequence_codelength(model, psi, beta)
bits = encode(model, psi, beta)
print(f"\n-log2 Q           = {codelength:.4f} bits")
print(f"emitted bitstring = {bits.to01()}  ({len(bits)} bits, overhead "
      f"{len(bits) - codelength:.4f})")
assert decode(model, bits, n) == (psi.indices, beta)
print("decode(encode(.)) reproduced the (pattern, bin) pair exactly")
