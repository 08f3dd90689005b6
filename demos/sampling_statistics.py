"""Seeded Monte Carlo sampling of a compiled measurement tree.

The shots that reach a node split between its two probe outcomes as one
binomial draw at the node's conditional probability, level by level from the
root, so the counts follow the sequential measurement as it would run in
hardware, at a cost that does not depend on the number of shots.  Sampling
is deterministic: the same tree, state, shots and seed give the same report.
"""

import numpy as np

import povmtree as pt

tree = pt.compile_tree(pt.tetrad(), partition=[0, 3, 1, 2])
state = pt.QuantumState.maximally_mixed(2)

# On the maximally mixed state every tetrad outcome is equally likely.
print("exact probabilities:", [o.probability for o in pt.propagate(tree, state)])

report = pt.sample(tree, state, shots=1_000_000, seed=42)
print(f"\n{report.shots} shots, seed {report.seed}:")
for label, count, expected in zip(report.labels, report.counts, report.expected):
    print(f"  outcome {label}: {count:>7}  frequency {count / report.shots:.6f}  "
          f"expected {expected:.6f}")
print(f"largest deviation: {report.max_sigma_deviation:.2f} binomial sigma")

again = pt.sample(tree, state, shots=1_000_000, seed=42)
print("identical rerun with the same seed:", report == again)

other = pt.sample(tree, state, shots=1_000_000, seed=43)
print("different seed, different counts  :", report.counts != other.counts)

# A pure input state skews the distribution; the sampler follows it.
skewed = pt.QuantumState.basis(2, 0)
report = pt.sample(tree, skewed, shots=100_000, seed=7)
print(f"\n|0><0| input: counts {report.counts} "
      f"(expected ratios 1/2, 1/6, 1/6, 1/6)")
