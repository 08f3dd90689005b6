"""Compile an arbitrary POVM and check it three ways.

Any finite POVM compiles: an outcome count that is not a power of two
leaves the tree's last leaves as padding, elements may have any rank, and rank-deficient
intermediate operators are handled by the null-space correction.  The
compiled tree is checked against the direct Born rule and against a one-shot
projective extension of the same POVM.
"""

import numpy as np

import povmtree as pt

rng = np.random.default_rng(2024)

# A five-outcome POVM on a qutrit with mixed element ranks.
povm = pt.random_povm(5, 3, rng, ranks=[1, 2, 1, 3, 1])
print(f"random POVM: {povm.n_outcomes} outcomes on dimension {povm.dim}")

tree = pt.compile_tree(povm)
print(f"compiled tree: depth {tree.depth}, {1 << tree.depth} leaves "
      f"({(1 << tree.depth) - tree.povm.n_outcomes} of them padding)\n")

report = pt.verify(tree)
print(report.summary())

# Correction operators appear wherever an intermediate operator loses rank.
for check in report.nodes:
    flag = "g-corrected" if check.uses_null_correction else "full rank"
    print(f"  node '{check.path or 'root'}': rank {check.parent_rank}, {flag}, "
          f"completeness residual {check.completeness_residual:.2e}")

# Three independent probability routes must coincide for every state.
extension = pt.full_neumark(tree.povm)
print(f"\none-shot extension dimension: {extension.extended_dim} "
      f"(one per rank-one piece)")

worst = 0.0
for _ in range(200):
    state = pt.random_density(3, rng)
    via_tree = np.array([o.probability for o in pt.propagate(tree, state)])
    via_born = pt.direct_probabilities(tree.povm, state)
    via_extension = extension.probabilities(state.density)
    worst = max(
        worst,
        np.max(np.abs(via_tree - via_born)),
        np.max(np.abs(via_tree - via_extension)),
    )
print(f"max deviation across 200 random states and three routes: {worst:.2e}")

# Kraus unitary freedom moves post-measurement states, never probabilities.
freedom = [pt.random_unitary(3, rng) for _ in range(5)]
rotated = pt.apply_freedom(pt.default_kraus(povm), freedom)
rotated_tree = pt.compile_tree(povm, rotated)
state = pt.random_density(3, rng)
p_base = np.array([o.probability for o in pt.propagate(tree, state)])
p_rot = np.array([o.probability for o in pt.propagate(rotated_tree, state)])
print(f"probability shift under random Kraus freedom: {np.max(np.abs(p_base - p_rot)):.2e}")
