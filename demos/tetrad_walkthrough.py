"""Walk through compiling the tetrad (qubit SIC) measurement.

The tetrad has four rank-one outcomes whose Bloch vectors form a regular
tetrahedron.  Implemented directly, it needs a projective measurement on an
enlarged space; here we realize it as two rounds of probe-qubit measurements:
first a partial filtering that decides between the outcome groups {0,3} and
{1,2}, then a projective measurement inside the chosen group.
"""

import numpy as np

import povmtree as pt

np.set_printoptions(precision=6, suppress=True)

povm = pt.tetrad()
print("tetrad elements M_j (each rank one, summing to the identity):")
for label, m in zip(povm.labels, povm.elements):
    print(f"M_{label} =\n{m}\n")

# Group outcomes {0,3} against {1,2} at the first level, as the partition.
tree = pt.compile_tree(povm, partition=[0, 3, 1, 2])

# Level 1 of the tree holds the two groups; their cumulative operators are
# the grouped sums.
m03, m12 = tree.cumulative_operators(1)
print("first-level grouped operators:")
print(f"M03 = M_0 + M_3 =\n{m03}\n")
print(f"M12 = M_1 + M_2 =\n{m12}\n")

w, v = pt.hermitian_eig(m03)
print(f"spectrum of M03: {w}  (exactly (3 +/- sqrt(3))/6)")
print(f"shared eigenbasis (columns):\n{v}\n")

# The first round couples the qubit to a probe prepared in |0> via a 4x4
# unitary whose first block column stacks the two Kraus operators: each group's
# triangular factor F, fixed by its Gram matrix F^dag F, the grouped sum.
u = tree.dilation("")
print(f"probe coupling at the root:\n{u}\n")
print("unitarity residual:", np.linalg.norm(u.conj().T @ u - np.eye(4)))
print("block <0|U|0> has Gram matrix M03:",
      np.allclose(u[:2, :2].conj().T @ u[:2, :2], m03))

# Conditioned on the first probe outcome, the second round is projective.
# tree.pairs(1)[i] is the pair measured at node i of level 1, built from the
# words the tree holds; leaf 2i + c is outcome tree.order[2i + c].
print("\nsecond-stage measurement operators:")
pairs = tree.pairs(1)
second = {j: pairs[i // 2, i % 2] for i, j in enumerate(tree.order)}
for j in range(4):
    b = second[j]
    op = b.conj().T @ b
    print(f"B_{j} (trace {np.trace(op).real:.6f}, rank-one projector) =\n{op}\n")

# The tree reproduces the tetrad exactly.
report = pt.verify(tree)
print(report.summary())

state = pt.QuantumState.basis(2, 0)
probs = [o.probability for o in pt.propagate(tree, state)]
print(f"\nleaf probabilities for |0><0|: {np.round(probs, 10)}")
print("direct Born-rule values      :", pt.direct_probabilities(povm, state))
