"""Operation-count comparison of three POVM realizations.

Pairwise-interaction counts for implementing an N-outcome measurement on a
d-dimensional system: the one-shot projective extension needs an N x N
unitary (N(N-1)/2 operations), checking outcomes one at a time with a single
extra dimension needs up to (N-d)(d+1)d/2, and the binary measurement tree
needs one 2d x 2d coupling per level, ceil(log2 N) * d(2d-1) in total.
"""

from povmtree.cost import compare, crossover

print(f"{'N':>6} {'one-shot':>10} {'single-extra':>13} {'tree':>6} {'depth':>6}")
for n in (4, 16, 64, 256, 1024, 4096):
    r = compare(n, 2)
    print(f"{r.n_outcomes:>6} {r.neumark_ops:>10} {r.single_extra_dim_ops:>13} "
          f"{r.binary_tree_ops:>6} {r.binary_tree_depth:>6}")

print("\nthe tree count is logarithmic in N: doubling N adds exactly d(2d-1)")
for d in (2, 3, 4):
    print(f"  d={d}: +{d * (2 * d - 1)} per doubling, "
          f"strictly cheapest from N = {crossover(d)}")

print("\nworst-case versus average for the single-extra-dimension method")
r = compare(1024, 2)
print(f"  N=1024, d=2: worst {r.single_extra_dim_ops}, "
      f"average {r.single_extra_dim_ops_average:g} when outcomes are equally likely")
