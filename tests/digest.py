"""Print one sha256 per kind of output over a fixed, seeded grid of trees.

Run it in a checkout, with that checkout's package first on the path:

    PYTHONPATH=src python tests/digest.py            # the full grid, about 10 s on one core
    PYTHONPATH=src python tests/digest.py --quick    # a small grid, well under a second

Two checkouts that print the same line for a kind compute that kind's bytes
identically on the grid.  To compare a checkout that lacks this script, run
this copy with the other checkout's ``src`` on ``PYTHONPATH``.  The kinds:
every level of Kraus pairs, ``save_tree``'s file bytes, ``verify``'s node
and leaf columns, ``max_residual`` (d = 1 on its own line, since numpy sums
a one-column array in another association than a wider one), ``propagate``'s
probabilities, ``sample``'s counts at a fixed seed and the post-states of
the reached outcomes.  The grid draws each POVM with random ranks (rank one
for the large cases), in index order, in a random partition, and with
random Kraus freedom.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from povmtree import (
    apply_freedom,
    compile_tree,
    default_kraus,
    io as treeio,
    propagate,
    random_density,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    sample,
    verify,
)

KINDS = ("kraus", "tree_file", "verify_columns", "max_residual", "max_residual_d1",
         "propagate", "sample_counts", "post_states")
VARIANTS = ("plain", "partition", "freedom")
# rank-one POVMs too large to sweep by k: padded ones next to their unpadded neighbours
LARGE = ((32, 63), (32, 64), (32, 33), (16, 65), (2, 4095), (4, 1023))
POST_STATES = 64  # per tree, the first reached outcomes' post-states


def grid(quick: bool):
    """Yield ``(d, k, variant, large)``: the cases, in a fixed order."""
    dims, ks = ((1, 2, 3), (1, 2, 3, 5, 7, 8)) if quick else ((1, 2, 3, 5), range(1, 70))
    for d in dims:
        for k in ks:
            for variant in VARIANTS:
                yield d, k, variant, False
    if not quick:
        for d, k in LARGE:
            yield d, k, "plain", True


def case(d: int, k: int, variant: str, large: bool):
    """The tree and state of one case, from a generator seeded by the case alone."""
    rng = np.random.default_rng([d, k, VARIANTS.index(variant), int(large)])
    p = random_rank_one_povm(k, d, rng) if large else random_povm(k, d, rng, None if k >= d else [d] * k)
    partition = rng.permutation(k) if variant == "partition" else None
    factorization = None
    if variant == "freedom":
        factorization = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(k)])
    return compile_tree(p, factorization, partition), random_density(d, rng)


def feed(h, *arrays) -> None:
    """Add each array's dtype, shape and bytes to a hash."""
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digests(quick: bool) -> dict[str, str]:
    """The sha256 of each kind over the grid."""
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tree"
        for d, k, variant, large in grid(quick):
            tree, state = case(d, k, variant, large)
            feed(hashes["kraus"], *tree.kraus)
            treeio.save_tree(tree, path)
            hashes["tree_file"].update(path.read_bytes())
            report = verify(tree)
            feed(hashes["verify_columns"], *report.node_columns.values(), *report.leaf_columns.values())
            hashes["max_residual_d1" if d == 1 else "max_residual"].update(report.max_residual.hex().encode())
            outcomes = propagate(tree, state)
            feed(hashes["propagate"], outcomes.probabilities)
            feed(hashes["sample_counts"], np.array(sample(tree, state, 10**6, seed=k).counts))
            for j in np.flatnonzero(outcomes.reached)[:POST_STATES]:
                feed(hashes["post_states"], outcomes[int(j)].post_state.params)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run the small grid only")
    args = parser.parse_args(argv)
    for kind, digest in digests(args.quick).items():
        print(f"{kind} {digest}")


if __name__ == "__main__":
    main()
