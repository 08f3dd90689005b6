"""Print one sha256 per kind of output over a fixed, seeded grid of trees, or save and compare the values.

Run it in a checkout, with that checkout's package first on the path:

    PYTHONPATH=src python tests/digest.py            # the full grid, about 10 s on one core
    PYTHONPATH=src python tests/digest.py --quick    # a small grid, well under a second
    PYTHONPATH=src python tests/digest.py --save out.npz     # each kind's values, not hashed
    PYTHONPATH=src python tests/digest.py --diff old.npz new.npz  # per kind: largest change, entries whose bits moved

Two checkouts that print the same line for a kind compute that kind's bytes
identically on the grid; where they do not, ``--save`` in each and
``--diff`` show by how much the values moved and how many entries changed
bits, so a -0.0 that became +0.0 shows too.  To compare a checkout that
lacks this script, run this copy with the other checkout's ``src`` on
``PYTHONPATH``.  The kinds: every level of Kraus pairs, the leaves'
cumulative Kraus operators, ``save_tree``'s file bytes (saved as an array
of bytes), ``verify``'s node and leaf columns, ``max_residual`` (d = 1 on its
own line, since numpy sums a one-column array in another association than
a wider one), ``propagate``'s probabilities, ``sample``'s counts at a fixed
seed and the post-states of the reached outcomes.  The grid draws each POVM
with random ranks (rank one for the large cases), in index order, in a
random partition, and with random Kraus freedom.  Pytest does not collect
this file.
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

KINDS = ("kraus", "leaf_kraus", "tree_file", "verify_columns", "max_residual", "max_residual_d1",
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


def outputs(quick: bool):
    """Yield ``(kind, values)`` over the grid, in order: a list of arrays, the file's bytes or a residual."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tree"
        for d, k, variant, large in grid(quick):
            tree, state = case(d, k, variant, large)
            yield "kraus", tree.kraus
            yield "leaf_kraus", [tree.cumulative_kraus(tree.depth)[:k]]
            treeio.save_tree(tree, path)
            yield "tree_file", path.read_bytes()
            report = verify(tree)
            yield "verify_columns", [*report.node_columns.values(), *report.leaf_columns.values()]
            yield "max_residual_d1" if d == 1 else "max_residual", report.max_residual
            outcomes = propagate(tree, state)
            yield "propagate", [outcomes.probabilities]
            yield "sample_counts", [np.array(sample(tree, state, 10**6, seed=k).counts)]
            yield "post_states", [outcomes[int(j)].post_state.params
                                  for j in np.flatnonzero(outcomes.reached)[:POST_STATES]]


def feed(h, *arrays) -> None:
    """Add each array's dtype, shape and bytes to a hash."""
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digests(quick: bool) -> dict[str, str]:
    """The sha256 of each kind over the grid."""
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    for kind, values in outputs(quick):
        if kind == "tree_file":
            hashes[kind].update(values)
        elif kind.startswith("max_residual"):
            hashes[kind].update(values.hex().encode())
        else:
            feed(hashes[kind], *values)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def save(quick: bool, path) -> None:
    """Write every kind's values over the grid to one ``.npz`` file, as ``<kind>.<i>`` in grid order."""
    arrays, counts = {}, dict.fromkeys(KINDS, 0)
    for kind, values in outputs(quick):
        if kind == "tree_file":
            values = [np.frombuffer(values, np.uint8)]
        elif kind.startswith("max_residual"):
            values = [values]
        for a in values:
            arrays[f"{kind}.{counts[kind]}"], counts[kind] = np.asarray(a), counts[kind] + 1
    np.savez(path, **arrays)


def _entries(a: np.ndarray) -> np.ndarray:
    """An array's bytes, one row an entry."""
    return np.ascontiguousarray(a).reshape(-1, 1).view(np.uint8)


def differences(old, new) -> dict[str, tuple[float, int]]:
    """Per kind, the largest absolute difference between two saved runs and how many entries differ in their bits.

    An array that one run lacks, or holds in another shape or type, counts
    as an infinite difference with each of its entries differing.
    """
    with np.load(old) as a, np.load(new) as b:
        a, b = dict(a), dict(b)
    worst, moved = dict.fromkeys(KINDS, 0.0), dict.fromkeys(KINDS, 0)
    for name in a.keys() | b.keys():
        kind = name.rsplit(".", 1)[0]
        x, y = a.get(name), b.get(name)
        if x is None or y is None or x.shape != y.shape or x.dtype != y.dtype:
            worst[kind] = np.inf
            moved[kind] += max(getattr(x, "size", 0), getattr(y, "size", 0))
        elif x.size:
            worst[kind] = max(worst[kind], float(np.abs(x.astype(complex) - y).max()))
            moved[kind] += int((_entries(x) != _entries(y)).any(axis=1).sum())
    return {kind: (worst[kind], moved[kind]) for kind in KINDS}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run the small grid only")
    parser.add_argument("--save", metavar="NPZ", help="write each kind's values to this file, not hashes")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="print per kind the largest absolute difference between two saved runs "
                             "and the number of entries whose bits differ")
    args = parser.parse_args(argv)
    if args.diff:
        for kind, (worst, moved) in differences(*args.diff).items():
            print(f"{kind} {worst:.3e} {moved}")
    elif args.save:
        save(args.quick, args.save)
    else:
        for kind, digest in digests(args.quick).items():
            print(f"{kind} {digest}")


if __name__ == "__main__":
    main()
