"""Audit and propagation records held as columns, with row objects built on access.

A tree of N leaves has N - 1 internal nodes, so a record with
one Python object per node or leaf costs far more than the arrays it is
read from.  :class:`VerificationReport` keeps :func:`povmtree.tree.verify`'s
results as one array per field, and :class:`Rows` builds a node's
:class:`NodeCheck` only when a caller reads that row;
:func:`povmtree.simulator.propagate` returns its outcomes the same way.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class Rows(Sequence):
    """Read-only sequence of ``n`` rows; row i is ``make(i)``, built anew on each access.

    Supports ``len``, negative indices, slices (a tuple of rows) and
    iteration like a tuple; ``==`` compares with another sequence of rows
    row by row, and ``hash`` is that of the tuple of rows.
    """

    def __init__(self, n: int, make) -> None:
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._make, range(*i.indices(self._n))))
        i = operator.index(i)
        if not -self._n <= i < self._n:
            raise IndexError(f"row {i} out of range for {self._n} rows")
        return self._make(i % self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class NodeCheck:
    """One internal node's completeness residual, at most ``TOL_CHECK``, and the rank of its ``m^dag m``.

    ``uses_null_correction`` is ``parent_rank < d``: a rank-deficient node,
    where the paper's construction adds its null-space correction (compile
    needs none).

    The node's operator sum and probe coupling are not recorded: the sum is
    fixed by the complete pairs and the leaves below it, and the coupling is
    checked where it is built (:func:`povmtree.linalg.complete_to_unitary`).
    """

    path: str
    completeness_residual: float
    parent_rank: int
    uses_null_correction: bool


def _row_path(k: int) -> str:
    """Path of the internal node in breadth-first row k: k + 1 in binary without its leading 1."""
    return format(k + 1, "b")[1:]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Per-node and per-leaf audit of a compiled (or deserialized) tree that passed, held as columns.

    ``node_columns`` maps each field of :class:`NodeCheck` but ``path`` to a
    read-only array with one entry per internal node, breadth first, so
    node i of level l is row ``2**l - 1 + i``.  ``leaf_columns`` maps
    ``residual`` to a read-only array with one entry per real leaf, left
    to right: leaf i is the tree's outcome ``order[i]``.  :attr:`nodes` builds
    the row records only when read.  :func:`povmtree.tree.verify` raises
    for a tree that fails, so every report passes.  Reports compare by
    identity: compare their columns instead.
    """

    node_columns: dict[str, np.ndarray]
    leaf_columns: dict[str, np.ndarray]
    max_residual: float
    passed = True  # not a field; read by perfbench/run.py (lines 159 and 186)

    @property
    def nodes(self) -> Rows:
        """One :class:`NodeCheck` per internal node, breadth first; read by perfbench/run.py."""
        columns = self.node_columns
        return Rows(len(columns["completeness_residual"]), lambda k: NodeCheck(
            _row_path(k), **{name: column.item(k) for name, column in columns.items()}))

    def summary(self) -> str:
        nodes, leaves = self.node_columns, self.leaf_columns
        completeness = nodes["completeness_residual"]
        corrected = int(nodes["uses_null_correction"].sum())
        return "\n".join([
            "verification: PASS",
            f"  internal nodes checked : {len(completeness)} ({corrected} rank-deficient)",
            f"  max completeness residual : {max(completeness.tolist(), default=0.0):.3e}",
            f"  max leaf reconstruction   : {max(leaves['residual'].tolist(), default=0.0):.3e}",
        ])
