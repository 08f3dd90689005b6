"""Binary measurement tree construction and verification.

An N-outcome POVM is implemented as a depth-ceil(log2 N) full binary tree of
two-outcome measurements.  Outcomes are padded to a power of two and laid
out left to right; each node x splits its outcome set in half, and S_x is
the sum of the elements below it (the identity at the root).  With
R_x = sqrt(S_x), the two-outcome Kraus operator applied at x towards its
child c is, as the paper writes it from the partial sums alone,

    b_c = R_c @ pinv(R_x) + a_c * g

where g is the projector onto the kernel of R_x and a_0 = a_1 = 1/sqrt(2)
share it equally (any |a_0|^2 + |a_1|^2 = 1 would do).  Since
supp S_c lies in supp S_x, the pair is complete and b_c @ R_x = R_c.  One
``eigh`` of each S_x gives R_x, its pseudoinverse, g and its rank
(:func:`povmtree.linalg.psd_parts`).  Leaf targets may instead come from
supplied Kraus operators m_c; below a rank-deficient parent, g is then
carried by each m_c's polar isometry V_c, which keeps the pair complete.

A compiled tree is held as the paper's list of rounds: level l is one
``(2**l, 2, d, d)`` array of Kraus pairs, and nothing derived is stored.
Child cumulative operators are the products b_c @ m_x (see
:meth:`MeasurementTree.cumulative_kraus`), so the factorization identity
m_child = b_child @ m_parent holds by construction at every edge.  A
pair's probe coupling (:meth:`MeasurementTree.dilation`) exists exactly
when the pair is complete, so :func:`verify` checks completeness and the
coupling is checked where it is built.  Compilation works a level, and
verification depth first (:func:`_walk`), with one stacked LAPACK call per
block of at most 64 KiB of nodes for each kind of decomposition; checks
report block by block in node order, so a later-kind failure in an earlier
block comes before an earlier-kind one in a later block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dilation import completeness_residuals, dilate_binary
from .errors import ValidationError, VerificationError
from .linalg import (
    TOL_CHECK,
    adjoint,
    as_stack,
    blocks,
    is_dust,
    psd_parts,
    psd_sqrt_stack,
    rank_mask,
    svd_inverse,
)
from .povm import Povm, pad_to_power_of_two
from .records import VerificationReport

# The weight a_0 = a_1 of the null-space correction in both children's operators;
# multiplied, not divided by sqrt(2), which rounds differently in the last bit
_A = 1 / math.sqrt(2)


def node_path(level: int, index: int) -> str:
    """Probe-outcome bitstring of node ``index`` of ``level`` ('' at the root)."""
    return format(index, f"0{level}b") if level else ""


def _descend(pairs: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Children's cumulative Kraus operators ``b_c @ m_x``; child c of node i sits at 2i + c."""
    return (pairs @ parents[:, None]).reshape(-1, *parents.shape[1:])


def _walk(tree: MeasurementTree, root: np.ndarray, child):
    """Yield ``(level, first, block)`` over every node of a tree, depth first, a block at a time.

    ``block`` holds nodes ``first, first + 1, ...`` of ``level``: ``root[None]``
    at the root, then ``child(pairs, parents)`` for runs of at most half a
    :func:`povmtree.linalg.blocks` budget of parents, so each block fits one
    budget.  Leaves come in leaf order, and at most one block per level is held.
    """
    half = max(1, next(blocks(1 << tree.depth, root.shape[-1])).stop // 2)
    yield 0, 0, root[None]
    path = [(0, 0, root[None])] if tree.depth else []  # per level, the parents still to descend
    while path:
        level, first, parents = path.pop()
        if len(parents) > half:
            path.append((level, first + half, parents[half:]))
        children = child(tree.kraus[level][first : first + half], parents[:half])
        yield level + 1, 2 * first, children
        if level + 1 < tree.depth:
            path.append((level + 1, 2 * first, children))


def _gram(m: np.ndarray) -> np.ndarray:
    """Symmetrised ``m^dag m`` of each matrix of a stack."""
    g = adjoint(m) @ m
    return (g + adjoint(g)) / 2


def _ordered_sums(elements: np.ndarray, order: np.ndarray, lo: int, hi: int, span: int):
    """Sum of each run of ``span`` leaves in ``lo:hi``, paired as the tree pairs them.

    Leaf i is ``elements[order[i]]``.  A range larger than a block is split
    in two, so at most one block of elements is gathered at a time.
    """
    if span == 1 or next(blocks(hi - lo, elements.shape[-1])).stop == hi - lo:
        s = elements[order[lo:hi]]
        while span > 1:
            s, span = s[0::2] + s[1::2], span // 2
        return s
    sums = partial(_ordered_sums, elements, order)
    if hi - lo > span:  # several runs: each half of them on its own
        mid = lo + (hi - lo) // span // 2 * span
        return np.concatenate([sums(lo, mid, span), sums(mid, hi, span)])
    return sums(lo, lo + span // 2, span // 2) + sums(lo + span // 2, hi, span // 2)


@dataclass(frozen=True, eq=False)
class MeasurementTree:
    """Compiled binary measurement tree over a padded POVM.

    ``kraus[l]`` is a read-only ``(2**l, 2, d, d)`` array holding round l's
    Kraus pairs in breadth-first order: the pair measured at the node with
    probe path x sits at ``kraus[len(x)][int(x, 2)]``, b0 before b1.  Leaf i
    (left to right) is outcome ``order[i]`` of ``povm``; ``order`` is one
    read-only ``intp`` array, a permutation of ``0..N-1``.  Cumulative
    operators and dilations are computed on demand and never stored.
    """

    povm: Povm
    order: np.ndarray
    kraus: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        """Number of rounds of Kraus pairs, ``len(kraus)``."""
        return len(self.kraus)

    def cumulative_kraus(self, level: int) -> np.ndarray:
        """Cumulative Kraus operators of the ``2**level`` nodes of a level, shape ``(2**level, d, d)``."""
        if not 0 <= level <= self.depth:
            raise IndexError(f"level {level} not in 0..{self.depth}")
        m = np.eye(self.povm.dim, dtype=complex)[None]
        for pairs in self.kraus[:level]:
            m = _descend(pairs, m)
        return m

    def cumulative_operators(self, level: int) -> np.ndarray:
        """Cumulative operators ``m^dag m`` of a level's nodes; at the leaves, the POVM elements."""
        return _gram(self.cumulative_kraus(level))

    def dilation(self, path: str) -> np.ndarray:
        """Read-only 2d x 2d probe coupling of the internal node at ``path``, built and checked anew."""
        if len(path) >= self.depth or set(path) - {"0", "1"}:
            raise KeyError(f"no internal node at path {path!r}")
        return dilate_binary(self.kraus[len(path)][int(path or "0", 2)])


def _raise_first(residuals: np.ndarray, what: str, text: str, limit: float, level: int | None,
                 first: int):
    """Raise a :class:`VerificationError` for the first node whose residual exceeds ``limit``."""
    bad = np.flatnonzero(residuals > limit)
    if bad.size:
        i = int(bad[0])
        raise VerificationError(f"{text}, residual {residuals[i]:.3e}", what=what,
                                residual=residuals[i],
                                path=None if level is None else node_path(level, first + i))


def _split_level(targets: np.ndarray, parents: np.ndarray, pinv: np.ndarray, kernel: np.ndarray,
                 polar: bool, level: int | None = None, first: int = 0) -> np.ndarray:
    """Kraus pairs ``(k, 2, d, d)`` taking each parent of a stack to its two targets.

    ``b_c = m_c @ pinv + a_c * g``, from each parent's pseudoinverse and
    ``kernel`` map g (with ``polar`` set, ``a_c * V_c @ g``).  Errors name
    node ``first + i`` of ``level`` by its path (none when ``level`` is None).
    """
    raise_first = partial(_raise_first, limit=TOL_CHECK, level=level, first=first)
    # m_0^dag m_0 + m_1^dag m_1 is the Gram matrix of the column block [m_0; m_1]
    pre = np.linalg.norm(_gram(targets.reshape(len(targets), -1, targets.shape[-1])) - _gram(parents),
                         axis=(-2, -1))
    raise_first(pre, "children sum", "child operators do not sum to the parent operator")

    pairs = targets @ pinv[:, None]
    deficient = np.flatnonzero(kernel.any(axis=(-2, -1)))
    if deficient.size:
        g = kernel[deficient][:, None]
        if polar:
            g = np.matmul(*np.linalg.svd(targets[deficient])[::2]) @ g  # u @ vh, without holding u, vh
        pairs[deficient] += _A * g
    raise_first(completeness_residuals(pairs), "completeness", "completeness post-check failed")
    fact = pairs @ parents[:, None] - targets
    fact = np.sqrt(np.einsum("...ij,...ij->...", fact.view(float), fact.view(float)))  # |.|_F
    # per node, b0's residual if it fails, else b1's
    worst = np.where(fact[:, 0] > TOL_CHECK, fact[:, 0], fact[:, 1])
    raise_first(worst, "factorization", "factorization post-check failed")
    return pairs


def null_space_isometry(parent_kraus) -> np.ndarray:
    """Correction operator g with g @ parent = 0 and g^dag g = I - P P^+.

    From the SVD ``parent = U S W^dag`` with numerical rank r,

        g = sum_{j>r} |w_j><u_j|

    maps the co-kernel basis u_j (left singular vectors with zero singular
    value) onto the kernel basis w_j.  ``g^dag g`` is the projector onto the
    co-kernel, exactly the piece missing from ``P P^+`` in the completeness
    sum, and ``g @ parent`` vanishes because each ``<u_j|`` annihilates the
    range of the parent.  Returns the zero matrix for a full-rank parent and
    a unitary for the zero matrix.
    """
    return svd_inverse(as_stack([parent_kraus]))[1][0]


def split_node(children_kraus, parent_kraus) -> np.ndarray:
    """Construct the two-outcome Kraus pair taking a parent to its children.

    Parameters
    ----------
    children_kraus
        Pair (m_left, m_right) of target Kraus operators satisfying
        ``m_left^dag m_left + m_right^dag m_right = parent^dag parent``.
    parent_kraus
        The parent node's cumulative Kraus operator.

    Returns the read-only ``(2, d, d)`` pair ``[b0, b1]`` with
    ``b_c = m_c @ pinv(parent) + a_c * V_c @ g`` and ``a_c = 1/sqrt(2)``,
    where g is the parent's null-space correction and V_c the polar
    isometry of the child target (identity-acting for Hermitian targets, so
    the plain ``m @ pinv + a g`` ansatz is recovered).  Guarantees, within
    ``TOL_CHECK``, completeness ``b0^dag b0 + b1^dag b1 = I`` and the
    factorization ``b_c @ parent = m_c``.  :func:`compile_tree` runs the
    same construction on a whole level at once.

    Raises
    ------
    ValidationError
        As :func:`povmtree.linalg.as_stack`, unless the children are two
        finite matrices of the parent's square shape.
    VerificationError
        ``what="children sum"`` if the precondition sum fails;
        ``"completeness"`` or ``"factorization"`` if a post-check fails,
        which signals a numerical-rank misjudgment in the parent operator.
    """
    parent = as_stack([parent_kraus])
    children = as_stack(children_kraus, parent.shape[1:])
    if len(children) != 2:
        raise ValidationError(f"got {len(children)} child operators, expected 2", what="shape")
    parent = np.where(is_dust(parent)[:, None, None], 0.0, parent)
    pair = _split_level(children[None], parent, *svd_inverse(parent), polar=True)[0]
    pair.setflags(write=False)
    return pair


def is_permutation(order: np.ndarray, n: int) -> bool:
    """Whether an integer array holds each of 0..n-1 exactly once."""
    seen = np.zeros(n + 1, dtype=bool)  # slot n marks an entry out of range
    seen[np.where((0 <= order) & (order < n), order, n)] = True
    return len(order) == n and bool(seen[:n].all())


def _resolve_partition(partition, n_real: int, n_padded: int) -> np.ndarray:
    """The leaf order as a read-only ``intp`` array; entries must be Python or NumPy integers."""
    order = np.arange(n_padded)
    if partition is not None:
        entries = list(partition)
        valid = all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
                    and 0 <= j < n_padded for j in entries)
        order = np.array(entries if valid else [], dtype=np.intp)
        if len(order) == n_real < n_padded:
            order = np.concatenate([order, np.arange(n_real, n_padded)])
        if not is_permutation(order, n_padded):
            raise ValidationError(f"partition must be a permutation of 0..{n_padded - 1} "
                                  f"(or of the {n_real} unpadded outcomes)", what="partition")
    order.setflags(write=False)
    return order


def compile_tree(
    p: Povm,
    factorization: np.ndarray | None = None,
    partition=None,
) -> MeasurementTree:
    """Compile a POVM into a binary measurement tree.

    The outcome set is padded to a power of two and laid out left to right in
    ``partition`` order (default: index order), each node splitting its
    ordered outcome list in half.  Leaf targets come from ``factorization``,
    an ``(N, d, d)`` array of Kraus operators with ``m_j^dag m_j = M_j`` as
    :func:`povmtree.povm.default_kraus` returns (default: Hermitian square
    roots); internal targets are square roots of the partial element sums,
    added in pairs from the ordered elements.  Levels are compiled top-down,
    last block of at most 64 KiB of parents first, with one stacked ``eigh``
    of the children's sums, whose decompositions overwrite their parents';
    checks report block by block in node order (a later-kind failure in an
    earlier block comes first).

    ``partition``, of Python or NumPy integers (not ``bool``), may permute
    the padded outcome set or just the original outcomes, in which case
    padding indices keep their tail positions.

    Raises
    ------
    ValidationError
        ``what="partition"`` unless ``partition`` is a permutation as above.
        Unless ``factorization`` holds one d x d operator per original or
        padded outcome: ``what="shape"`` (``index`` naming the first
        operator of the wrong shape, if any) or ``"finiteness"`` (``index``
        naming the first operator with an entry that is not finite).
    VerificationError
        From the checks of :func:`split_node`, naming the first failing
        node's path.
    """
    padded = pad_to_power_of_two(p)
    n, d = padded.n_outcomes, padded.dim
    depth = n.bit_length() - 1
    order = _resolve_partition(partition, p.n_outcomes, n)
    if factorization is not None:
        factorization = as_stack(factorization, (d, d))
        if len(factorization) not in (p.n_outcomes, n):
            raise ValidationError(f"factorization has {len(factorization)} operators for "
                                  f"{p.n_outcomes} outcomes", what="shape")
    # each parent's partial sum as psd_sqrt_stack keeps it, (V, w); the root's is I
    vectors, values = np.empty((n // 2 or 1, d, d), dtype=complex), np.ones((n // 2 or 1, d))
    vectors[0] = np.eye(d)
    levels = []
    for level in range(depth):
        span = n >> (level + 1)  # leaves below each child
        pairs = np.empty((1 << level, 2, d, d), dtype=complex)
        failure = None
        for nodes in reversed(list(blocks(len(pairs), d))):
            # each parent's root, pseudoinverse and kernel, before children overwrite its (V, w)
            parts = psd_parts(vectors[nodes], values[nodes])
            lo, hi = 2 * nodes.start * span, 2 * nodes.stop * span
            if leaves := (span == 1 and factorization is not None):
                # a factorization of the unpadded outcomes leaves the padding leaves zero
                real = order[lo:hi] < len(factorization)
                targets = np.zeros((hi - lo, d, d), dtype=complex)
                targets[real] = factorization[order[lo:hi][real]]
            else:  # children that are parents of the next level keep their decompositions
                children = slice(2 * nodes.start, 2 * nodes.stop)
                targets = psd_sqrt_stack(_ordered_sums(padded.elements, order, lo, hi, span),
                                         (vectors[children], values[children]) if span > 1 else None)
            try:
                pairs[nodes] = _split_level(targets.reshape(-1, 2, d, d), *parts, leaves, level,
                                            nodes.start)
            except VerificationError as err:
                failure = err  # raised after the level, so the first block's failure wins
            del parts, targets  # before the next block's are made
        if failure is not None:
            raise failure
        pairs.setflags(write=False)
        levels.append(pairs)
    return MeasurementTree(povm=padded, order=order, kraus=tuple(levels))


def node_checks(columns: dict):
    """The ``what``, residual column and pass mask of each check of :func:`verify`, in order."""
    c, s = columns["completeness_residual"], columns["operator_sum_residual"]
    return ("completeness", c, c <= TOL_CHECK), ("operator sum", s, s <= TOL_CHECK)


def verify(tree: MeasurementTree) -> VerificationReport:
    """Audit every node of a tree against the construction identities that can fail.

    Checks, per internal node: completeness of the Kraus pair, and agreement
    of the cumulative operator with the sum S of the POVM elements below
    (``eigvalsh`` of S under :func:`povmtree.linalg.rank_mask` gives the
    reported parent rank).  Per leaf: the Frobenius distance between the
    leaf's cumulative operator and the original POVM element.  The
    cumulative operators come from :func:`_walk`, one block per level at a
    time, and each block's results go into the columns by node index.
    Nothing else can fail: ``b_child @ m_parent = m_child`` holds exactly,
    because child cumulative operators are defined as those products;
    ``b^dag b`` is a Gram matrix, positive to rounding; and a complete
    pair's probe coupling is derived data, checked where
    :func:`povmtree.linalg.complete_to_unitary_stack` builds it.  A
    reporting operation that never raises on failures, so the block order
    changes no row; the results go into the report's columns.
    """
    p, d, n = tree.povm, tree.povm.dim, tree.povm.n_outcomes
    # the node columns verify measures, in the order of NodeCheck's fields
    measured = {"completeness_residual": float, "operator_sum_residual": float, "parent_rank": int}
    nodes = {name: np.zeros(n - 1, dtype) for name, dtype in measured.items()}
    leaf_residual = np.empty(n)
    for level, first, m in _walk(tree, np.eye(d, dtype=complex), _descend):
        span = n >> level
        for b in blocks(len(m), 2 * d):  # four d x d matrices a node
            lo, hi = first + b.start, first + b.stop
            sums = _ordered_sums(p.elements, tree.order, lo * span, hi * span, span)
            residual = np.linalg.norm(_gram(m[b]) - sums, axis=(-2, -1))
            if level == tree.depth:
                leaf_residual[lo:hi] = residual
                continue
            rows = slice((1 << level) - 1 + lo, (1 << level) - 1 + hi)
            nodes["completeness_residual"][rows] = completeness_residuals(tree.kraus[level][lo:hi])
            nodes["operator_sum_residual"][rows] = residual
            nodes["parent_rank"][rows] = rank_mask(np.linalg.eigvalsh(sums)).sum(axis=-1)
    nodes["uses_null_correction"] = nodes["parent_rank"] < d
    nodes["ok"] = np.logical_and.reduce([passed for _, _, passed in node_checks(nodes)])
    leaves = {"residual": leaf_residual, "ok": leaf_residual <= TOL_CHECK}
    for column in (*nodes.values(), *leaves.values()):
        column.setflags(write=False)
    return VerificationReport(
        node_columns=nodes,
        leaf_columns=leaves,
        order=tree.order,
        labels=p.labels,
        n_original=p.n_original,
        passed=bool(nodes["ok"].all() and leaves["ok"].all()),
        max_residual=float(max(column.max(initial=0.0) for column in (
            nodes["completeness_residual"], nodes["operator_sum_residual"], leaf_residual))),
    )
