"""Binary measurement tree construction and verification.

An N-outcome POVM is implemented as a depth-ceil(log2 N) full binary tree of
two-outcome measurements.  Outcomes are padded to a power of two, the root
carries the identity as its cumulative Kraus operator, and each internal node
x with cumulative Kraus operator m_x splits its outcome set in half.  For a
child whose target operators are (M_c, m_c) with m_c^dag m_c = M_c, the
two-outcome Kraus operator applied at the node is

    b_c = m_c @ pinv(m_x) + a_c * (V_c @ g)

where g is the null-space correction of m_x (see
:func:`null_space_isometry`), a_0 = a_1 = 1/sqrt(2) share the correction
equally (any |a_0|^2 + |a_1|^2 = 1 would do), and V_c is the isometric
(polar) factor of m_c.  For Hermitian targets, which is every target the
default pipeline produces, V_c acts as the identity on the relevant subspace
and the formula reduces to the plain pseudoinverse-plus-correction ansatz;
the V_c factor is what keeps the pair complete when a leaf target carries
unitary Kraus freedom and the parent is rank deficient.

A compiled tree is held as the paper's list of rounds: level l is one
``(2**l, 2, d, d)`` array of Kraus pairs, and nothing derived is stored.
Child cumulative operators are the products b_c @ m_x (see
:meth:`MeasurementTree.cumulative_kraus`), so the factorization identity
m_child = b_child @ m_parent holds by construction at every edge.
Internal-node targets are Hermitian square roots of partial element sums;
leaf targets come from the supplied Kraus operators.  Compilation and
verification work one level at a time, with one stacked LAPACK call per
block of at most 64 KiB of nodes for each kind of decomposition; checks run
block by block in node order, so a later-kind failure in an earlier block
comes before an earlier-kind one in a later block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dilation import completeness_residuals, dilate_binary, dilate_level
from .errors import VerificationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint,
    as_complex_matrix,
    blocks,
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
    k, d = parents.shape[:2]
    children = np.empty((2 * k, d, d), dtype=complex)
    for b in blocks(k, d):
        children[2 * b.start : 2 * b.stop] = (pairs[b] @ parents[b, None]).reshape(-1, d, d)
    return children


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
    (left to right) is outcome ``order[i]`` of ``povm``.  Cumulative
    operators and dilations are computed on demand and never stored.
    """

    povm: Povm
    order: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]
    tolerances: Tolerances

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
        """Read-only 2d x 2d probe coupling of the internal node at ``path``, built on each call."""
        if len(path) >= self.depth or set(path) - {"0", "1"}:
            raise KeyError(f"no internal node at path {path!r}")
        return dilate_binary(self.kraus[len(path)][int(path or "0", 2)], self.tolerances)


def _raise_first(residuals: np.ndarray, what: str, text: str, limit: float, level: int | None,
                 first: int):
    """Raise a :class:`VerificationError` for the first node whose residual exceeds ``limit``."""
    bad = np.flatnonzero(residuals > limit)
    if bad.size:
        i = int(bad[0])
        raise VerificationError(f"{text}, residual {residuals[i]:.3e}", what=what,
                                residual=residuals[i],
                                path=None if level is None else node_path(level, first + i))


def _dust(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Which matrices of a stack count as zero: those with Frobenius norm at most ``tol_rank``.

    Cumulative Kraus operators are contractions (m^dag m <= I), so their
    singular values live on a unit scale; a parent whose whole norm sits
    below the rank threshold is the zero operator up to floating dust, and
    must be treated as exactly zero or the relative rank rule would judge
    the dust full-rank (this is what all-padding subtrees produce).
    """
    return np.linalg.norm(m, axis=(-2, -1)) <= tol.tol_rank


def _split_level(
    targets: np.ndarray,
    parents: np.ndarray,
    tol: Tolerances,
    level: int | None = None,
    first: int = 0,
) -> np.ndarray:
    """Kraus pairs ``(k, 2, d, d)`` taking each parent of a stack to its two targets.

    The stacked kernel of :func:`split_node`; errors name node ``first + i``
    of ``level`` by its path (no path when ``level`` is None).
    """
    raise_first = partial(_raise_first, limit=tol.tol_check, level=level, first=first)
    pre = np.linalg.norm(_gram(targets).sum(axis=1) - _gram(parents), axis=(-2, -1))
    raise_first(pre, "children sum", "child operators do not sum to the parent operator")

    parents = np.where(_dust(parents, tol)[:, None, None], 0.0, parents)
    pinv, g, rank = svd_inverse(parents, tol)
    pairs = targets @ pinv[:, None]
    deficient = np.flatnonzero(rank < parents.shape[-1])
    if deficient.size:
        polar = np.matmul(*np.linalg.svd(targets[deficient])[::2])  # u @ vh, without holding u, vh
        pairs[deficient] += _A * (polar @ g[deficient][:, None])
    raise_first(completeness_residuals(pairs), "completeness", "completeness post-check failed")
    fact = np.linalg.norm(pairs @ parents[:, None] - targets, axis=(-2, -1))
    # per node, b0's residual if it fails, else b1's
    worst = np.where(fact[:, 0] > tol.tol_check, fact[:, 0], fact[:, 1])
    raise_first(worst, "factorization", "factorization post-check failed")
    return pairs


def null_space_isometry(parent_kraus, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
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
    p = as_complex_matrix(parent_kraus)
    if p.shape[0] != p.shape[1]:
        raise ValueError("parent Kraus operator must be square")
    return svd_inverse(p[None], tol)[1][0]


def split_node(
    children_kraus,
    parent_kraus,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Construct the two-outcome Kraus pair taking a parent to its children.

    Parameters
    ----------
    children_kraus
        Pair (m_left, m_right) of target Kraus operators satisfying
        ``m_left^dag m_left + m_right^dag m_right = parent^dag parent``.
    parent_kraus
        The parent node's cumulative Kraus operator.
    tol
        Numerical thresholds.

    Returns the read-only ``(2, d, d)`` pair ``[b0, b1]`` with
    ``b_c = m_c @ pinv(parent) + a_c * V_c @ g`` and ``a_c = 1/sqrt(2)``,
    where g is the parent's null-space correction and V_c the polar
    isometry of the child target (identity-acting for Hermitian targets, so
    the plain ``m @ pinv + a g`` ansatz is recovered).  Guarantees, within
    ``tol.tol_check``, completeness ``b0^dag b0 + b1^dag b1 = I`` and the
    factorization ``b_c @ parent = m_c``.  :func:`compile_tree` runs the
    same construction on a whole level at once.

    Raises
    ------
    VerificationError
        ``what="children sum"`` if the precondition sum fails;
        ``"completeness"`` or ``"factorization"`` if a post-check fails,
        which signals a numerical-rank misjudgment in the parent operator.
    """
    m_left, m_right = (as_complex_matrix(m) for m in children_kraus)
    parent = as_complex_matrix(parent_kraus)
    d = parent.shape[0]
    if parent.shape != (d, d) or m_left.shape != (d, d) or m_right.shape != (d, d):
        raise ValueError("children and parent must be square matrices of equal dimension")
    pair = _split_level(np.stack([m_left, m_right])[None], parent[None], tol)[0]
    pair.setflags(write=False)
    return pair


def _resolve_partition(partition, n_real: int, n_padded: int) -> tuple[int, ...]:
    if partition is None:
        return tuple(range(n_padded))
    order = tuple(int(i) for i in partition)
    if len(order) == n_real and n_real < n_padded:
        order = order + tuple(range(n_real, n_padded))
    if sorted(order) != list(range(n_padded)):
        raise ValueError(
            f"partition must be a permutation of 0..{n_padded - 1} "
            f"(or of the {n_real} unpadded outcomes)"
        )
    return order


def compile_tree(
    p: Povm,
    factorization: np.ndarray | None = None,
    partition=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> MeasurementTree:
    """Compile a POVM into a binary measurement tree.

    The outcome set is padded to a power of two and laid out left to right in
    ``partition`` order (default: index order), each node splitting its
    ordered outcome list in half.  Leaf targets come from ``factorization``,
    an ``(N, d, d)`` array of Kraus operators with ``m_j^dag m_j = M_j`` as
    :func:`povmtree.povm.default_kraus` returns (default: Hermitian square
    roots); internal targets are square roots of the partial element sums,
    added in pairs from the ordered elements.
    Levels are compiled top-down, per block of at most 64 KiB of parents
    with one stacked ``eigh`` and one stacked SVD, checking block by block
    in node order (a later-kind failure in an earlier block comes first).

    ``partition`` may permute either the padded outcome set or just the
    original outcomes, in which case padding indices keep their tail
    positions.

    Raises
    ------
    VerificationError
        From the checks of :func:`split_node`, naming the first failing
        node's path.
    """
    padded = pad_to_power_of_two(p)
    n, d = padded.n_outcomes, padded.dim
    depth = n.bit_length() - 1
    order = _resolve_partition(partition, p.n_outcomes, n)
    if factorization is not None and len(factorization) not in (p.n_outcomes, n):
        raise ValueError(
            f"factorization has {len(factorization)} operators for {p.n_outcomes} outcomes"
        )
    at = np.array(order)
    levels = []
    m = np.eye(d, dtype=complex)[None]
    for level in range(depth):
        span = n >> (level + 1)  # leaves below each child
        pairs = np.empty((len(m), 2, d, d), dtype=complex)
        for nodes in blocks(len(m), d):
            lo, hi = 2 * nodes.start * span, 2 * nodes.stop * span
            if span == 1 and factorization is not None:
                # a factorization of the unpadded outcomes leaves the padding leaves zero
                real = at[lo:hi] < len(factorization)
                targets = np.zeros((hi - lo, d, d), dtype=complex)
                targets[real] = factorization[at[lo:hi][real]]
            else:
                targets = psd_sqrt_stack(_ordered_sums(padded.elements, at, lo, hi, span), tol)
            pairs[nodes] = _split_level(targets.reshape(-1, 2, d, d), m[nodes], tol, level,
                                        nodes.start)
        pairs.setflags(write=False)
        levels.append(pairs)
        if level + 1 < depth:
            m = _descend(pairs, m)
    return MeasurementTree(povm=padded, order=order, kraus=tuple(levels), tolerances=tol)


def node_checks(columns: dict, t: Tolerances):
    """The ``what``, residual column and pass mask of each node check of :func:`verify`.

    In column order; a node passes when it passes all of them.  A dilation
    whose blocks do not round-trip exactly counts residual 1.
    """
    c, s, e, u, exact = (columns[name] for name in (
        "completeness_residual", "operator_sum_residual", "min_operator_eigenvalue",
        "dilation_unitarity", "blocks_exact"))
    return (("completeness", c, c <= t.tol_check), ("operator sum", s, s <= t.tol_check),
            ("positivity", e, e >= -t.tol_check), ("dilation unitarity", u, u <= t.tol_unitary),
            ("blocks exact", (~exact).astype(float), exact))


def verify(tree: MeasurementTree) -> VerificationReport:
    """Audit every node of a tree against the construction identities.

    Checks, per internal node: completeness of the Kraus pair, agreement of
    the cumulative operator with the sum of the POVM elements below,
    positivity of the pair's measurement operators, unitarity of the pair's
    dilation, and exact block round-trip of the dilation.  Each level is
    walked per block of nodes whose dilations take at most 64 KiB; they are
    built with :func:`povmtree.dilation.dilate_level` and dropped, and a
    pair whose completeness fails ``tol_check`` is not dilated and reports
    unitarity ``inf``.  The factorization ``b_child @ m_parent = m_child``
    holds exactly, because child cumulative operators are defined as those
    products, so it is not checked again.  Per leaf, checked per block of the
    last level: the Frobenius distance between the leaf's cumulative
    operator and the original POVM element.  A reporting operation that
    never raises on failures, so the block order changes no row.  The
    results are written into the report's columns (see
    :class:`VerificationReport`); no per-node object is built.
    """
    t = tree.tolerances
    p, d = tree.povm, tree.povm.dim
    at = np.array(tree.order)
    # the node columns verify measures, in the order of NodeCheck's fields
    measured = {"completeness_residual": float, "operator_sum_residual": float,
                "min_operator_eigenvalue": float, "dilation_unitarity": float,
                "blocks_exact": bool, "parent_rank": int}
    nodes = {name: np.zeros(p.n_outcomes - 1, dtype) for name, dtype in measured.items()}
    nodes["dilation_unitarity"][:] = np.inf
    leaf_residual = np.empty(p.n_outcomes)
    max_residual = 0.0
    m = np.eye(d, dtype=complex)[None]
    if tree.depth == 0:  # the root is the only leaf
        leaf_residual[:] = np.linalg.norm(_gram(m) - p.elements, axis=(-2, -1))
    for level, pairs in enumerate(tree.kraus):
        k, span = len(pairs), p.n_outcomes >> level
        # views of this level's rows of the node columns
        completeness, sum_residual, min_eig, unitarity, exact, rank = (
            column[k - 1 : 2 * k - 1] for column in nodes.values())
        for b in blocks(k, 2 * d):
            mb, pb = m[b], pairs[b]
            sums = _ordered_sums(p.elements, at, b.start * span, b.stop * span, span)
            sum_residual[b] = np.linalg.norm(_gram(mb) - sums, axis=(-2, -1))
            completeness[b] = completeness_residuals(pb)
            min_eig[b] = np.linalg.eigvalsh(adjoint(pb) @ pb)[..., 0].min(axis=1)
            kept = rank_mask(np.linalg.svd(mb, compute_uv=False), t).sum(axis=-1)
            rank[b] = np.where(_dust(mb, t), 0, kept)
            admitted = b.start + np.flatnonzero(completeness[b] <= t.tol_check)
            if admitted.size:
                chosen = pairs[admitted]
                u = dilate_level(chosen, t)
                defect = adjoint(u) @ u - np.eye(2 * d)
                # the Gram block of [b0; b1] is the completeness matrix, judged at tol_check
                defect[:, :d, :d] = 0.0
                unitarity[admitted] = np.linalg.norm(defect, axis=(-2, -1))
                exact[admitted] = (u[:, :, :d] == chosen.reshape(-1, 2 * d, d)).all(axis=(-2, -1))
            if level + 1 == tree.depth:
                below = slice(2 * b.start, 2 * b.stop)
                leaf_residual[below] = np.linalg.norm(
                    _gram(_descend(pb, mb)) - p.elements[at[below]], axis=(-2, -1))
        max_residual = max(max_residual, completeness.max(), sum_residual.max())
        if level + 1 < tree.depth:
            m = _descend(pairs, m)
    nodes["uses_null_correction"] = nodes["parent_rank"] < d
    nodes["ok"] = np.logical_and.reduce([passed for _, _, passed in node_checks(nodes, t)])
    leaves = {"residual": leaf_residual, "ok": leaf_residual <= t.tol_check}
    for column in (*nodes.values(), *leaves.values()):
        column.setflags(write=False)
    return VerificationReport(
        node_columns=nodes,
        leaf_columns=leaves,
        order=tree.order,
        labels=p.labels,
        n_original=p.n_original,
        passed=bool(nodes["ok"].all() and leaves["ok"].all()),
        max_residual=float(max(max_residual, leaf_residual.max())),
    )
