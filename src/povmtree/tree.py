"""Binary measurement tree construction and verification.

An N-outcome POVM is implemented as a depth-ceil(log2 N) full binary tree of
two-outcome measurements.  Outcomes are laid out left to right on its
2**depth leaves; each node x splits its leaves in half, and S_x is the sum
of the elements below it (the identity at the root).  With
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

A compiled tree is held as the paper's list of rounds: level l is one array
of the Kraus pairs of its nodes with a real leaf, and nothing derived is stored.
Child cumulative operators are the products b_c @ m_x (see
:meth:`MeasurementTree.cumulative_kraus`), so the factorization identity
m_child = b_child @ m_parent holds by construction at every edge.  A
pair's probe coupling (:meth:`MeasurementTree.dilation`) exists exactly
when the pair is complete, so :func:`verify` checks completeness, each leaf
against its element and the elements' sum, what every output reads; the
coupling is checked where it is built.  Compilation, verification, cumulative
operators and the simulator share one traversal, depth first (:func:`_walk`):
at most half a 64 KiB block of nodes per level, one stacked LAPACK call per
block; checks raise in walk order, node order wherever a level fits half a block.

Padding is a property of the tree's shape: of its 2**depth leaves, leaf i
holds outcome ``order[i]`` for i < N and is padding, a zero element, from N
on, so the nodes of a level with a real leaf are a prefix of it
(:func:`real_counts`).  A node whose leaves are all padding has S_x = 0
and is reached with probability exactly 0: g = I, its pair is the constant
(I/sqrt 2, I/sqrt 2) (:func:`padding_pair`) and its cumulative operator is
zero.  So a tree holds only each level's real prefix, as a tree file
stores it; no walk yields an all-padding node, and
:meth:`MeasurementTree.dilation` derives the constant's coupling.  The
POVM, the order and every result indexed by outcome hold the N real
outcomes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dilation import completeness_residuals, dilate_binary
from .errors import ValidationError
from .linalg import (
    TOL_CHECK,
    _frozen,
    _raise_first,
    _whole,
    adjoint,
    as_stack,
    blocks,
    hermitian_from_parameters,
    is_dust,
    psd_parts,
    psd_sqrt_stack,
    rank_mask,
    svd_inverse,
)
from .povm import Povm
from .records import VerificationReport

# The weight a_0 = a_1 of the null-space correction in both children's operators;
# multiplied, not divided by sqrt(2), which rounds differently in the last bit
_A = 1 / math.sqrt(2)


def padding_pair(d: int) -> np.ndarray:
    """The read-only ``(2, d, d)`` Kraus pair ``(I/sqrt 2, I/sqrt 2)`` of a node whose leaves are all padding.

    Its sum S_x is zero, so g = I and ``b_c = a_c * I``: what the general
    construction gives, bit for bit, without a decomposition.
    """
    return np.broadcast_to(_A * np.eye(d, dtype=complex), (2, d, d))


def real_counts(depth: int, k: int) -> list[int]:
    """Per level 0..depth, how many nodes, a prefix, have one of k real leaves: ceil(k / 2**(depth - level))."""
    return [((k - 1) >> (depth - level)) + 1 for level in range(depth + 1)]


def is_permutation(order: np.ndarray, k: int) -> bool:
    """Whether an integer array permutes 0..k-1."""
    seen = np.zeros(k + 1, dtype=bool)  # slot k marks an entry out of range
    seen[np.where((0 <= order) & (order < k), order, k)] = True
    return len(order) == k and bool(seen[:k].all())


def node_path(level: int, index: int) -> str:
    """Probe-outcome bitstring of node ``index`` of ``level`` ('' at the root)."""
    return format(index, f"0{level}b") if level else ""


def _descend(kraus, level: int, first: int, parents: np.ndarray) -> np.ndarray:
    """Children ``b_c @ m_x`` of operators at nodes ``first, ...`` of ``level``; child c of i at 2i + c."""
    pairs = kraus[level][first : first + len(parents)]
    return (pairs @ parents[:, None]).reshape(-1, *parents.shape[1:])


def _walk(depth: int, d: int, root, child, real: list[int]):
    """Yield ``(level, first, block)`` over a tree's nodes with a real leaf, depth first, a block at a time.

    ``block`` holds nodes ``first, ...`` of ``level``: ``root[None]`` at the
    root, then ``child(level, first, parents)`` for runs of at most half a
    :func:`povmtree.linalg.blocks` budget of d x d parents, cut to the real
    prefix of their level (``real``, :func:`real_counts`): the walk yields no
    all-padding node.  Leaves come in leaf order, each block before those
    below it.  The rest of a split block is kept as a copy, made once its
    first half's children are, so each level above the block in hand holds
    at most half a block.
    """
    half = max(1, next(blocks(1 << depth, d)).stop // 2)
    yield 0, 0, root[None]
    path = [(0, 0, root[None])] if depth else []  # per level, the parents still to descend
    while path:
        level, first, parents = path.pop()
        children = child(level, first, parents[:half])[: real[level + 1] - 2 * first]
        if len(parents) > half:
            path.append((level, first + half, parents[half:].copy()))
        del parents  # the block is freed before its children are walked
        yield level + 1, 2 * first, children
        if level + 1 < depth:
            path.append((level + 1, 2 * first, children))


def _gram(m: np.ndarray) -> np.ndarray:
    """Symmetrised ``m^dag m`` of each matrix of a stack."""
    g = adjoint(m) @ m
    return (g + adjoint(g)) / 2


def _leaf_params(p: Povm, n: int) -> np.ndarray:
    """``p.params`` and a zero row per padding leaf, n rows; a copy only when there is padding.

    A sum over them adds in the association of a tree's n leaves: numpy
    sums a one-column array pairwise, and eight at a time from 8 rows on.
    """
    k = p.n_outcomes
    return p.params if n == k else np.concatenate([p.params, np.zeros((n - k, p.dim * p.dim))])


def _ordered_sums(params: np.ndarray, order: np.ndarray, lo: int, hi: int, span: int):
    """Parameter rows of the sum of each run of ``span`` leaves in ``lo:hi``, in the tree's pairing.

    Leaf i is the element of parameters ``params[order[i]]`` (a
    :class:`povmtree.povm.Povm`'s).  Adding parameter rows gives the bits
    that adding the matrices would; the caller unpacks them.  A
    range larger than a block is split in two, so at most one block of
    elements is gathered at a time.
    """
    if span == 1 or next(blocks(hi - lo, math.isqrt(params.shape[1]))).stop == hi - lo:
        s = params[order[lo:hi]]
        while span > 1:
            s, span = s[0::2] + s[1::2], span // 2
        return s
    sums = partial(_ordered_sums, params, order)
    if hi - lo > span:  # several runs: each half of them on its own
        mid = lo + (hi - lo) // span // 2 * span
        return np.concatenate([sums(lo, mid, span), sums(mid, hi, span)])
    return sums(lo, lo + span // 2, span // 2) + sums(lo + span // 2, hi, span // 2)


@dataclass(frozen=True, eq=False)
class MeasurementTree:
    """Compiled binary measurement tree over a POVM of N outcomes.

    ``kraus[l]`` is a read-only array of round l's Kraus pairs, breadth
    first, at the level's nodes with a real leaf (a prefix, :func:`real_counts`;
    the rest are not held, their pair is :func:`padding_pair`): the pair at
    probe path x is ``kraus[len(x)][int(x, 2)]``, b0 before b1.  Leaf i is
    outcome ``order[i]`` of ``povm`` for i < N, and padding from N on;
    ``order`` is one read-only ``intp`` array, a permutation of ``0..N-1``
    (else ``ValidationError(what="partition")``).  There are ceil(log2 N)
    levels, level l of shape ``(real_counts(depth, N)[l], 2, d, d)`` (else
    ``ValidationError(what="shape")``).  Cumulative operators and dilations
    are computed on demand, never stored.
    """

    povm: Povm
    order: np.ndarray
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n, d = self.povm.n_outcomes, self.povm.dim
        if not (isinstance(self.order, np.ndarray) and self.order.dtype.kind in "iu"
                and is_permutation(self.order, n)):
            raise ValidationError(_PARTITION_RULE.format(n), what="partition")
        shapes = [getattr(level, "shape", None) for level in self.kraus]  # arrays only
        real = real_counts(len(shapes), n)[:-1]  # the pairs held per level
        if (n - 1).bit_length() != len(shapes) or shapes != [(k, 2, d, d) for k in real]:
            raise ValidationError(f"{n} outcomes need ceil(log2 {n}) levels, level l of shape (ceil({n} / "
                                  f"2**(depth - l)), 2, {d}, {d}); got shapes {shapes}", what="shape")

    @property
    def depth(self) -> int:
        """Number of rounds of Kraus pairs, ``len(kraus)``."""
        return len(self.kraus)

    def cumulative_kraus(self, level: int) -> np.ndarray:
        """Cumulative Kraus operators of a level's ``2**level`` nodes, zero at an all-padding node."""
        if not (_whole(level) and 0 <= level <= self.depth):
            raise IndexError(f"level {level} not in 0..{self.depth}")
        formed = np.concatenate([m for at, _, m in self._operators(level) if at == level])
        return np.concatenate([formed, np.zeros(((1 << level) - len(formed), *formed.shape[1:]), complex)])

    def _operators(self, depth: int):
        """The walk of :func:`_walk` over the cumulative Kraus operators of levels 0..depth."""
        d = self.povm.dim
        return _walk(depth, d, np.eye(d, dtype=complex), partial(_descend, self.kraus),
                     real_counts(self.depth, self.povm.n_outcomes))

    def cumulative_operators(self, level: int) -> np.ndarray:
        """Cumulative operators ``m^dag m`` of a level's nodes; at the leaves, the POVM elements."""
        return _gram(self.cumulative_kraus(level))

    def dilation(self, path: str) -> np.ndarray:
        """Read-only 2d x 2d probe coupling of the node at ``path``, built and checked anew (errors name it)."""
        if not isinstance(path, str) or len(path) >= self.depth or set(path) - {"0", "1"}:
            raise KeyError(f"no internal node at path {path!r}")
        pairs, i = self.kraus[len(path)], int(path or "0", 2)
        return dilate_binary(pairs[i] if i < len(pairs) else padding_pair(self.povm.dim), lambda _: path)


def _split_level(targets: np.ndarray, parents: np.ndarray, pinv: np.ndarray, kernel: np.ndarray,
                 polar: bool, path) -> np.ndarray:
    """Kraus pairs ``(k, 2, d, d)`` taking each parent of a stack to its two targets.

    ``b_c = m_c @ pinv + a_c * g``, from each parent's pseudoinverse and
    ``kernel`` map g (with ``polar`` set, ``a_c * V_c @ g``).  Errors name
    parent i of the stack by ``path(i)``.
    """
    raise_first = partial(_raise_first, limit=TOL_CHECK, path=path)
    # m_0^dag m_0 + m_1^dag m_1 is the Gram matrix of the column block [m_0; m_1]
    pre = np.linalg.norm(_gram(targets.reshape(len(targets), -1, targets.shape[-1])) - _gram(parents),
                         axis=(-2, -1))
    raise_first(pre, "children sum", "child operators do not sum to the parent operator, residual {:.3e}")

    pairs = targets @ pinv[:, None]
    deficient = np.flatnonzero(kernel.any(axis=(-2, -1)))
    if deficient.size:
        g = kernel[deficient][:, None]
        if polar:
            g = np.matmul(*np.linalg.svd(targets[deficient])[::2]) @ g  # u @ vh, without holding u, vh
        pairs[deficient] += _A * g
    raise_first(completeness_residuals(pairs), "completeness",
                "completeness post-check failed, residual {:.3e}")
    fact = pairs @ parents[:, None] - targets
    fact = np.sqrt(np.einsum("...ij,...ij->...", fact.view(float), fact.view(float)))  # |.|_F
    # per node, b0's residual if it fails, else b1's
    worst = np.where(fact[:, 0] <= TOL_CHECK, fact[:, 1], fact[:, 0])
    raise_first(worst, "factorization", "factorization post-check failed, residual {:.3e}")
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
    return _frozen(_split_level(children[None], parent, *svd_inverse(parent), True, lambda i: None)[0])


_PARTITION_RULE = "partition must permute the {0} outcomes"


def _resolve_partition(partition, n: int) -> np.ndarray:
    """The leaf order as a read-only ``intp`` array; entries must be Python or NumPy integers."""
    order = np.arange(n)
    if partition is not None:
        entries = list(partition)
        valid = all(_whole(j) and 0 <= j < n for j in entries)
        order = np.array(entries if valid else [], dtype=np.intp)
        if not is_permutation(order, n):
            raise ValidationError(_PARTITION_RULE.format(n), what="partition")
    return _frozen(order)


def compile_tree(
    p: Povm,
    factorization: np.ndarray | None = None,
    partition=None,
) -> MeasurementTree:
    """Compile a POVM into a binary measurement tree.

    The N outcomes are laid out left to right in ``partition`` order
    (default: index order) on the first N of the tree's 2**depth leaves,
    the rest padding, each node splitting its leaves in half.  Leaf targets
    come from ``factorization``, an ``(N, d, d)`` array of Kraus operators
    with ``m_j^dag m_j = M_j`` as :func:`povmtree.povm.default_kraus`
    returns (default: Hermitian square roots); internal targets are square
    roots of the partial element sums, added in pairs from the ordered
    elements.  The tree is compiled on the depth-first walk of
    :func:`_walk`: each run of parents carries its partial sums'
    decompositions ``(V, w)`` from one stacked ``eigh`` of their sums, and
    writes its Kraus pairs into the returned level arrays.  Only each
    level's real prefix (:func:`real_counts`) is decomposed, split and held.
    The returned tree's ``povm`` is ``p`` itself.

    ``partition``, of Python or NumPy integers (not ``bool``), permutes the
    N outcomes.

    Raises
    ------
    ValidationError
        ``what="partition"`` unless ``partition`` is such a permutation.
        Unless ``factorization`` holds one d x d operator per outcome:
        ``what="shape"`` (``index`` naming the first operator of the wrong
        shape, if any) or ``"finiteness"`` (``index`` naming the first
        operator with an entry that is not finite).
    VerificationError
        ``"children sum"`` if a node's targets do not sum to its own,
        ``"completeness"`` or ``"factorization"`` if a pair's post-check
        fails; raised at once, naming the node's path, in walk order.
    """
    k, d = p.n_outcomes, p.dim
    depth = (k - 1).bit_length()
    n = 1 << depth
    order = _resolve_partition(partition, k)
    if factorization is not None:
        factorization = as_stack(factorization, (d, d))
        if len(factorization) != k:
            raise ValidationError(f"factorization has {len(factorization)} operators for {k} outcomes",
                                  what="shape")
    # the padding leaves' zero elements, so each partial sum keeps the tree's pairing
    params = _leaf_params(p, n)
    leaf_order = order if n == k else np.concatenate([order, np.arange(k, n)])
    # each parent's partial sum as psd_sqrt_stack keeps it, (V, w); the root's is I
    node = np.dtype([("V", complex, (d, d)), ("w", float, (d,))])
    root = np.array((np.eye(d), np.ones(d)), node)
    real = real_counts(depth, k)
    levels = [np.empty((count, 2, d, d), dtype=complex) for count in real[:-1]]

    def split(level: int, first: int, parents: np.ndarray):
        """Write the pairs of a run of real parents; return their real children's decompositions.

        A child past the real prefix, at most one at the level's boundary,
        gets the zero target and is not decomposed.  Leaves pass on none, an empty array.
        """
        span = n >> (level + 1)  # leaves below each child
        lo, kids = 2 * first * span, min(2 * len(parents), real[level + 1] - 2 * first)
        children = np.empty(kids if span > 1 else 0, node)
        if leaves := (span == 1 and factorization is not None):
            targets = factorization[order[lo : lo + kids]]
        else:  # children that are parents of the next level keep their decompositions
            sums = hermitian_from_parameters(_ordered_sums(params, leaf_order, lo, lo + kids * span, span))
            targets = psd_sqrt_stack(sums, (children["V"], children["w"]) if span > 1 else None)
        if kids < 2 * len(parents):
            targets = np.concatenate([targets, np.zeros((1, d, d), dtype=complex)])
        levels[level][first : first + len(parents)] = _split_level(
            targets.reshape(-1, 2, d, d), *psd_parts(parents["V"], parents["w"]), leaves,
            lambda i: node_path(level, first + i))
        return children

    for _ in _walk(depth, d, root, split, real):
        pass
    return MeasurementTree(povm=p, order=order, kraus=tuple(map(_frozen, levels)))


def verify(tree: MeasurementTree) -> VerificationReport:
    """Audit a tree on what its outputs read: the root sum, complete pairs and the leaf effects.

    The stored elements must sum to I.  On the walk of
    :meth:`MeasurementTree._operators` (the nodes with a real leaf), each
    internal node's Kraus pair must be complete and each leaf's ``m^dag m``
    must lie within ``TOL_CHECK`` (Frobenius) of its element.  Every output
    reads only the leaf operators, and these fix each internal node's
    operator sum within their residuals; the root's is checked, since no
    padding leaf is and one could take up what an element lacks.  Nothing
    else can fail: ``b_child @ m_parent = m_child`` holds exactly by
    definition, ``b^dag b`` is a Gram matrix, and a pair's probe coupling is
    checked where :func:`povmtree.linalg.complete_to_unitary` builds it.
    An internal node's parent rank is :func:`povmtree.linalg.rank_mask` of
    ``eigvalsh(m^dag m)``; an all-padding node, not held, has rank 0 and the
    completeness residual of :func:`padding_pair`.

    Raises
    ------
    VerificationError
        ``what="operator sum"`` at the root, path ``""``, first; then at the
        first residual above ``TOL_CHECK`` or not a number, in walk order,
        naming the node: ``"completeness"`` of an internal block's pairs, or
        ``"leaf reconstruction"`` at a leaf block.
    """
    p, d, n = tree.povm, tree.povm.dim, 1 << tree.depth
    # the walk overwrites the rows of the nodes it holds: the rest have only padding leaves
    completeness = np.full(n - 1, completeness_residuals(padding_pair(d)[None])[0])
    rank, leaf_residual = np.zeros(n - 1, int), np.zeros(p.n_outcomes)

    def check(residuals, what, level=0, lo=0):  # residual i is node lo + i's, on ``level``
        _raise_first(residuals, what, what + " check failed, residual {:.3e}", TOL_CHECK,
                     path=lambda i: node_path(level, lo + i))

    root = np.linalg.norm(hermitian_from_parameters(_leaf_params(p, n).sum(axis=0, keepdims=True))
                          - np.eye(d), axis=(-2, -1))
    check(root, "operator sum")
    for level, first, m in tree._operators(tree.depth):
        for b in blocks(len(m), 2 * d):  # four d x d matrices a node
            lo, hi, gram = first + b.start, first + b.stop, _gram(m[b])
            if level == tree.depth:
                leaf_residual[lo:hi] = np.linalg.norm(
                    gram - hermitian_from_parameters(p.params[tree.order[lo:hi]]), axis=(-2, -1))
                check(leaf_residual[lo:hi], "leaf reconstruction", level, lo)
                continue
            rows = slice((1 << level) - 1 + lo, (1 << level) - 1 + hi)
            completeness[rows] = completeness_residuals(tree.kraus[level][lo:hi])
            check(completeness[rows], "completeness", level, lo)
            rank[rows] = rank_mask(np.linalg.eigvalsh(gram)).sum(axis=-1)
    return VerificationReport(
        node_columns={name: _frozen(column) for name, column in (
            ("completeness_residual", completeness), ("parent_rank", rank), ("uses_null_correction", rank < d))},
        leaf_columns={"residual": _frozen(leaf_residual)},
        max_residual=float(max(root[0], completeness.max(initial=0.0), leaf_residual.max(initial=0.0))),
    )
