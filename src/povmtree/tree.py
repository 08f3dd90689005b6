"""Binary measurement tree construction and verification.

An N-outcome POVM is implemented as a depth-ceil(log2 N) full binary tree of
two-outcome measurements.  Outcomes are laid out left to right on its
2**depth leaves; each node x splits its leaves in half, and S_x is the sum
of the elements below it (the identity at the root).  The paper fixes each
node only by S_x: its cumulative Kraus operator m_x needs m_x^dag m_x = S_x,
and is free up to a unitary.  With R_x = sqrt(S_x) it writes the pair
applied at x towards its child c as b_c = R_c @ pinv(R_x) + a_c * g, g the
projector onto the kernel of R_x (:func:`split_node`).  Compilation takes
the square-root form instead, which forms no S_x and decides no rank: each
node passes up a triangular factor F_x with F_x^dag F_x = S_x, starting
from the leaf targets (Hermitian roots, or supplied Kraus operators m_c).
One QR of the stacked children's factors [F_c0; F_c1] = Q R gives the pair,
Q split in two, and F_x = R, so b_c @ F_x = F_c and the pair is complete to
rounding at any rank.  This is TSQR's reduction tree over the stacked leaf
factors, the POVM's Neumark isometry.  The root's operator is I, so its
pair is its children's factors themselves.  R is upper triangular with a
real diagonal, so above the last level a pair's blocks ``F_c F_x^{-1}`` are
too (:func:`_split`), and are held as their d^2 real parameters.

A compiled tree is held as the paper's list of rounds, nothing derived:
level l is one array of the Kraus pairs of its nodes with a real leaf, as
the float64 words its tree file stores (:meth:`MeasurementTree.pairs`).
Child cumulative operators are the products b_c @ m_x (see
:meth:`MeasurementTree.cumulative_kraus`): the identity at the root, F_x
below it to rounding, and the leaf targets at the leaves.  A
pair's probe coupling (:meth:`MeasurementTree.dilation`) exists exactly
when the pair is complete, so :func:`verify` checks completeness, each leaf
against its element and the elements' sum, what every output reads; the
coupling is checked where it is built.  Verification, cumulative
operators and the simulator share one traversal, depth first
(:meth:`MeasurementTree._operators`): at most half a 64 KiB block of nodes
per level, one stacked LAPACK call per block; checks raise in walk order,
node order wherever a level fits half a block.  Compilation walks the same
tree bottom up (:func:`_reduce`), within the same budget.

Padding is a property of the tree's shape: of its 2**depth leaves, leaf i
holds outcome ``order[i]`` for i < N and is padding, a zero element, from N
on, so the nodes of a level with a real leaf are a prefix of it
(:func:`real_counts`).  A node whose leaves are all padding has S_x = 0,
is reached with probability exactly 0 and has cumulative operator zero;
compile forms no pair for it, so a tree holds only each level's real
prefix, as a tree file stores it, and no walk yields an all-padding node.
The POVM, the order and every result indexed by outcome hold the N real
outcomes only, read in place: a padding leaf's zero factor exists only in
the one stacked run of sibling pairs that holds it, never in a copy.
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
    _layout,
    _raise_first,
    _whole,
    adjoint,
    as_stack,
    blocks,
    hermitian_from_parameters,
    hermitian_parameters,
    is_dust,
    psd_sqrt_stack,
    rank_mask,
    svd_inverse,
)
from .povm import Povm
from .records import VerificationReport

# The weight a_0 = a_1 of split_node's null-space correction in both children's
# operators; multiplied, not divided by sqrt(2), which rounds differently in the last bit
_A = 1 / math.sqrt(2)


def real_counts(depth: int, k: int) -> list[int]:
    """Per level 0..depth, how many nodes, a prefix, have one of k real leaves: ceil(k / 2**(depth - level))."""
    return [((k - 1) >> (depth - level)) + 1 for level in range(depth + 1)]


def level_shapes(k: int, d: int) -> list[tuple[int, int, int]]:
    """Each level's word shape: ``(K_l, 2, d^2)``, on the last ``(K_l, 2, 2 d^2)``, K_l from :func:`real_counts`."""
    depth = (k - 1).bit_length()
    return [(count, 2, d * d * (1 + (level == depth - 1))) for level, count in enumerate(real_counts(depth, k)[:-1])]


def is_permutation(order: np.ndarray, k: int) -> bool:
    """Whether an integer array permutes 0..k-1."""
    seen = np.zeros(k + 1, dtype=bool)  # slot k marks an entry out of range
    seen[np.where((0 <= order) & (order < k), order, k)] = True
    return len(order) == k and bool(seen[:k].all())


def node_path(level: int, index: int) -> str:
    """Probe-outcome bitstring of node ``index`` of ``level`` ('' at the root)."""
    return format(index, f"0{level}b") if level else ""


def _gram(m: np.ndarray) -> np.ndarray:
    """Symmetrised ``m^dag m`` of each matrix of a stack."""
    g = adjoint(m) @ m
    return (g + adjoint(g)) / 2


def _check(residuals: np.ndarray, what: str, level: int = 0, lo: int = 0) -> None:
    """Compile's and :func:`verify`'s one check: raise at the first residual i above ``TOL_CHECK``, at node lo + i."""
    _raise_first(residuals, what, what + " check failed, residual {:.3e}", TOL_CHECK,
                 path=lambda i: node_path(level, lo + i))


def _pairs(words: np.ndarray, d: int) -> np.ndarray:
    """The ``(k, 2, d, d)`` complex pairs of a level's ``words``: the last level's viewed; above it each triangular
    block's real parameters (``Povm.params``' layout) put into a fresh block, +0.0 in every other word."""
    if words.shape[-1] == 2 * d * d:
        return np.ascontiguousarray(words).view(complex).reshape(-1, 2, d, d)
    pairs = np.zeros((len(words), 2, d, d), dtype=complex)
    pairs.view(float).reshape(len(words), 2, -1)[..., _layout(d)[0]] = words
    return pairs


@dataclass(frozen=True, eq=False)
class MeasurementTree:
    """Compiled binary measurement tree over a POVM of N outcomes.

    ``levels[l]`` holds round l's Kraus pairs, b0 before b1, breadth first,
    at its K_l nodes with a real leaf (a prefix, :func:`real_counts`; an
    all-padding node has no pair) as the read-only float64 words a tree file
    stores, of shape ``level_shapes(N, d)[l]`` (:func:`_pairs`; else
    ``ValidationError(what="shape")`` naming the first level that is not a
    float64 array of its shape).  The pair at probe path x is ``pairs(len(x))[int(x, 2)]``.
    Leaf i is outcome ``order[i]`` of ``povm`` for i < N, and padding from N on; ``order``
    is one read-only ``intp`` array, a permutation of ``0..N-1`` (else ``ValidationError(
    what="partition")``).  Pairs, cumulative operators and dilations are built on demand.
    """

    povm: Povm
    order: np.ndarray
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n, d = self.povm.n_outcomes, self.povm.dim
        if not (isinstance(self.order, np.ndarray) and self.order.dtype.kind in "iu"
                and is_permutation(self.order, n)):
            raise ValidationError(_PARTITION_RULE.format(n), what="partition")
        shapes = level_shapes(n, d)
        if len(self.levels) != len(shapes):
            raise ValidationError(f"{n} outcomes need {len(shapes)} levels, got {len(self.levels)}", what="shape")
        for level, (shape, words) in enumerate(zip(shapes, self.levels)):
            if not (isinstance(words, np.ndarray) and words.dtype == np.float64 and words.shape == shape):
                raise ValidationError(f"level {level} must be a float64 array of shape {shape}", what="shape")

    @property
    def depth(self) -> int:
        """Number of rounds of Kraus pairs, ``len(levels)``."""
        return len(self.levels)

    def pairs(self, level: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Pairs ``lo:hi`` of round ``level``, ``(k, 2, d, d)`` complex: fresh above the last level, a view on it."""
        return _pairs(self.levels[level][lo:hi], self.povm.dim)

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """Every round's pairs, ``pairs(l)``, read-only and built on each read; no walk reads it."""
        return tuple(_frozen(self.pairs(level)) for level in range(self.depth))

    def cumulative_kraus(self, level: int) -> np.ndarray:
        """Cumulative Kraus operators of a level's ``2**level`` nodes, zero at an all-padding node."""
        if not (_whole(level) and 0 <= level <= self.depth):
            raise IndexError(f"level {level} not in 0..{self.depth}")
        formed = np.concatenate([m for at, _, m in self._operators(level) if at == level])
        return np.concatenate([formed, np.zeros(((1 << level) - len(formed), *formed.shape[1:]), complex)])

    def _operators(self, depth: int):
        """Yield ``(level, first, block)`` over the nodes with a real leaf of levels 0..depth, depth first.

        ``block`` holds the cumulative Kraus operators of nodes ``first, ...``
        of ``level``: I at the root, then the children ``b_c @ m_x`` (child c
        of i at 2i + c) of runs of at most half a :func:`povmtree.linalg.blocks`
        budget of d x d parents, cut to the real prefix of their level
        (:func:`real_counts`): the walk yields no all-padding node.  Leaves
        come in leaf order, each block before those below it.  The rest of a
        split block is kept as a copy, made once its first half's children
        are, so each level above the block in hand holds at most half a block.
        """
        d = self.povm.dim
        real = real_counts(self.depth, self.povm.n_outcomes)
        half = max(1, next(blocks(1 << depth, d)).stop // 2)
        root = np.eye(d, dtype=complex)[None]
        yield 0, 0, root
        path = [(0, 0, root)] if depth else []  # per level, the parents still to descend
        while path:
            level, first, parents = path.pop()
            pairs = self.pairs(level, first, first + min(half, len(parents)))
            children = (pairs @ parents[:half, None]).reshape(-1, d, d)[: real[level + 1] - 2 * first]
            if len(parents) > half:
                path.append((level, first + half, parents[half:].copy()))
            del parents  # the block is freed before its children are walked
            yield level + 1, 2 * first, children
            if level + 1 < depth:
                path.append((level + 1, 2 * first, children))

    def cumulative_operators(self, level: int) -> np.ndarray:
        """Cumulative operators ``m^dag m`` of a level's nodes; at the leaves, the POVM elements."""
        return _gram(self.cumulative_kraus(level))

    def dilation(self, path: str) -> np.ndarray:
        """Read-only 2d x 2d probe coupling of the held node at ``path``, built and checked anew (errors name it)."""
        if (not isinstance(path, str) or len(path) >= self.depth or set(path) - {"0", "1"}
                or int(path or "0", 2) >= len(self.levels[len(path)])):
            raise KeyError(f"no held pair at path {path!r}")
        return dilate_binary(self.pairs(len(path), int(path or "0", 2))[0], lambda _: path)


def _split(levels: list, level: int, first: int, kids: np.ndarray) -> np.ndarray | None:
    """Write the pairs of real parents ``first, ...`` of ``level`` from their children's factors; return the parents'.

    A missing last child, all padding, is zero.  One stacked QR of each
    parent's ``[F_c0; F_c1]`` gives Q, split in two, as its pair, so
    ``b_c @ R = F_c``, and R as its factor; of triangular factors, Q's blocks
    are too, written as their d^2 real parameters.  The root's operator is
    I, so its pair is the factors themselves and it returns none.  Each pair
    is checked for completeness as held, naming its node.
    """
    d = kids.shape[-1]
    if len(kids) % 2:  # the last real parent's second child has only padding leaves
        kids = np.concatenate([kids, np.zeros((1, d, d), dtype=complex)])
    q, r = np.linalg.qr(kids.reshape(-1, 2 * d, d)) if level else (kids, None)
    held, q = levels[level][first : first + len(kids) // 2], q.reshape(-1, d, d)  # b0 and b1 of each pair in turn
    held[:] = (hermitian_parameters(q) if level < len(levels) - 1 else q.view(float)).reshape(held.shape)
    _check(completeness_residuals(_pairs(held, d)), "completeness", level, first)
    return r


def _reduce(leaves, levels: list, real: list[int], level: int, lo: int, hi: int) -> np.ndarray | None:
    """Factors F, with ``F^dag F = S_x``, of real nodes ``lo:hi`` of ``level``; writes the pairs at and below them.

    At the leaves they are ``leaves(lo, hi)``, the targets.  Above, each run
    of parents, a quarter of a :func:`povmtree.linalg.blocks` budget, takes
    its children's factors from the level below and is split by
    :func:`_split`, so a level of the recursion holds at most half a block
    of factors.  The root returns none.
    """
    if level == len(levels):
        return leaves(lo, hi)
    # four d x d matrices a parent: two children, the pair; a last level's block is 2 d^2 words
    factors = [_split(levels, level, lo + run.start,
                      _reduce(leaves, levels, real, level + 1, 2 * (lo + run.start),
                              min(2 * (lo + run.stop), real[level + 1])))
               for run in blocks(hi - lo, 2 * math.isqrt(levels[-1].shape[-1] // 2))]
    return factors[0] if len(factors) == 1 else np.concatenate(factors)


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
    factorization ``b_c @ parent = m_c``, or raises.  It divides by the
    parent's singular values, so rounding in the children grows by up to
    their ratio: a parent of full rank by the rank rule but a singular value
    ratio near 1e-8 makes valid children fail completeness.
    :func:`compile_tree` divides by none and builds such a pair; where both
    succeed they agree on the parent's range.

    Raises
    ------
    ValidationError
        As :func:`povmtree.linalg.as_stack`, unless the children are two
        finite matrices of the parent's square shape.
    VerificationError
        ``what="children sum"`` if the precondition sum fails;
        ``"completeness"`` or ``"factorization"`` if a post-check fails:
        a misjudged rank, or a parent too ill-conditioned to divide by.
    """
    parent = as_stack([parent_kraus])
    children = as_stack(children_kraus, parent.shape[1:])
    if len(children) != 2:
        raise ValidationError(f"got {len(children)} child operators, expected 2", what="shape")
    parent = np.where(is_dust(parent)[:, None, None], 0.0, parent)
    pinv, g = svd_inverse(parent)
    check = partial(_raise_first, limit=TOL_CHECK, path=lambda i: None)
    # m_0^dag m_0 + m_1^dag m_1 is the Gram matrix of the column block [m_0; m_1]
    check(np.linalg.norm(_gram(children.reshape(1, -1, children.shape[-1])) - _gram(parent), axis=(-2, -1)),
          "children sum", "child operators do not sum to the parent operator, residual {:.3e}")
    pair = children @ pinv
    if g.any():
        pair += _A * np.matmul(*np.linalg.svd(children)[::2]) @ g  # V_c = u @ vh, without holding u, vh
    check(completeness_residuals(pair[None]), "completeness", "completeness post-check failed, residual {:.3e}")
    fact = np.linalg.norm(pair @ parent - children, axis=(-2, -1))
    check(fact[1:] if fact[0] <= TOL_CHECK else fact[:1], "factorization",  # b0's residual if it fails
          "factorization post-check failed, residual {:.3e}")
    return _frozen(pair)


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
    returns (default: Hermitian square roots, taken a block of leaves at a
    time).  The tree is compiled bottom up (:func:`_reduce`): each run of
    sibling pairs takes one stacked QR of its children's factors, writes
    the Q factors as its Kraus pairs and passes the R factors up, and the
    root's pair is its children's factors.  No partial sum is formed, and
    no rank decided.  Only each level's real prefix (:func:`real_counts`)
    is factored and held.  The returned tree's ``povm`` is ``p`` itself.

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
        ``"leaf reconstruction"`` if a supplied operator's ``m_j^dag m_j``
        misses its element by more than ``TOL_CHECK``, or ``"completeness"``
        if a pair's does: the root's, where the supplied operators' squares
        miss I by more; raised at once, naming the node's path, as the
        bottom-up walk reaches it.
    """
    k, d = p.n_outcomes, p.dim
    depth = (k - 1).bit_length()
    order = _resolve_partition(partition, k)
    if factorization is not None:
        factorization = as_stack(factorization, (d, d))
        if len(factorization) != k:
            raise ValidationError(f"factorization has {len(factorization)} operators for {k} outcomes",
                                  what="shape")
    real = real_counts(depth, k)
    levels = [np.empty(shape) for shape in level_shapes(k, d)]

    def leaves(lo: int, hi: int) -> np.ndarray:
        """The targets of leaves ``lo:hi``, a supplied factorization's checked against their elements."""
        elements = hermitian_from_parameters(p.params[order[lo:hi]])
        if factorization is None:
            return psd_sqrt_stack(elements)
        m = factorization[order[lo:hi]]
        _check(np.linalg.norm(_gram(m) - elements, axis=(-2, -1)), "leaf reconstruction", depth, lo)
        return m

    if depth:
        _reduce(leaves, levels, real, 0, 0, 1)
    return MeasurementTree(povm=p, order=order, levels=tuple(map(_frozen, levels)))


def verify(tree: MeasurementTree) -> VerificationReport:
    """Audit a tree on what its outputs read: the root sum, complete pairs and the leaf effects.

    The stored elements, ``povm.params`` as held (numpy adds its rows in
    turn, pairwise at d = 1), must sum to I.  On the walk of
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
    ``eigvalsh(m^dag m)``; an all-padding node holds no pair, so nothing is
    checked there: its row reads completeness 0.0 and rank 0.

    Raises
    ------
    VerificationError
        ``what="operator sum"`` at the root, path ``""``, first; then at the
        first residual above ``TOL_CHECK`` or not a number, in walk order,
        naming the node: ``"completeness"`` of an internal block's pairs, or
        ``"leaf reconstruction"`` at a leaf block.
    """
    p, d, n = tree.povm, tree.povm.dim, 1 << tree.depth
    # the walk writes the rows of the nodes it holds: the rest have only padding leaves, and no pair
    completeness, rank, leaf_residual = np.zeros(n - 1), np.zeros(n - 1, int), np.zeros(p.n_outcomes)

    root = np.linalg.norm(hermitian_from_parameters(p.params.sum(axis=0, keepdims=True)) - np.eye(d),
                          axis=(-2, -1))
    _check(root, "operator sum")
    for level, first, m in tree._operators(tree.depth):
        for b in blocks(len(m), 2 * d):  # four d x d matrices a node
            lo, hi, gram = first + b.start, first + b.stop, _gram(m[b])
            if level == tree.depth:
                leaf_residual[lo:hi] = np.linalg.norm(
                    gram - hermitian_from_parameters(p.params[tree.order[lo:hi]]), axis=(-2, -1))
                _check(leaf_residual[lo:hi], "leaf reconstruction", level, lo)
                continue
            rows = slice((1 << level) - 1 + lo, (1 << level) - 1 + hi)
            completeness[rows] = completeness_residuals(tree.pairs(level, lo, hi))
            _check(completeness[rows], "completeness", level, lo)
            rank[rows] = rank_mask(np.linalg.eigvalsh(gram)).sum(axis=-1)
    return VerificationReport(
        node_columns={name: _frozen(column) for name, column in (
            ("completeness_residual", completeness), ("parent_rank", rank), ("uses_null_correction", rank < d))},
        leaf_columns={"residual": _frozen(leaf_residual)},
        max_residual=float(max(root[0], completeness.max(initial=0.0), leaf_residual.max(initial=0.0))),
    )
