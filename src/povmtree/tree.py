"""Binary measurement tree construction and verification.

An N-outcome POVM is implemented as a depth-ceil(log2 N) full binary tree of
two-outcome measurements.  Outcomes are padded to a power of two, the root
carries the identity as its cumulative Kraus operator, and each internal node
x with cumulative Kraus operator m_x splits its outcome set in half.  For a
child whose target operators are (M_c, m_c) with m_c^dag m_c = M_c, the
two-outcome Kraus operator applied at the node is

    b_c = m_c @ pinv(m_x) + a_c * (V_c @ g)

where g is the null-space correction of m_x (see
:func:`null_space_isometry`), the complex coefficients satisfy
|a_0|^2 + |a_1|^2 = 1, and V_c is the isometric (polar) factor of m_c.  For
Hermitian targets, which is every target the default pipeline produces, V_c
acts as the identity on the relevant subspace and the formula reduces to the
plain pseudoinverse-plus-correction ansatz; the V_c factor is what keeps the
pair complete when a leaf target carries unitary Kraus freedom and the parent
is rank deficient.

Child cumulative operators are computed as products b_c @ m_x rather than as
fresh square roots, so the factorization identity m_child = b_child @ m_parent
holds by construction at every edge.  Internal-node targets are Hermitian
square roots of partial element sums; leaf targets come from the supplied
Kraus factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import KrausPair, NodeDilation, dilate_binary
from .errors import CompletenessViolationError, InconsistentChildrenError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_complex_matrix,
    frobenius,
    numerical_rank,
    pseudo_inverse,
    psd_sqrt,
)
from .povm import (
    KrausFactorization,
    Povm,
    _frozen,
    default_kraus,
    pad_to_power_of_two,
)


@dataclass(frozen=True)
class SplitCoefficients:
    """Weights (a0, a1) distributing the null-space correction between children."""

    a0: complex = 1 / math.sqrt(2)
    a1: complex = 1 / math.sqrt(2)

    def __post_init__(self) -> None:
        total = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"|a0|^2 + |a1|^2 must be 1, got {total}")


DEFAULT_SPLIT = SplitCoefficients()


@dataclass(frozen=True, eq=False)
class TreeNode:
    """One node of the measurement tree.

    ``path`` is the bitstring of probe outcomes leading here ('' at the
    root).  ``cumulative_kraus`` is the product of node operators along that
    path; ``cumulative_operator`` is its Gram matrix, which at a leaf equals
    the original POVM element.  ``node_kraus`` is the operator applied at the
    parent to reach this node (absent at the root).  Internal nodes own the
    :class:`KrausPair` measured there and its probe-coupling dilation.
    """

    path: str
    outcome_set: tuple[int, ...]
    cumulative_kraus: np.ndarray
    cumulative_operator: np.ndarray
    node_kraus: np.ndarray | None = None
    kraus_pair: KrausPair | None = None
    dilation: NodeDilation | None = None
    children: tuple["TreeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def outcome(self) -> int:
        if not self.is_leaf:
            raise ValueError(f"node '{self.path}' is not a leaf")
        return self.outcome_set[0]

    def iter_nodes(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass(frozen=True, eq=False)
class MeasurementTree:
    """Compiled binary measurement tree over a padded POVM."""

    povm: Povm
    root: TreeNode
    depth: int
    split_coefficients: SplitCoefficients
    tolerances: Tolerances

    def iter_nodes(self):
        yield from self.root.iter_nodes()

    def internal_nodes(self) -> list[TreeNode]:
        return [n for n in self.iter_nodes() if not n.is_leaf]

    def leaves(self) -> list[TreeNode]:
        """Leaves in depth-first order (left to right)."""
        return [n for n in self.iter_nodes() if n.is_leaf]

    def leaf_for_outcome(self, index: int) -> TreeNode:
        for leaf in self.leaves():
            if leaf.outcome == index:
                return leaf
        raise KeyError(f"no leaf for outcome index {index}")


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
    u, s, wh = np.linalg.svd(p)
    r = numerical_rank(s, tol)
    d = p.shape[0]
    if r == d:
        return np.zeros((d, d), dtype=complex)
    return wh[r:].conj().T @ u[:, r:].conj().T


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition m = V sqrt(m^dag m)."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def split_node(
    children_kraus,
    parent_kraus,
    coeffs: SplitCoefficients = DEFAULT_SPLIT,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KrausPair:
    """Construct the two-outcome Kraus pair taking a parent to its children.

    Parameters
    ----------
    children_kraus
        Pair (m_left, m_right) of target Kraus operators satisfying
        ``m_left^dag m_left + m_right^dag m_right = parent^dag parent``.
    parent_kraus
        The parent node's cumulative Kraus operator.
    coeffs, tol
        Correction weights and numerical thresholds.

    Returns the pair ``b_c = m_c @ pinv(parent) + a_c * V_c @ g`` where g is
    the parent's null-space correction and V_c the polar isometry of the
    child target (identity-acting for Hermitian targets, so the plain
    ``m @ pinv + a g`` ansatz is recovered).  Guarantees, within
    ``tol.tol_check``, completeness ``b0^dag b0 + b1^dag b1 = I`` and the
    factorization ``b_c @ parent = m_c``.

    Raises
    ------
    InconsistentChildrenError
        If the precondition sum fails.
    CompletenessViolationError
        If a post-check fails, which signals a numerical-rank misjudgment in
        the parent operator.
    """
    m_left, m_right = (as_complex_matrix(m) for m in children_kraus)
    parent = as_complex_matrix(parent_kraus)
    d = parent.shape[0]
    if parent.shape != (d, d) or m_left.shape != (d, d) or m_right.shape != (d, d):
        raise ValueError("children and parent must be square matrices of equal dimension")
    pre = frobenius(
        m_left.conj().T @ m_left + m_right.conj().T @ m_right - parent.conj().T @ parent
    )
    if pre > tol.tol_check:
        raise InconsistentChildrenError(pre)

    # Cumulative Kraus operators are contractions (m^dag m <= I), so their
    # singular values live on a unit scale; a parent whose whole norm sits
    # below the rank threshold is the zero operator up to floating dust, and
    # must be treated as exactly zero or the relative rank rule would judge
    # the dust full-rank (this is what all-padding subtrees produce).
    if frobenius(parent) <= tol.tol_rank:
        parent = np.zeros_like(parent)

    pinv = pseudo_inverse(parent, tol)
    g = null_space_isometry(parent, tol)
    sides = []
    for m, a in ((m_left, coeffs.a0), (m_right, coeffs.a1)):
        b = m @ pinv
        if g.any():
            b = b + a * (_polar_unitary(m) @ g)
        sides.append(b)
    pair = KrausPair(b0=_frozen(sides[0]), b1=_frozen(sides[1]))

    residual = pair.completeness_residual()
    if residual > tol.tol_check:
        raise CompletenessViolationError(residual)
    for b, m in zip((pair.b0, pair.b1), (m_left, m_right)):
        fact = frobenius(b @ parent - m)
        if fact > tol.tol_check:
            raise CompletenessViolationError(fact, what="factorization")
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
    factorization: KrausFactorization | None = None,
    partition=None,
    coeffs: SplitCoefficients = DEFAULT_SPLIT,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> MeasurementTree:
    """Compile a POVM into a binary measurement tree.

    The outcome set is padded to a power of two and laid out left to right in
    ``partition`` order (default: index order), each node splitting its
    ordered outcome list in half.  Leaf targets come from ``factorization``
    (default: Hermitian square roots); internal targets are square roots of
    the partial element sums.  Every internal node gets its Kraus pair and
    probe-coupling dilation attached.

    ``partition`` may permute either the padded outcome set or just the
    original outcomes, in which case padding indices keep their tail
    positions.

    Raises
    ------
    InconsistentChildrenError, CompletenessViolationError
        Propagated from :func:`split_node`, annotated with the node path.
    """
    padded = pad_to_power_of_two(p)
    n = padded.n_outcomes
    if factorization is None:
        kraus = list(default_kraus(padded, tol).kraus)
    else:
        if factorization.n_outcomes not in (p.n_outcomes, n):
            raise ValueError(
                f"factorization has {factorization.n_outcomes} operators for "
                f"{p.n_outcomes} outcomes"
            )
        kraus = list(factorization.kraus)
        zero = np.zeros((padded.dim, padded.dim), dtype=complex)
        kraus.extend(zero for _ in range(n - len(kraus)))

    order = _resolve_partition(partition, p.n_outcomes, n)

    def split(path: str, groups, cum_kraus: np.ndarray) -> KrausPair:
        targets = []
        for group in groups:
            if len(group) == 1:
                targets.append(kraus[group[0]])
            else:
                total = sum(padded.elements[j] for j in group)
                targets.append(psd_sqrt(total, tol))
        try:
            return split_node(tuple(targets), cum_kraus, coeffs, tol)
        except InconsistentChildrenError as err:
            raise InconsistentChildrenError(err.residual, path=path) from err
        except CompletenessViolationError as err:
            raise CompletenessViolationError(err.residual, path=path, what=err.what) from err

    return assemble_tree(padded, order, split, coeffs, tol)


def assemble_tree(
    p: Povm,
    order: tuple[int, ...],
    pair_at,
    coeffs: SplitCoefficients,
    tol: Tolerances,
) -> MeasurementTree:
    """Build the node graph of a tree from its Kraus pairs.

    ``p`` is the padded POVM and ``order`` its outcomes laid out left to
    right.  ``pair_at(path, (left_outcomes, right_outcomes), cum_kraus)``
    returns the :class:`KrausPair` measured at the internal node ``path``,
    whose cumulative Kraus operator is ``cum_kraus``: :func:`compile_tree`
    constructs it there, the tree-file loader reads it.  Everything else is
    derived here, with one arithmetic for both callers, so a tree rebuilt
    from its stored pairs is bit-identical to the compiled one: each child's
    cumulative Kraus operator is ``b @ cum_parent``, each cumulative operator
    the symmetrised ``cum^dag cum``, and each dilation ``dilate_binary`` of
    the pair.
    """
    depth = p.n_outcomes.bit_length() - 1

    def build(path: str, outcomes: tuple[int, ...], cum_kraus: np.ndarray, node_kraus):
        cum_op = cum_kraus.conj().T @ cum_kraus
        cum_op = (cum_op + cum_op.conj().T) / 2
        if len(outcomes) == 1:
            return TreeNode(
                path=path,
                outcome_set=outcomes,
                cumulative_kraus=_frozen(cum_kraus),
                cumulative_operator=_frozen(cum_op),
                node_kraus=node_kraus,
            )
        half = len(outcomes) // 2
        groups = (outcomes[:half], outcomes[half:])
        pair = pair_at(path, groups, cum_kraus)
        dilation = dilate_binary(pair, tol)
        children = tuple(
            build(path + bit, group, b @ cum_kraus, b)
            for bit, group, b in zip(("0", "1"), groups, (pair.b0, pair.b1))
        )
        return TreeNode(
            path=path,
            outcome_set=outcomes,
            cumulative_kraus=_frozen(cum_kraus),
            cumulative_operator=_frozen(cum_op),
            node_kraus=node_kraus,
            kraus_pair=pair,
            dilation=dilation,
            children=children,
        )

    root = build("", order, np.eye(p.dim, dtype=complex), None)
    return MeasurementTree(
        povm=p, root=root, depth=depth, split_coefficients=coeffs, tolerances=tol
    )


@dataclass(frozen=True)
class NodeCheck:
    """Residuals recorded for one internal node."""

    path: str
    completeness_residual: float
    factorization_residuals: tuple[float, float]
    operator_sum_residual: float
    min_operator_eigenvalue: float
    dilation_unitarity: float
    blocks_exact: bool
    parent_rank: int
    uses_null_correction: bool
    ok: bool


@dataclass(frozen=True)
class LeafCheck:
    outcome_index: int
    label: str
    residual: float
    is_padding: bool
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    """Per-node and per-leaf audit of a compiled (or deserialized) tree."""

    nodes: tuple[NodeCheck, ...]
    leaves: tuple[LeafCheck, ...]
    passed: bool
    max_residual: float

    def summary(self) -> str:
        worst_node = max(
            (c.completeness_residual for c in self.nodes), default=0.0
        )
        worst_fact = max(
            (r for c in self.nodes for r in c.factorization_residuals), default=0.0
        )
        worst_leaf = max((c.residual for c in self.leaves), default=0.0)
        worst_dil = max((c.dilation_unitarity for c in self.nodes), default=0.0)
        corrected = sum(c.uses_null_correction for c in self.nodes)
        lines = [
            f"verification: {'PASS' if self.passed else 'FAIL'}",
            f"  internal nodes checked : {len(self.nodes)} ({corrected} with null-space correction)",
            f"  max completeness residual : {worst_node:.3e}",
            f"  max factorization residual: {worst_fact:.3e}",
            f"  max leaf reconstruction   : {worst_leaf:.3e}",
            f"  max dilation unitarity    : {worst_dil:.3e}",
        ]
        if not self.passed:
            bad = [c.path for c in self.nodes if not c.ok]
            bad += [f"leaf:{c.outcome_index}" for c in self.leaves if not c.ok]
            lines.append(f"  failing: {bad}")
        return "\n".join(lines)


def _node_ok(check_values: dict, t: Tolerances) -> bool:
    return (
        check_values["completeness_residual"] <= t.tol_check
        and all(r <= t.tol_check for r in check_values["factorization_residuals"])
        and check_values["operator_sum_residual"] <= t.tol_check
        and check_values["min_operator_eigenvalue"] >= -t.tol_check
        and check_values["dilation_unitarity"] <= t.tol_unitary
        and check_values["blocks_exact"]
    )


def verify(tree: MeasurementTree, tol: Tolerances | None = None) -> VerificationReport:
    """Audit every node of a tree against the construction identities.

    Checks, per internal node: completeness of the Kraus pair, the
    factorization ``b_child @ m_parent = m_child`` on both edges, agreement of
    the cumulative operator with the sum of the POVM elements below,
    positivity of the pair's measurement operators, unitarity of the attached
    dilation, and exact block round-trip of the dilation.  Per leaf: the
    Frobenius distance between the leaf's cumulative operator and the original
    POVM element.  Purely a reporting operation; never raises on failures.
    """
    t = tol or tree.tolerances
    elements = tree.povm.elements
    node_checks: list[NodeCheck] = []
    leaf_checks: list[LeafCheck] = []
    for node in tree.iter_nodes():
        sum_residual = frobenius(
            node.cumulative_operator - sum(elements[j] for j in node.outcome_set)
        )
        if node.is_leaf:
            j = node.outcome
            residual = frobenius(node.cumulative_operator - elements[j])
            leaf_checks.append(
                LeafCheck(
                    outcome_index=j,
                    label=tree.povm.labels[j],
                    residual=residual,
                    is_padding=tree.povm.is_padding(j),
                    ok=residual <= t.tol_check,
                )
            )
            continue
        pair = node.kraus_pair
        b_ops = pair.operators()
        min_eig = min(float(np.linalg.eigvalsh(op)[0]) for op in b_ops)
        fact = tuple(
            frobenius(b @ node.cumulative_kraus - child.cumulative_kraus)
            for b, child in zip((pair.b0, pair.b1), node.children)
        )
        dil = node.dilation
        if dil is None:
            unitarity = float("inf")
            blocks_exact = False
        else:
            u = dil.unitary
            unitarity = frobenius(u.conj().T @ u - np.eye(u.shape[0]))
            blocks_exact = np.array_equal(dil.kraus_block(0), pair.b0) and np.array_equal(
                dil.kraus_block(1), pair.b1
            )
        # same zero-snap rule as split_node: all-dust parents have rank 0
        if frobenius(node.cumulative_kraus) <= t.tol_rank:
            rank = 0
        else:
            s = np.linalg.svd(node.cumulative_kraus, compute_uv=False)
            rank = numerical_rank(s, t)
        values = {
            "completeness_residual": pair.completeness_residual(),
            "factorization_residuals": fact,
            "operator_sum_residual": sum_residual,
            "min_operator_eigenvalue": min_eig,
            "dilation_unitarity": unitarity,
            "blocks_exact": blocks_exact,
        }
        node_checks.append(
            NodeCheck(
                path=node.path,
                parent_rank=rank,
                uses_null_correction=rank < tree.povm.dim,
                ok=_node_ok(values, t),
                **values,
            )
        )
    passed = all(c.ok for c in node_checks) and all(c.ok for c in leaf_checks)
    residuals = [c.completeness_residual for c in node_checks]
    residuals += [r for c in node_checks for r in c.factorization_residuals]
    residuals += [c.operator_sum_residual for c in node_checks]
    residuals += [c.residual for c in leaf_checks]
    max_residual = max(residuals, default=0.0)
    return VerificationReport(
        nodes=tuple(node_checks),
        leaves=tuple(leaf_checks),
        passed=passed,
        max_residual=max_residual,
    )
