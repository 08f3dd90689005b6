"""POVM modelling: validation, Kraus factorizations, padding, and generators.

A POVM is a set of positive semidefinite operators that sum to the identity.
This module checks those invariants, produces Kraus factorizations
``M_j = m_j^dag m_j`` (with optional unitary freedom ``m_j -> V_j m_j``),
pads outcome sets to a power of two for tree compilation, and provides
reproducible random POVM generators plus the tetrad (qubit SIC) example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint,
    blocks,
    frobenius,
    hermitian_from_upper,
    psd_sqrt_stack,
)


def _frozen(m: np.ndarray) -> np.ndarray:
    """Read-only ``m``; the caller owns it and never writes to it again."""
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Povm:
    """Validated POVM: ``elements[j]`` is the operator for outcome ``labels[j]``.

    ``elements`` is one read-only ``(N, d, d)`` complex array, each matrix
    exactly Hermitian in the form :func:`validate` stores.  ``n_original``
    counts the outcomes present before any padding; indices at or beyond it
    belong to zero operators appended by :func:`pad_to_power_of_two` and are
    never reachable in simulation.
    """

    dim: int
    elements: np.ndarray
    labels: tuple[str, ...]
    n_original: int

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def is_padding(self, index: int) -> bool:
        return index >= self.n_original

    @property
    def padding_labels(self) -> tuple[str, ...]:
        return self.labels[self.n_original :]


def _as_stack(elements) -> np.ndarray:
    """A fresh ``(N, d, d)`` complex copy of the elements, checked for shape."""
    if not isinstance(elements, np.ndarray):
        elements = list(elements)
    shapes = [np.shape(m) for m in elements]
    if not shapes:
        raise ValidationError("a POVM needs at least one element", what="shape")
    for j, shape in enumerate(shapes):
        if len(shape) != 2:
            raise ValidationError(f"has {len(shape)} dimensions, expected a matrix",
                                  what="shape", index=j)
    dim = shapes[0][0]
    for j, shape in enumerate(shapes):
        if shape != (dim, dim):
            raise ValidationError(f"has shape {shape}, expected ({dim}, {dim})",
                                  what="shape", index=j)
    return np.array(elements, dtype=complex)


def validate(elements, labels=None, tol: Tolerances = DEFAULT_TOLERANCES) -> Povm:
    """Check POVM invariants and return the validated :class:`Povm`.

    ``elements`` is a sequence of d x d matrices or one ``(N, d, d)`` array;
    the POVM holds its own read-only copy.  Raises the error for the first
    violated condition: every element a square matrix of one shape
    (``what="shape"``), finite entries, per-element Hermiticity and
    positivity, and the sum-to-identity completeness relation, each a
    :class:`povmtree.errors.ValidationError` whose ``what`` names it.
    Finiteness, then Hermiticity and positivity, are judged per block of
    elements (:func:`povmtree.linalg.blocks`), in order, so the
    first failing block decides the error; a non-finite entry counts as
    failed Hermiticity (residual ``nan``), and Hermiticity of an element
    comes before its positivity.

    Every check reads the elements as given.  The POVM then holds each
    element's Hermitian part ``(M + M^dag)/2``, made exactly Hermitian by
    :func:`povmtree.linalg.hermitian_from_upper`, so validating its own
    elements again returns the same bytes and a tree file, which stores
    only the upper triangle, reproduces them bit for bit.
    """
    stack = _as_stack(elements)
    n, dim = stack.shape[:2]
    total = np.zeros((dim, dim), dtype=complex)
    for rows in blocks(n, dim):
        block = stack[rows]
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError("matrix is not Hermitian, |A - A^dag|_F = nan",
                                  what="hermiticity", residual=float("nan"),
                                  index=rows.start + int(np.argmin(finite)))
        herm = adjoint(block)  # a fresh copy, made the Hermitian part in place
        residual = np.linalg.norm(block - herm, axis=(1, 2))
        herm += block
        herm /= 2
        min_eig = np.linalg.eigvalsh(herm)[:, 0]
        not_hermitian = residual > tol.tol_check
        bad = np.flatnonzero(not_hermitian | (min_eig < -tol.tol_check))
        if bad.size:
            j = int(bad[0])
            if not_hermitian[j]:
                raise ValidationError(
                    f"matrix is not Hermitian, |A - A^dag|_F = {residual[j]:.3e}",
                    what="hermiticity", residual=residual[j], index=rows.start + j)
            raise ValidationError(
                f"matrix is not positive semidefinite, min eigenvalue = {min_eig[j]:.3e}",
                what="positivity", residual=min_eig[j], index=rows.start + j)
        # one raw element after another, in the order stack.sum(axis=0) adds them
        total = np.concatenate([total[None], block]).sum(axis=0)
        block[...] = hermitian_from_upper(herm)
    deficit = frobenius(total - np.eye(dim))
    if deficit > tol.tol_check:
        raise ValidationError(f"POVM elements do not sum to identity, |sum - I|_F = {deficit:.3e}",
                              what="completeness", residual=deficit)
    if labels is None:
        labels = tuple(str(j) for j in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError(f"got {len(labels)} labels for {n} elements", what="shape")
    return Povm(dim=dim, elements=_frozen(stack), labels=labels, n_original=n)


def default_kraus(p: Povm, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Canonical Kraus operators ``m_j = sqrt(M_j)``, so ``m_j^dag m_j = M_j``.

    Returns the Hermitian PSD roots (one stacked ``eigh``) as one read-only
    ``(N, d, d)`` array.
    """
    return _frozen(psd_sqrt_stack(p.elements, tol))


def apply_freedom(kraus: np.ndarray, unitaries, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Rotate each Kraus operator of an ``(N, d, d)`` stack, ``m_j -> V_j m_j``.

    Returns the rotated operators as a new read-only ``(N, d, d)`` array.
    The measurement operators ``m_j^dag m_j`` and therefore all outcome
    probabilities are unchanged; only post-measurement states rotate.
    ``unitaries`` is a sequence of d x d matrices or one ``(N, d, d)`` array,
    checked per block: the error names the first failing unitary, and a
    non-finite entry counts as failed unitarity (residual ``nan``).

    Raises
    ------
    ValidationError
        ``what="shape"`` if the count or a shape does not match the Kraus
        operators, ``"unitarity"`` if some ``|V^dag V - I|_F`` exceeds
        ``tol.tol_unitary``.
    """
    if not isinstance(unitaries, np.ndarray):
        unitaries = list(unitaries)
    if len(unitaries) != len(kraus):
        raise ValidationError(f"got {len(unitaries)} unitaries for {len(kraus)} Kraus operators",
                              what="shape")
    shape = kraus.shape[1:]
    for j, v in enumerate(unitaries):
        if np.shape(v) != shape:
            raise ValidationError(f"unitary has shape {np.shape(v)}, expected {shape}",
                                  what="shape", index=j)
    vs = np.asarray(unitaries, dtype=complex)
    for rows in blocks(len(vs), shape[0]):
        residual = np.linalg.norm(adjoint(vs[rows]) @ vs[rows] - np.eye(shape[0]), axis=(1, 2))
        bad = np.flatnonzero(~(residual <= tol.tol_unitary))  # nan fails too
        if bad.size:
            r = residual[bad[0]]
            raise ValidationError(f"matrix is not unitary, |V^dag V - I|_F = {r:.3e}",
                                  what="unitarity", residual=r, index=rows.start + int(bad[0]))
    return _frozen(vs @ kraus)


def pad_to_power_of_two(p: Povm) -> Povm:
    """Append zero operators until the outcome count is a power of two.

    Padding goes at the tail with labels ``pad<k>``; the zero operators leave
    the completeness relation untouched and the padded outcomes are flagged
    through :meth:`Povm.is_padding`.
    """
    k = p.n_outcomes
    n = 1 << max(k - 1, 0).bit_length() if k > 1 else 1
    if n == k:
        return p
    zeros = np.zeros((n - k, p.dim, p.dim), dtype=complex)
    elements = _frozen(np.concatenate([p.elements, zeros]))
    labels = p.labels + tuple(f"pad{j}" for j in range(k, n))
    return Povm(dim=p.dim, elements=elements, labels=labels, n_original=p.n_original)


def random_rank_one_povm(n_outcomes: int, dim: int, rng: np.random.Generator) -> Povm:
    """Random POVM with rank-one elements, valid by construction.

    Draws ``n_outcomes >= dim`` complex Gaussian vectors, forms their Gram sum
    ``G = sum |v_j><v_j|``, and symmetrizes each projector with ``G^{-1/2}``
    on both sides so the set sums to the identity.
    """
    if n_outcomes < dim:
        raise ValidationError("a rank-one POVM needs at least dim outcomes", what="shape")
    vectors = [
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(n_outcomes)
    ]
    gram = sum(np.outer(v, v.conj()) for v in vectors)
    lam, basis = np.linalg.eigh(gram)
    inv_sqrt = (basis / np.sqrt(lam)) @ basis.conj().T
    elements = [inv_sqrt @ np.outer(v, v.conj()) @ inv_sqrt for v in vectors]
    return validate(elements)


def random_povm(
    n_outcomes: int, dim: int, rng: np.random.Generator, ranks=None
) -> Povm:
    """Random POVM with prescribed (or random) element ranks.

    Each element starts as ``X_j X_j^dag`` with ``X_j`` a ``dim x ranks[j]``
    Gaussian matrix, then the whole set is symmetrized as in
    :func:`random_rank_one_povm`.  Ranks are preserved by the symmetrization.
    """
    if ranks is None:
        ranks = [int(rng.integers(1, dim + 1)) for _ in range(n_outcomes)]
    ranks = [int(r) for r in ranks]
    if len(ranks) != n_outcomes:
        raise ValidationError(f"got {len(ranks)} ranks for {n_outcomes} outcomes", what="shape")
    if any(r < 1 or r > dim for r in ranks):
        raise ValueError("element ranks must lie in 1..dim")
    if sum(ranks) < dim:
        raise ValueError("total rank below dim cannot sum to the identity")
    pieces = []
    for r in ranks:
        x = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        pieces.append(x @ x.conj().T)
    gram = sum(pieces)
    lam, basis = np.linalg.eigh(gram)
    inv_sqrt = (basis / np.sqrt(lam)) @ basis.conj().T
    return validate([inv_sqrt @ a @ inv_sqrt for a in pieces])


def tetrad() -> Povm:
    """The qubit tetrad (SIC) POVM.

    Four rank-one elements built from sub-normalized states whose Bloch
    vectors point at the corners of a regular tetrahedron:

        |psi_0> = |0> / sqrt(2)
        |psi_k> = (|0> + sqrt(2) exp(2 pi i k / 3) |1>) / sqrt(6),  k = 1, 2, 3
    """
    phase = np.exp(2j * np.pi / 3)
    states = [
        np.array([1.0, 0.0], dtype=complex) / np.sqrt(2),
        np.array([1.0, np.sqrt(2) * phase]) / np.sqrt(6),
        np.array([1.0, np.sqrt(2) * phase**2]) / np.sqrt(6),
        np.array([1.0, np.sqrt(2)], dtype=complex) / np.sqrt(6),
    ]
    return validate([np.outer(s, s.conj()) for s in states])
