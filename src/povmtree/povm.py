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
    TOL_CHECK,
    TOL_UNITARY,
    as_stack,
    check_psd,
    frobenius,
    hermitian_from_upper,
    isometry_residuals,
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


def validate(elements, labels=None) -> Povm:
    """Check POVM invariants and return the validated :class:`Povm`.

    ``elements`` is a sequence of d x d matrices or one ``(N, d, d)`` array;
    the POVM holds its own read-only copy.  Raises the error for the first
    violated condition, each a :class:`povmtree.errors.ValidationError`
    whose ``what`` names it: every element a finite square matrix of one
    shape with entries of modulus at most 2 (``"shape"``, ``"finiteness"``,
    ``"range"``; :func:`povmtree.linalg.as_stack`), per-element Hermiticity
    and positivity (``"hermiticity"``, ``"positivity"``;
    :func:`povmtree.linalg.check_psd`, which names the first failing
    element), and the sum-to-identity completeness relation
    (``"completeness"``).

    Every check reads the elements as given.  The POVM then holds each
    element's Hermitian part ``(M + M^dag)/2``, made exactly Hermitian by
    :func:`povmtree.linalg.hermitian_from_upper`, so validating its own
    elements again returns the same bytes and a tree file, which stores
    only the upper triangle, reproduces them bit for bit.  Code that takes a
    :class:`Povm` relies on this and checks its elements no further.
    """
    stack = as_stack(elements, copy=True, bounded=True)
    n, dim = stack.shape[:2]
    total = stack.sum(axis=0)  # of the raw elements, before check_psd overwrites them
    hermitian_from_upper(check_psd(stack))
    deficit = frobenius(total - np.eye(dim))
    if deficit > TOL_CHECK:
        raise ValidationError(f"POVM elements do not sum to identity, |sum - I|_F = {deficit:.3e}",
                              what="completeness", residual=deficit)
    if labels is None:
        labels = tuple(str(j) for j in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError(f"got {len(labels)} labels for {n} elements", what="shape")
    return Povm(dim=dim, elements=_frozen(stack), labels=labels, n_original=n)


def default_kraus(p: Povm) -> np.ndarray:
    """Canonical Kraus operators ``m_j = sqrt(M_j)``, so ``m_j^dag m_j = M_j``.

    Returns the Hermitian PSD roots (one stacked ``eigh``) as one read-only
    ``(N, d, d)`` array.
    """
    return _frozen(psd_sqrt_stack(p.elements))


def apply_freedom(kraus: np.ndarray, unitaries) -> np.ndarray:
    """Rotate each Kraus operator of an ``(N, d, d)`` stack, ``m_j -> V_j m_j``.

    Returns the rotated operators as a new read-only ``(N, d, d)`` array.
    The measurement operators ``m_j^dag m_j`` and therefore all outcome
    probabilities are unchanged; only post-measurement states rotate.
    ``unitaries`` is a sequence of d x d matrices or one ``(N, d, d)`` array;
    an error names the first failing unitary by ``index``.

    Raises
    ------
    ValidationError
        ``what="shape"`` if the count or a shape does not match the Kraus
        operators, ``"finiteness"`` for an entry that is not finite (as
        :func:`povmtree.linalg.as_stack`), ``"unitarity"`` if some
        ``|V^dag V - I|_F`` exceeds ``TOL_UNITARY``.
    """
    vs = as_stack(unitaries, kraus.shape[1:])
    if len(vs) != len(kraus):
        raise ValidationError(f"got {len(vs)} unitaries for {len(kraus)} Kraus operators",
                              what="shape")
    residual = isometry_residuals(vs)
    bad = np.flatnonzero(residual > TOL_UNITARY)
    if bad.size:
        r = residual[bad[0]]
        raise ValidationError(f"matrix is not unitary, |V^dag V - I|_F = {r:.3e}",
                              what="unitarity", residual=r, index=int(bad[0]))
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
        raise ValidationError("element ranks must lie in 1..dim", what="range")
    if sum(ranks) < dim:
        raise ValidationError("total rank below dim cannot sum to the identity",
                              what="completeness")
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
