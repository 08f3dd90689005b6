"""POVM modelling: validation, Kraus factorizations, and generators.

A POVM is a set of positive semidefinite operators that sum to the identity.
This module checks those invariants, produces Kraus factorizations
``M_j = m_j^dag m_j`` (with optional unitary freedom ``m_j -> V_j m_j``),
and provides reproducible random POVM generators plus the tetrad (qubit SIC)
example.  A POVM holds only its outcomes: the padding leaves that round a
tree up to a power of two belong to the tree's shape (:mod:`povmtree.tree`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    TOL_CHECK,
    TOL_UNITARY,
    _frozen,
    _raise_first,
    _whole,
    as_stack,
    blocks,
    check_psd,
    frobenius,
    hermitian_from_parameters,
    hermitian_parameters,
    isometry_residuals,
    psd_sqrt_stack,
)
from .records import Rows


def default_labels(n: int) -> Rows:
    """Lazy labels of a POVM of n outcomes given none: ``str(j)``."""
    return Rows(n, str)


@dataclass(frozen=True, eq=False)
class Povm:
    """Validated POVM: ``params[j]`` fixes the operator for outcome ``labels[j]``.

    ``params`` is one read-only ``(N, d^2)`` float64 array: each row holds
    one Hermitian element's d^2 real parameters, the real diagonal and then
    the upper off-diagonal entries as (re, im) pairs, in the tree file's
    layout (:func:`povmtree.linalg.hermitian_parameters`), so a POVM cannot
    hold an element that is not Hermitian.  ``labels`` is the caller's
    tuple or ``default_labels(N)``.
    """

    dim: int
    params: np.ndarray
    labels: tuple[str, ...] | Rows

    @property
    def elements(self) -> np.ndarray:
        """The elements as a fresh read-only ``(N, d, d)`` array, built in O(N d^2) on each read."""
        return _frozen(hermitian_from_parameters(self.params))

    @property
    def n_outcomes(self) -> int:
        return len(self.params)


def validate(elements, labels=None) -> Povm:
    """Check POVM invariants and return the validated :class:`Povm`.

    ``elements`` is a sequence of d x d matrices or one ``(N, d, d)`` array,
    read and never written.  Raises the error for the first
    violated condition, each a :class:`povmtree.errors.ValidationError`
    whose ``what`` names it: every element a finite square matrix of one
    shape with entries of modulus at most 2 (``"shape"``, ``"finiteness"``,
    ``"range"``; :func:`povmtree.linalg.as_stack`), per-element Hermiticity
    and positivity (``"hermiticity"``, ``"positivity"``;
    :func:`povmtree.linalg.check_psd`, run on a copy of each block, which
    names the first failing element by its index among all N), and the
    sum-to-identity completeness relation (``"completeness"``).  Given
    ``labels`` are N entries taken by ``str()``, not a ``str`` or ``bytes`` (``"shape"``).

    Every check reads the elements as given.  The POVM then holds the
    parameters of each element's Hermitian part ``(M + M^dag)/2``, block by
    block, so validating its own elements again returns the same bytes and
    a tree file, which stores exactly these parameters, reproduces them bit
    for bit.  Code that takes a :class:`Povm` relies on this and checks its
    elements no further.
    """
    stack = as_stack(elements, bounded=True)
    n, dim = stack.shape[:2]
    total = stack.sum(axis=0)  # of the raw elements
    params = np.empty((n, dim * dim))
    for rows in blocks(n, dim):
        params[rows] = hermitian_parameters(check_psd(stack[rows].copy(), rows.start))
    deficit = frobenius(total - np.eye(dim))
    if deficit > TOL_CHECK:
        raise ValidationError(f"POVM elements do not sum to identity, |sum - I|_F = {deficit:.3e}",
                              what="completeness", residual=deficit)
    if labels is None:
        labels = default_labels(n)
    elif isinstance(labels, (str, bytes)) or not hasattr(labels, "__iter__"):
        raise ValidationError(f"labels must be a list of labels, not {type(labels).__name__}", what="shape")
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError(f"got {len(labels)} labels for {n} elements", what="shape")
    return Povm(dim=dim, params=_frozen(params), labels=labels)


def default_kraus(p: Povm) -> np.ndarray:
    """Canonical Kraus operators ``m_j = sqrt(M_j)``, so ``m_j^dag m_j = M_j``.

    Returns the Hermitian PSD roots (one stacked ``eigh`` per block, each
    block of elements unpacked on its own) as one read-only ``(N, d, d)`` array.
    """
    roots = np.empty((p.n_outcomes, p.dim, p.dim), dtype=complex)
    for rows in blocks(p.n_outcomes, p.dim):
        roots[rows] = psd_sqrt_stack(hermitian_from_parameters(p.params[rows]))
    return _frozen(roots)


def apply_freedom(kraus, unitaries) -> np.ndarray:
    """Rotate each Kraus operator of a stack, ``m_j -> V_j m_j``.

    Returns the rotated operators as a new read-only ``(N, d, d)`` array.
    The measurement operators ``m_j^dag m_j`` and therefore all outcome
    probabilities are unchanged; only post-measurement states rotate.
    ``kraus`` and ``unitaries`` are each d x d matrices or one ``(N, d, d)``
    array; an error names the first failing matrix by ``index``.

    Raises
    ------
    ValidationError
        ``what="shape"`` if the count or a shape does not match the Kraus
        operators, ``"finiteness"`` for an entry that is not finite (as
        :func:`povmtree.linalg.as_stack`), ``"unitarity"`` if some
        ``|V^dag V - I|_F`` exceeds ``TOL_UNITARY``.
    """
    kraus = as_stack(kraus)
    vs = as_stack(unitaries, kraus.shape[1:])
    if len(vs) != len(kraus):
        raise ValidationError(f"got {len(vs)} unitaries for {len(kraus)} Kraus operators",
                              what="shape")
    _raise_first(isometry_residuals(vs), "unitarity", "matrix is not unitary, |V^dag V - I|_F = {:.3e}",
                 TOL_UNITARY, error=ValidationError)
    return _frozen(vs @ kraus)


def _check_counts(n_outcomes, dim) -> None:
    """Raise ``ValidationError(what="range")`` unless N and d are integers (not ``bool``) >= 1."""
    if not (_whole(n_outcomes) and _whole(dim) and n_outcomes >= 1 and dim >= 1):
        raise ValidationError(f"need integers N and d >= 1, got {n_outcomes!r} and {dim!r}", what="range")


def _symmetrized(pieces) -> Povm:
    """The POVM of ``G^{-1/2} A G^{-1/2}`` for each PSD piece A, G the pieces' sum."""
    lam, basis = np.linalg.eigh(sum(pieces))
    inv_sqrt = (basis / np.sqrt(lam)) @ basis.conj().T
    return validate([inv_sqrt @ a @ inv_sqrt for a in pieces])


def random_rank_one_povm(n_outcomes: int, dim: int, rng: np.random.Generator) -> Povm:
    """Random POVM of rank-one elements, for integers ``n_outcomes >= dim >= 1``, valid by construction.

    Draws ``n_outcomes >= dim`` complex Gaussian vectors, forms their Gram sum
    ``G = sum |v_j><v_j|``, and symmetrizes each projector with ``G^{-1/2}``
    on both sides so the set sums to the identity.
    """
    _check_counts(n_outcomes, dim)
    if n_outcomes < dim:
        raise ValidationError("a rank-one POVM needs at least dim outcomes", what="shape")
    vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(n_outcomes)]
    return _symmetrized([np.outer(v, v.conj()) for v in vectors])


def random_povm(n_outcomes: int, dim: int, rng: np.random.Generator, ranks=None) -> Povm:
    """Random POVM with prescribed (or random) element ranks, integers in 1..dim.

    Each element starts as ``X_j X_j^dag`` with ``X_j`` a ``dim x ranks[j]``
    Gaussian matrix, then the whole set is symmetrized as in
    :func:`random_rank_one_povm`.  Ranks are preserved by the symmetrization.
    Given ``ranks`` are N entries, not a ``str`` or ``bytes`` (``"shape"``).
    """
    _check_counts(n_outcomes, dim)
    if ranks is None:
        ranks = [int(rng.integers(1, dim + 1)) for _ in range(n_outcomes)]
    elif isinstance(ranks, (str, bytes)) or not hasattr(ranks, "__iter__"):
        raise ValidationError(f"ranks must be a list of ranks, not {type(ranks).__name__}", what="shape")
    ranks = list(ranks)
    if len(ranks) != n_outcomes:
        raise ValidationError(f"got {len(ranks)} ranks for {n_outcomes} outcomes", what="shape")
    if not all(_whole(r) and 1 <= r <= dim for r in ranks):
        raise ValidationError("element ranks must lie in 1..dim", what="range")
    if sum(ranks) < dim:
        raise ValidationError("total rank below dim cannot sum to the identity",
                              what="completeness")
    xs = [rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r)) for r in ranks]
    return _symmetrized([x @ x.conj().T for x in xs])


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
