"""Probe-coupling unitaries and the full projective extension.

Two-outcome measurements are realized indirectly: couple the d-dimensional
system to a probe qubit prepared in |0>, apply a joint unitary U, and measure
the probe.  The measurement's Kraus operators are the blocks b_j = <j|U|0>.

Basis convention for the joint 2d-dimensional space: the probe index is the
slow index, i.e. joint basis state ``probe * d + system``.  With that ordering
``<j|U|0>`` is the d x d block ``U[j*d:(j+1)*d, 0:d]``, so the first block
column of U is the stack [b_0; b_1].

Pairs and couplings are plain arrays: a Kraus pair is a ``(2, d, d)`` array
(b0 before b1), a level of pairs a ``(k, 2, d, d)`` stack, and a coupling a
``(2d, 2d)`` unitary whose blocks are read back as ``u[:d, :d]`` (b0) and
``u[d:, :d]`` (b1).

The module also provides the classic one-shot alternative used as an
independent oracle: embed the system into an N-dimensional space (one
dimension per rank-one outcome piece) and perform a single projective
measurement there after a basis-change unitary.
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
    as_stack,
    blocks,
    complete_to_unitary,
    hermitian_from_parameters,
    isometry_residuals,
    rank_mask,
)
from .povm import Povm


def completeness_residuals(pairs: np.ndarray) -> np.ndarray:
    """``|b0^dag b0 + b1^dag b1 - I|_F`` of each pair of a ``(k, 2, d, d)`` stack.

    This is the Gram residual of the column block ``[b0; b1]``, by the
    :func:`povmtree.linalg.isometry_residuals` that
    :func:`povmtree.linalg.complete_to_unitary` judges, so a pair
    admitted here is admitted by the completion at the same tolerance.
    """
    k, _, d, _ = pairs.shape
    return isometry_residuals(pairs.reshape(k, 2 * d, d))


def dilate_binary(pair, _path=None) -> np.ndarray:
    """The read-only 2d x 2d probe coupling of one ``(2, d, d)`` complete Kraus pair.

    The pair's ``[b0; b1]`` is the first block column, bit for bit
    (``u[:d, :d]`` is b0, ``u[d:, :d]`` is b1); the rest is the complement
    that :func:`povmtree.linalg.complete_to_unitary` takes from one
    Householder QR.  Raises as the completion does, naming the pair as
    ``index`` 0 (a tree's node by ``path=_path(0)``), with the completeness
    residual judged at ``TOL_CHECK``;
    unless ``pair`` is two finite d x d operators, a ``ValidationError`` as
    :func:`povmtree.linalg.as_stack` raises it, or with ``what="shape"``.
    """
    pair = as_stack(pair)
    if len(pair) != 2:
        raise ValidationError(f"got {len(pair)} operators, expected a pair", what="shape")
    d = pair.shape[-1]
    # the Gram matrix of [b0; b1] is the completeness sum, so the completion's
    # isometry check at TOL_CHECK is the completeness check
    return _frozen(complete_to_unitary(pair.reshape(2 * d, d), TOL_CHECK, _path))


@dataclass(frozen=True, eq=False)
class NeumarkExtension:
    """One-shot projective realization in an extended space.

    ``isometry`` is the ``(n_pieces, system_dim)`` first block of columns of
    the extension unitary: row j is the bra of the j-th rank-one outcome
    piece, and ``outcome_map[j]`` names the POVM outcome that piece belongs
    to (higher-rank elements contribute one row per eigen-piece).
    """

    isometry: np.ndarray
    system_dim: int
    n_outcomes: int
    outcome_map: tuple[int, ...]

    @property
    def extended_dim(self) -> int:
        return self.isometry.shape[0]

    def probabilities(self, density: np.ndarray) -> np.ndarray:
        """Outcome probabilities for a system density matrix.

        Embeds the state into the extended space, applies the extension
        unitary, and reads the computational-basis populations, summing the
        rows that belong to the same outcome.  Only the isometry is read: the
        state lives in the first ``system_dim`` basis vectors.  The density
        is checked as :func:`povmtree.linalg.as_stack` checks a stack of one
        ``system_dim``-square matrix.
        """
        rho = as_stack([density], (self.system_dim, self.system_dim))[0]
        rows = self.isometry
        per_row = np.einsum("jk,kl,jl->j", rows, rho, rows.conj()).real
        probs = np.zeros(self.n_outcomes)
        np.add.at(probs, np.asarray(self.outcome_map, dtype=int), per_row)
        return np.clip(probs, 0.0, 1.0)


def full_neumark(p: Povm) -> NeumarkExtension:
    """Projective extension of a POVM, used as an oracle against the tree.

    Each rank-one element contributes the row ``<psi_j|`` (where
    ``M_j = |psi_j><psi_j|``); the rows form the column-orthonormal block
    that the extension unitary starts with, which is all that is stored.
    Elements of higher rank are split into rank-one eigen-pieces (one
    stacked ``eigh`` per block of elements, the module rank rule of
    :func:`povmtree.linalg.rank_mask` per element) whose probabilities are
    summed back per outcome; zero elements contribute no rows and always
    come out with probability zero.

    Raises
    ------
    VerificationError
        ``what="completeness"`` if the rows' Gram residual
        ``|W^dag W - I|_F``, the completeness sum of the elements, exceeds
        ``TOL_UNITARY``.
    """
    rows, owners = [], []
    for block in blocks(p.n_outcomes, p.dim):
        w, v = np.linalg.eigh(hermitian_from_parameters(p.params[block]))
        w, v = w[:, ::-1], v[:, :, ::-1]  # each element's pieces in descending order
        keep = rank_mask(w)
        element, piece = np.nonzero(keep)
        rows.append(np.sqrt(w[element, piece])[:, None] * v[element, :, piece].conj())
        owners.append(block.start + element)
    isometry, element = np.concatenate(rows), np.concatenate(owners)
    _raise_first(isometry_residuals(isometry[None]), "completeness",
                 "outcome pieces are not orthonormal columns (residual {:.3e})", TOL_UNITARY,
                 path=lambda i: None)
    return NeumarkExtension(
        isometry=_frozen(isometry),
        system_dim=p.dim,
        n_outcomes=p.n_outcomes,
        outcome_map=tuple(element.tolist()),
    )


__all__ = [
    "NeumarkExtension",
    "completeness_residuals",
    "dilate_binary",
    "full_neumark",
]
