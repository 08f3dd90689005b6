"""Probe-coupling unitaries and the full projective extension.

Two-outcome measurements are realized indirectly: couple the d-dimensional
system to a probe qubit prepared in |0>, apply a joint unitary U, and measure
the probe.  The measurement's Kraus operators are the blocks b_j = <j|U|0>.

Basis convention for the joint 2d-dimensional space: the probe index is the
slow index, i.e. joint basis state ``probe * d + system``.  With that ordering
``<j|U|0>`` is the d x d block ``U[j*d:(j+1)*d, 0:d]``, so the first block
column of U is the stack [b_0; b_1].

The module also provides the classic one-shot alternative used as an
independent oracle: embed the system into an N-dimensional space (one
dimension per rank-one outcome piece) and perform a single projective
measurement there after a basis-change unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotCompleteError, NotRankOneError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_complex_matrix,
    complete_to_unitary,
    frobenius,
    hermitian_eig,
)
from .povm import Povm


@dataclass(frozen=True, eq=False)
class KrausPair:
    """One node's two-outcome measurement: operators with b0^dag b0 + b1^dag b1 = I."""

    b0: np.ndarray
    b1: np.ndarray

    @property
    def dim(self) -> int:
        return self.b0.shape[0]

    def completeness_residual(self) -> float:
        total = self.b0.conj().T @ self.b0 + self.b1.conj().T @ self.b1
        return frobenius(total - np.eye(self.dim))

    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The POVM elements (B_0, B_1) = (b_0^dag b_0, b_1^dag b_1)."""
        return self.b0.conj().T @ self.b0, self.b1.conj().T @ self.b1


@dataclass(frozen=True, eq=False)
class NodeDilation:
    """Joint system+probe unitary realizing one binary measurement."""

    unitary: np.ndarray
    system_dim: int

    def kraus_block(self, probe_outcome: int) -> np.ndarray:
        """The d x d block <probe_outcome|U|0>."""
        if probe_outcome not in (0, 1):
            raise IndexError(f"probe outcome {probe_outcome} not in 0..1")
        d = self.system_dim
        return self.unitary[probe_outcome * d : (probe_outcome + 1) * d, :d]


def dilate_binary(pair: KrausPair, tol: Tolerances = DEFAULT_TOLERANCES) -> NodeDilation:
    """Build the 2d x 2d probe coupling for a complete Kraus pair.

    Stacks [b0; b1] as the first block column (orthonormal columns exactly
    when the pair is complete) and completes it to a unitary.  The given
    blocks are embedded bit-identically, so :meth:`NodeDilation.kraus_block`
    round-trips exactly.
    """
    residual = pair.completeness_residual()
    if residual > tol.tol_check:
        raise NotCompleteError(residual)
    block = np.vstack([pair.b0, pair.b1])
    # the pair was admitted at tol_check; do not re-test the stack tighter
    iso_tol = replace(tol, tol_unitary=max(tol.tol_unitary, tol.tol_check))
    u = complete_to_unitary(block, iso_tol)
    u.setflags(write=False)
    return NodeDilation(unitary=u, system_dim=pair.dim)


@dataclass(frozen=True, eq=False)
class NeumarkExtension:
    """One-shot projective realization in an extended space.

    Row j of ``unitary`` restricted to the first ``system_dim`` columns equals
    the bra of the j-th rank-one outcome piece; ``outcome_map[j]`` names the
    POVM outcome that piece belongs to (higher-rank elements contribute one
    row per eigen-piece).
    """

    unitary: np.ndarray
    system_dim: int
    n_outcomes: int
    outcome_map: tuple[int, ...]

    @property
    def extended_dim(self) -> int:
        return self.unitary.shape[0]

    def probabilities(self, density: np.ndarray) -> np.ndarray:
        """Outcome probabilities for a system density matrix.

        Embeds the state into the extended space, applies the extension
        unitary, and reads the computational-basis populations, summing the
        rows that belong to the same outcome.
        """
        rho = as_complex_matrix(density)
        if rho.shape != (self.system_dim, self.system_dim):
            raise ValueError(
                f"state has shape {rho.shape}, expected ({self.system_dim}, {self.system_dim})"
            )
        rows = self.unitary[:, : self.system_dim]
        per_row = np.einsum("jk,kl,jl->j", rows, rho, rows.conj()).real
        probs = np.zeros(self.n_outcomes)
        np.add.at(probs, np.asarray(self.outcome_map, dtype=int), per_row)
        return np.clip(probs, 0.0, 1.0)


def full_neumark(
    p: Povm, tol: Tolerances = DEFAULT_TOLERANCES, decompose: bool = True
) -> NeumarkExtension:
    """Projective extension of a POVM, used as an oracle against the tree.

    Each rank-one element contributes the row ``<psi_j|`` (where
    ``M_j = |psi_j><psi_j|``); the resulting column-orthonormal block is
    completed to a unitary.  Elements of higher rank are split into rank-one
    eigen-pieces whose probabilities are summed back per outcome; zero
    (padding) elements contribute no rows and always come out with
    probability zero.

    Raises
    ------
    NotRankOneError
        If an element has rank above one and ``decompose`` is False.
    """
    vectors: list[np.ndarray] = []
    outcome_map: list[int] = []
    for j, m in enumerate(p.elements):
        eig = hermitian_eig(m, tol)
        top = max(float(eig.eigenvalues[0]), 0.0)
        rank = int(np.sum(eig.eigenvalues > tol.tol_rank * top)) if top > 0 else 0
        if rank > 1 and not decompose:
            raise NotRankOneError(j, rank)
        for k in range(rank):
            vectors.append(np.sqrt(eig.eigenvalues[k]) * eig.eigenvectors[:, k])
            outcome_map.append(j)
    amplitudes = np.array(vectors)  # row j holds the ket components of piece j
    u = complete_to_unitary(amplitudes.conj(), tol)
    u.setflags(write=False)
    return NeumarkExtension(
        unitary=u,
        system_dim=p.dim,
        n_outcomes=p.n_outcomes,
        outcome_map=tuple(outcome_map),
    )


__all__ = [
    "KrausPair",
    "NodeDilation",
    "NeumarkExtension",
    "dilate_binary",
    "full_neumark",
]
