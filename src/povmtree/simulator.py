"""Exact propagation through a measurement tree and seeded sampling.

States are density matrices throughout; pure states are rank-one densities.
:func:`propagate` carries the unnormalized conditioned state b...b rho b^dag...
b^dag down the tree, whose trace is the absolute probability of the path, so
no renormalization happens until a leaf's post-state is reported.
:func:`sample` draws probe outcomes branch by branch, exercising the
sequential structure rather than sampling the leaf distribution directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TreeVerificationError
from .linalg import DEFAULT_TOLERANCES, Tolerances, as_complex_matrix, frobenius
from .povm import Povm
from .tree import MeasurementTree, TreeNode


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    density: np.ndarray

    def __post_init__(self) -> None:
        rho = as_complex_matrix(self.density)
        if rho.shape[0] != rho.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
        tol = DEFAULT_TOLERANCES.tol_check
        herm = frobenius(rho - rho.conj().T)
        if herm > tol:
            raise ValueError(f"density matrix is not Hermitian, residual {herm:.3e}")
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > tol:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
        if min_eig < -tol:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        rho.setflags(write=False)
        object.__setattr__(self, "density", rho)

    @classmethod
    def _checked_elsewhere(cls, rho: np.ndarray) -> "QuantumState":
        """Wrap a density matrix whose invariants the caller has already checked."""
        state = object.__new__(cls)
        rho.setflags(write=False)
        object.__setattr__(state, "density", rho)
        return state

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        """State |psi><psi| from a (not necessarily normalized) amplitude vector."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis(cls, dim: int, index: int) -> "QuantumState":
        """Computational basis state |index><index|."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} not in 0..{dim - 1}")
        v = np.zeros(dim)
        v[index] = 1.0
        return cls.pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(np.eye(dim, dtype=complex) / dim)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> QuantumState:
    """Random mixed state of the given rank (default: random rank in 1..dim)."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = x @ x.conj().T
    return QuantumState(rho / np.trace(rho).real)


def direct_probabilities(p: Povm, state: QuantumState) -> np.ndarray:
    """Outcome probabilities Tr[M_j rho], clamped to [0, 1]."""
    if state.dim != p.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} does not match POVM dimension {p.dim}"
        )
    rho = state.density
    probs = np.array([np.einsum("ij,ji->", m, rho).real for m in p.elements])
    return np.clip(probs, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class SimulationOutcome:
    """One leaf of the exact propagation.

    ``post_state`` is ``None`` for branches whose cumulative probability fell
    below the tolerance (unreachable; no conditional state exists there).
    """

    leaf_index: int
    leaf_label: str
    path: str
    probability: float
    post_state: QuantumState | None


def propagate(
    tree: MeasurementTree, state: QuantumState, tol: Tolerances | None = None
) -> list[SimulationOutcome]:
    """Exact leaf probabilities and post-measurement states.

    Depth-first traversal applying each branch operator to the unnormalized
    conditioned state; the leaf probability is the trace of the final
    product, which telescopes to Tr[m_leaf rho m_leaf^dag].  Results are
    ordered by outcome index of the (padded) POVM.

    Raises
    ------
    TreeVerificationError
        If a reached leaf's unnormalised state has an eigenvalue below
        ``-tol_check``, which no valid tree produces from a valid state.
    """
    t = tol or tree.tolerances
    if state.dim != tree.povm.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} does not match tree dimension {tree.povm.dim}"
        )
    outcomes: list[SimulationOutcome] = []

    def walk(node: TreeNode, sigma: np.ndarray) -> None:
        if node.is_leaf:
            prob = min(max(float(np.trace(sigma).real), 0.0), 1.0)
            if prob < t.tol_check:
                post = None
            else:
                # Positivity is checked on the unnormalised state, at the
                # scale of the absolute probability.  After division by a
                # tiny probability, rounding dust of a valid state can exceed
                # any absolute threshold.
                herm = (sigma + sigma.conj().T) / 2
                min_eig = float(np.linalg.eigvalsh(herm)[0])
                if min_eig < -t.tol_check:
                    raise TreeVerificationError(
                        -min_eig, path=node.path, what="post-state positivity"
                    )
                post = QuantumState._checked_elsewhere(herm / prob)
            outcomes.append(
                SimulationOutcome(
                    leaf_index=node.outcome,
                    leaf_label=tree.povm.labels[node.outcome],
                    path=node.path,
                    probability=prob,
                    post_state=post,
                )
            )
            return
        pair = node.kraus_pair
        for b, child in zip((pair.b0, pair.b1), node.children):
            walk(child, b @ sigma @ b.conj().T)

    walk(tree.root, state.density.astype(complex))
    outcomes.sort(key=lambda o: o.leaf_index)
    return outcomes


@dataclass(frozen=True)
class SampleReport:
    """Seeded sampling result; equal inputs give an identical (``==``) report.

    ``max_sigma_deviation`` is the largest per-leaf deviation of the observed
    count from its expectation, in units of the binomial standard deviation
    sqrt(n p (1 - p)); leaves with p in {0, 1} contribute 0 when the count is
    exact and infinity otherwise.
    """

    seed: int
    shots: int
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    expected: tuple[float, ...]
    max_sigma_deviation: float


_CHUNK = 1 << 16


def _branch_probabilities(tree: MeasurementTree, state: QuantumState, t: Tolerances):
    """Flatten the tree into arrays for vectorized descent.

    Returns (p_left, child0, child1, leaf_outcome) indexed by preorder node
    id.  ``p_left`` is the conditional probability of probe outcome 0 at each
    reachable internal node; unreachable nodes get 1.0, which is irrelevant
    because no walk ever lands on them.
    """
    nodes = list(tree.iter_nodes())
    index = {id(n): i for i, n in enumerate(nodes)}
    size = len(nodes)
    p_left = np.ones(size)
    child0 = np.zeros(size, dtype=np.int64)
    child1 = np.zeros(size, dtype=np.int64)
    leaf_outcome = np.zeros(size, dtype=np.int64)

    def fill(node: TreeNode, rho: np.ndarray | None) -> None:
        i = index[id(node)]
        if node.is_leaf:
            leaf_outcome[i] = node.outcome
            return
        left, right = node.children
        child0[i] = index[id(left)]
        child1[i] = index[id(right)]
        pair = node.kraus_pair
        if rho is None:
            fill(left, None)
            fill(right, None)
            return
        conditionals = []
        for b in (pair.b0, pair.b1):
            sigma = b @ rho @ b.conj().T
            conditionals.append((max(float(np.trace(sigma).real), 0.0), sigma))
        total = conditionals[0][0] + conditionals[1][0]
        p_left[i] = min(conditionals[0][0] / total, 1.0) if total > 0 else 1.0
        for (q, sigma), child in zip(conditionals, (left, right)):
            fill(child, sigma / q if q >= t.tol_check else None)

    fill(tree.root, state.density.astype(complex))
    return p_left, child0, child1, leaf_outcome


def sample(
    tree: MeasurementTree, state: QuantumState, shots: int, seed: int
) -> SampleReport:
    """Sample leaf outcomes by walking the tree one probe measurement at a time.

    Each shot descends from the root drawing every binary branch from its
    conditional probability.  Shots are partitioned into fixed chunks of
    65536; chunk ``c`` uses the generator seeded by
    ``numpy.random.SeedSequence(seed, spawn_key=(c,))``, so chunks may be
    drawn in parallel and merged, and the result is identical to the
    sequential run for the same seed.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    t = tree.tolerances
    exact = propagate(tree, state, t)
    n = tree.povm.n_outcomes
    counts = np.zeros(n, dtype=np.int64)
    p_left, child0, child1, leaf_outcome = _branch_probabilities(tree, state, t)

    done = 0
    chunk_index = 0
    while done < shots:
        size = min(_CHUNK, shots - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
        uniforms = rng.random((size, tree.depth)) if tree.depth else None
        current = np.zeros(size, dtype=np.int64)
        for level in range(tree.depth):
            go_left = uniforms[:, level] < p_left[current]
            current = np.where(go_left, child0[current], child1[current])
        counts += np.bincount(leaf_outcome[current], minlength=n)
        done += size
        chunk_index += 1

    expected = tuple(o.probability for o in exact)
    max_sigma = 0.0
    for c, p in zip(counts, expected):
        spread = np.sqrt(shots * p * (1.0 - p))
        if spread > 0:
            max_sigma = max(max_sigma, abs(c - shots * p) / spread)
        elif c != round(shots * p):
            max_sigma = float("inf")
    return SampleReport(
        seed=seed,
        shots=shots,
        labels=tree.povm.labels,
        counts=tuple(int(c) for c in counts),
        expected=expected,
        max_sigma_deviation=float(max_sigma),
    )
