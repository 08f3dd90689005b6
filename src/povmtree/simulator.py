"""Exact propagation through a measurement tree and seeded sampling.

States are density matrices throughout; pure states are rank-one densities.
:func:`propagate` carries the unnormalized conditioned state b...b rho b^dag...
b^dag down the tree depth first, a block of nodes at a time, holding one
block per level (:func:`povmtree.tree._walk`).  A state's trace is the
absolute probability of its path, so no renormalization happens until a
leaf's post-state is read, which walks that leaf's path anew.
:func:`sample` reads the branch probabilities from the same walk and splits
the shots down the tree, one binomial draw per node, following the
sequential structure rather than the leaf distribution directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError, VerificationError
from .linalg import TOL_CHECK, adjoint, as_stack, check_psd
from .povm import Povm
from .records import Rows
from .tree import MeasurementTree, _walk, node_path


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite; kept as given."""

    density: np.ndarray

    def __post_init__(self) -> None:
        rho = as_stack([self.density], bounded=True)
        check_psd(rho.copy())  # on a copy: the state keeps the density as given
        rho = rho[0]
        trace = float(rho.trace().real)
        if abs(trace - 1.0) > TOL_CHECK:
            raise ValidationError(f"density matrix trace is {trace}, expected 1", what="trace",
                                  residual=abs(trace - 1.0))
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
        """State |psi><psi| from a (not necessarily normalized) amplitude vector.

        ``v v^dag`` of a normalised finite vector is Hermitian, positive and of
        unit trace to within rounding, so none of these is checked.
        """
        v = np.asarray(amplitudes, dtype=complex).ravel()
        if not np.isfinite(v).all():
            raise ValidationError("has an amplitude that is not finite", what="finiteness")
        parts = v.view(float)  # real and imaginary parts side by side
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0:
            raise ValidationError("cannot normalize the zero vector", what="trace")
        v = (parts / scale).view(complex)  # no part above 1: the norm lies in [1, sqrt(2d)]
        v = v / np.linalg.norm(v)
        return cls._checked_elsewhere(np.outer(v, v.conj()))

    @classmethod
    def basis(cls, dim: int, index: int) -> "QuantumState":
        """Computational basis state |index><index|, of Python or NumPy integers (not ``bool``)."""
        whole = all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (dim, index))
        if not whole or dim < 1:
            raise ValidationError(f"basis state needs integers dim >= 1 and index, got {dim!r} "
                                  f"and {index!r}", what="range")
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} not in 0..{dim - 1}", what="range")
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
        raise ValidationError(
            f"state dimension {state.dim} does not match POVM dimension {p.dim}", what="shape")
    probs = np.einsum("nij,ji->n", p.elements, state.density).real
    return np.clip(probs, 0.0, 1.0)


def _conditioned(pairs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The two children ``b sigma b^dag`` of each state of a stack; child c of state i sits at 2i + c."""
    return ((pairs @ states[:, None]) @ adjoint(pairs)).reshape(-1, *states.shape[1:])


@dataclass(frozen=True, eq=False)
class SimulationOutcome:
    """One leaf of the exact propagation.

    ``post_state`` walks the leaf's path anew on each read; it is ``None`` for
    branches whose cumulative probability fell below the tolerance
    (unreachable; no conditional state exists there).
    """

    leaf_index: int
    leaf_label: str
    path: str
    probability: float
    _source: tuple = field(repr=False)  # (tree, state)

    @property
    def post_state(self) -> QuantumState | None:
        if self.probability < TOL_CHECK:
            return None
        tree, state = self._source
        sigma = state.density[None]
        for level, bit in enumerate(self.path):
            node = int(self.path[:level] or "0", 2)
            sigma = _conditioned(tree.kraus[level][node : node + 1], sigma)[int(bit), None]
        sigma = sigma[0] + adjoint(sigma[0])
        sigma *= 0.5
        return QuantumState._checked_elsewhere(sigma / self.probability)


def _leaf_blocks(tree: MeasurementTree, state: QuantumState, p_left=None):
    """Yield ``(first, block, traces)``: leaves ``first, ...``, unnormalised, and traces in [0, 1].

    Given one array per level, ``p_left`` gets the probability of probe
    outcome 0 at each node given that the node is reached (1.0 where its
    probability is zero).
    """
    if state.dim != tree.povm.dim:
        raise ValidationError(
            f"state dimension {state.dim} does not match tree dimension {tree.povm.dim}",
            what="shape")
    for level, first, block in _walk(tree, state.density, _conditioned):
        traces = np.trace(block, axis1=-2, axis2=-1).real
        if level and p_left is not None:
            q = np.maximum(traces, 0.0).reshape(-1, 2)
            total = q.sum(axis=1)
            ratio = np.divide(q[:, 0], total, out=np.ones_like(total), where=total > 0)
            p_left[level - 1][first // 2 : first // 2 + len(q)] = np.minimum(ratio, 1.0)
        if level == tree.depth:
            yield first, block, np.clip(traces, 0.0, 1.0)


def _outcome(tree, state, position, probabilities, j: int) -> SimulationOutcome:
    """Outcome j of a propagation; ``position[j]`` is its leaf, left to right."""
    return SimulationOutcome(leaf_index=j, leaf_label=tree.povm.labels[j],
                             path=node_path(tree.depth, int(position[j])),
                             probability=float(probabilities[j]), _source=(tree, state))


class Outcomes(Rows):
    """The leaves of one :func:`propagate` call, by outcome index of the (padded) POVM.

    ``outcomes[j]`` builds outcome j's :class:`SimulationOutcome` on each
    access.  ``probabilities`` and ``reached`` (probability at least
    ``TOL_CHECK``: there is a post-state) are read-only arrays by outcome,
    for callers that need nothing else.
    """

    def __init__(self, tree: MeasurementTree, state: QuantumState, probs: np.ndarray) -> None:
        position = np.empty(len(probs), dtype=np.intp)  # the leaf of each outcome
        position[tree.order] = np.arange(len(probs))
        self.probabilities = probs[position]
        self.reached = self.probabilities >= TOL_CHECK
        self.probabilities.setflags(write=False)
        self.reached.setflags(write=False)
        super().__init__(len(position), partial(_outcome, tree, state, position, self.probabilities))


def propagate(tree: MeasurementTree, state: QuantumState) -> Outcomes:
    """Exact leaf probabilities; post-measurement states on demand.

    Applies each level's branch operators to the unnormalized conditioned
    states, depth first, one block of at most 64 KiB of nodes per level at
    a time; the leaf probability is the trace of the final product, which
    telescopes to Tr[m_leaf rho m_leaf^dag].  Results are ordered by
    outcome index of the (padded) POVM.  Each block of leaves is
    symmetrised and checked as it comes, in leaf order, then dropped; a
    post-state is built when read.  A leaf whose probability is below
    ``TOL_CHECK`` is unreached and has none.

    Raises
    ------
    VerificationError
        ``what="post-state positivity"`` if a reached leaf's unnormalised
        state has an eigenvalue below ``-TOL_CHECK``, which no valid tree
        produces from a valid state.
    """
    probs = np.empty(1 << tree.depth)
    for first, block, p in _leaf_blocks(tree, state):
        probs[first : first + len(p)] = p
        at = np.flatnonzero(p >= TOL_CHECK)
        herm = block[at]
        herm += adjoint(herm)
        herm *= 0.5
        # Positivity is checked on the unnormalised states, at the scale of
        # the absolute probability.  After division by a tiny probability,
        # rounding dust of a valid state can exceed any absolute threshold.
        min_eig = np.linalg.eigvalsh(herm)[:, 0]
        bad = np.flatnonzero(min_eig < -TOL_CHECK)
        if bad.size:
            r = -min_eig[bad[0]]
            raise VerificationError(f"post-state positivity check failed, residual {r:.3e}",
                                    what="post-state positivity", residual=r,
                                    path=node_path(tree.depth, first + int(at[bad[0]])))
    return Outcomes(tree, state, probs)


@dataclass(frozen=True)
class SampleReport:
    """Seeded sampling result; equal inputs give an identical (``==``) report.

    ``max_sigma_deviation`` is the largest per-leaf deviation of the observed
    count from its expectation, in units of the binomial standard deviation
    sqrt(n p (1 - p)); leaves with p in {0, 1} contribute 0 when the count is
    exact and infinity otherwise.  ``labels`` are the tree's POVM's own.
    """

    seed: int
    shots: int
    labels: tuple[str, ...] | Rows
    counts: tuple[int, ...]
    expected: tuple[float, ...]
    max_sigma_deviation: float


def sample(
    tree: MeasurementTree, state: QuantumState, shots: int, seed: int
) -> SampleReport:
    """Sample leaf outcomes by splitting the shots down the tree, one probe measurement at a time.

    The shots that reach a node go to probe outcome 0 as one binomial draw at
    the node's conditional probability, the rest to outcome 1, one array of
    draws per level from ``numpy.random.default_rng(seed)``.  The counts are
    distributed as shots that each walk from the root, at a cost independent
    of ``shots``, an integer (not a ``bool``) in 1..2**63 - 1 (else
    ``ValidationError(what="range")``).  Equal ``(tree, state, shots, seed)``
    give an identical report.
    The conditional probabilities fill one array per level from the
    depth-first walk of :func:`propagate`, one block of at most 64 KiB of
    nodes per level at a time; only then are the shots split, level by
    level.  ``expected`` holds the exact leaf probabilities of
    :func:`propagate`, the leaf traces of the same walk; no post-state is
    symmetrised, checked or built.
    """
    try:
        shots = operator.index(shots) if not isinstance(shots, bool) else 0
    except TypeError:
        shots = 0
    if not 1 <= shots < 1 << 63:
        raise ValidationError("shots must be an integer in 1..2**63 - 1", what="range")
    p_left = [np.empty(len(pairs)) for pairs in tree.kraus]
    probs = np.empty(1 << tree.depth)
    for first, _, p in _leaf_blocks(tree, state, p_left):
        probs[first : first + len(p)] = p
    rng = np.random.default_rng(seed)
    arrived = np.array([shots], dtype=np.int64)
    for p in p_left:  # node i of a level sends its shots to nodes 2i and 2i + 1 of the next
        left = rng.binomial(arrived, p)
        arrived = np.stack([left, arrived - left], axis=1).ravel()
    n = tree.povm.n_outcomes
    counts = np.empty(n, dtype=np.int64)
    counts[tree.order] = arrived
    by_outcome = np.empty(n)
    by_outcome[tree.order] = probs
    observed = tuple(int(c) for c in counts)
    # the binomial spread of each count, in the order of shots * p * (1 - p)
    mean = shots * by_outcome
    spread = np.sqrt(mean * (1.0 - by_outcome))
    spread_positive = spread > 0
    # The counts as floats, made from Python ints: with numpy 2.4, the first
    # int64-to-float64 array cast in a process adds about 0.17 MB to its peak RSS.
    as_float = np.array(observed, dtype=float)
    sigma = np.divide(np.abs(as_float - mean), spread, out=np.zeros(n), where=spread_positive)
    # an outcome of probability 0 or 1 must get exactly its expected count
    inexact = np.count_nonzero(~spread_positive & (as_float != np.rint(mean))) > 0
    return SampleReport(
        seed=seed,
        shots=shots,
        labels=tree.povm.labels,
        counts=observed,
        expected=tuple(by_outcome.tolist()),
        max_sigma_deviation=np.inf if inexact else float(sigma.max()),
    )
