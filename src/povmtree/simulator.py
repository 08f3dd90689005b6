"""Exact propagation through a measurement tree and seeded sampling.

States are density matrices throughout, each held as its d^2 real
Hermitian parameters; pure states are rank-one densities.
A leaf is reached with probability Tr[m rho m^dag], m = b...b the product of
the Kraus operators on its path.  :func:`propagate` walks those cumulative
operators depth first, as :func:`povmtree.tree.verify` does
(:meth:`MeasurementTree._operators`), which holds no all-padding node: the state
enters only at the traces, results hold the POVM's outcomes only, and a
post-state is built from its leaf's path when read.  :func:`sample` sums
those leaf probabilities pairwise up the tree, the padding leaves' being
0, for each node's branch probabilities and splits the shots down it, one
binomial draw per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .linalg import (
    TOL_CHECK,
    _frozen,
    _whole,
    adjoint,
    as_stack,
    check_psd,
    hermitian_from_parameters,
    hermitian_parameters,
    psd_sqrt_stack,
)
from .povm import Povm
from .records import Rows
from .tree import MeasurementTree, node_path


@dataclass(frozen=True, eq=False, init=False)
class QuantumState:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.

    ``params`` is one read-only ``(d^2,)`` float64 array: the d^2 real
    parameters of the Hermitian part ``(rho + rho^dag)/2`` of the density
    given, in :attr:`povmtree.povm.Povm.params`' layout
    (:func:`povmtree.linalg.hermitian_parameters`).  Every check reads the
    density as given; a density that is exactly Hermitian is its own
    Hermitian part and is held bit for bit.
    """

    params: np.ndarray

    def __init__(self, density) -> None:
        rho = as_stack([density], bounded=True)  # fresh: check_psd may write over it
        trace = float(rho[0].trace().real)
        try:
            check_psd(rho)
        except ValidationError as err:  # a state has no elements: name its density matrix
            raise ValidationError("density " + str(err).removeprefix("element 0: "), what=err.what,
                                  residual=err.residual) from None
        if abs(trace - 1.0) > TOL_CHECK:
            raise ValidationError(f"density matrix trace is {trace}, expected 1", what="trace",
                                  residual=abs(trace - 1.0))
        object.__setattr__(self, "params", _frozen(hermitian_parameters(rho)[0]))

    @classmethod
    def _checked_elsewhere(cls, rho: np.ndarray) -> "QuantumState":
        """Hold the Hermitian part of a density matrix whose invariants the caller has checked."""
        state = object.__new__(cls)
        part = (rho + adjoint(rho)) / 2
        object.__setattr__(state, "params", _frozen(hermitian_parameters(part[None])[0]))
        return state

    @property
    def density(self) -> np.ndarray:
        """The density matrix, a fresh read-only ``(d, d)`` array built from ``params`` on each read."""
        return _frozen(hermitian_from_parameters(self.params[None])[0])

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.params))

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        """State |psi><psi| from a (not necessarily normalized) amplitude vector.

        At most one axis may be longer than 1, as in a ``(d, 1)`` column (``"shape"``).
        ``v v^dag`` of a normalised finite vector is Hermitian, positive and of
        unit trace to within rounding, so none of these is checked.
        """
        v = np.asarray(amplitudes, dtype=complex)
        if sum(n > 1 for n in v.shape) > 1:
            raise ValidationError(f"amplitudes of shape {v.shape} are not a vector", what="shape")
        if not np.isfinite(v).all():
            raise ValidationError("has an amplitude that is not finite", what="finiteness")
        parts = v.ravel().view(float)  # real and imaginary parts side by side
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0:
            raise ValidationError("cannot normalize the zero vector", what="trace")
        v = (parts / scale).view(complex)  # no part above 1: the norm lies in [1, sqrt(2d)]
        v = v / np.linalg.norm(v)
        return cls._checked_elsewhere(np.outer(v, v.conj()))

    @classmethod
    def basis(cls, dim: int, index: int) -> "QuantumState":
        """Computational basis state |index><index|, of Python or NumPy integers (not ``bool``)."""
        if not (_whole(dim) and _whole(index)) or dim < 1:
            raise ValidationError(f"basis state needs integers dim >= 1 and index, got {dim!r} "
                                  f"and {index!r}", what="range")
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} not in 0..{dim - 1}", what="range")
        v = np.zeros(dim)
        v[index] = 1.0
        return cls.pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        """The state I / dim, for an integer (not ``bool``) dim >= 1."""
        if not _whole(dim) or dim < 1:
            raise ValidationError(f"maximally mixed state needs an integer dim >= 1, got {dim!r}", what="range")
        return cls(np.eye(dim, dtype=complex) / dim)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> QuantumState:
    """Random mixed state of an integer (not ``bool``) rank in 1..dim, by default a random one."""
    if not (_whole(dim) and dim >= 1 and (rank is None or _whole(rank) and 1 <= rank <= dim)):
        raise ValidationError(f"random state needs integers dim >= 1 and rank in 1..dim (or None), "
                              f"got {dim!r} and {rank!r}", what="range")
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = x @ x.conj().T
    return QuantumState(rho / np.trace(rho).real)


def direct_probabilities(p: Povm, state: QuantumState) -> np.ndarray:
    """Outcome probabilities Tr[M_j rho], clamped to [0, 1].

    One real dot product ``p.params @ w``, with w the state's ``params``,
    its upper off-diagonal entries doubled: neither an element nor the
    density is unpacked.
    """
    if state.dim != p.dim:
        raise ValidationError(
            f"state dimension {state.dim} does not match POVM dimension {p.dim}", what="shape")
    w = state.params * 2
    w[: p.dim] = state.params[: p.dim]  # the diagonal once
    return np.clip(p.params @ w, 0.0, 1.0)


@dataclass(frozen=True)
class SimulationOutcome:
    """One leaf of the exact propagation; equal to another of the same tree and state objects and leaf.

    ``post_state`` is built from the Kraus operators on the leaf's path on
    each read; it is ``None`` for branches whose cumulative probability fell
    below the tolerance (unreachable; no conditional state exists there).
    """

    leaf_index: int
    leaf_label: str
    path: str
    probability: float
    _source: tuple = field(repr=False)  # (tree, state, leaf index)

    @property
    def post_state(self) -> QuantumState | None:
        """``(m L)(m L)^dag`` over its trace, for m the product of the path's operators and L rho's root.

        L is :func:`povmtree.linalg.psd_sqrt_stack`'s root, which drops the
        eigenvalues off ``rank_mask``, negative dust included, so this Gram
        matrix is positive however small its trace.  A trace of 0, the leaf
        reached only through dropped dust, raises ``ValidationError(what=
        "trace", path=path)``.
        """
        if self.probability < TOL_CHECK:
            return None
        tree, state, leaf = self._source
        m = np.eye(state.dim, dtype=complex)
        for level in range(tree.depth):  # node: the leaf index's first level bits; branch: the next
            node, branch = divmod(leaf >> (tree.depth - level - 1), 2)
            m = tree.pairs(level, node, node + 1)[0, branch] @ m
        f = m @ psd_sqrt_stack(state.density[None])[0]
        if not (trace := np.vdot(f, f).real) > 0:
            raise ValidationError(f"post-state has trace {trace:.3e} once the state's dust is dropped",
                                  what="trace", residual=trace, path=self.path)
        return QuantumState._checked_elsewhere(f @ adjoint(f) / trace)


def _leaf_probabilities(tree: MeasurementTree, state: QuantumState) -> np.ndarray:
    """Probabilities Tr[m rho m^dag] of the real leaves, left to right, in [0, 1], on the walk of ``verify``."""
    if state.dim != tree.povm.dim:
        raise ValidationError(f"state dimension {state.dim} does not match tree dimension {tree.povm.dim}",
                              what="shape")
    rho = state.density
    # leaves come left to right; the trace of m rho m^dag is the real dot product of m rho with m
    traces = [np.einsum("kij,kij->k", (m @ rho).view(float), m.view(float))
              for level, _, m in tree._operators(tree.depth) if level == tree.depth]
    return np.clip(np.concatenate(traces), 0.0, 1.0)


def _outcome(tree, state, position, probabilities, j: int) -> SimulationOutcome:
    """Outcome j of a propagation; ``position[j]`` is its leaf, left to right."""
    leaf = int(position[j])
    return SimulationOutcome(leaf_index=j, leaf_label=tree.povm.labels[j],
                             path=node_path(tree.depth, leaf), probability=float(probabilities[j]),
                             _source=(tree, state, leaf))


class Outcomes(Rows):
    """The leaves of one :func:`propagate` call, by outcome index of the POVM.

    ``outcomes[j]`` builds outcome j's :class:`SimulationOutcome` on each
    access.  ``probabilities`` and ``reached`` (probability at least
    ``TOL_CHECK``: there is a post-state) are read-only arrays by outcome,
    for callers that need nothing else.
    """

    def __init__(self, tree: MeasurementTree, state: QuantumState, probs: np.ndarray) -> None:
        position = np.empty(len(probs), dtype=np.intp)  # the leaf of each outcome
        position[tree.order] = np.arange(len(probs))
        self.probabilities = _frozen(probs[position])
        self.reached = _frozen(self.probabilities >= TOL_CHECK)
        self._source = tree, state
        super().__init__(len(position), partial(_outcome, tree, state, position, self.probabilities))

    def __eq__(self, other) -> bool:
        """With outcomes, whether both hold the same tree and state objects, as every row then is; else as ``Rows``."""
        if isinstance(other, Outcomes):
            return self._source[0] is other._source[0] and self._source[1] is other._source[1]
        return super().__eq__(other)

    __hash__ = Rows.__hash__  # the tuple of rows, as ``Rows``: defining __eq__ would drop it


def propagate(tree: MeasurementTree, state: QuantumState) -> Outcomes:
    """Exact leaf probabilities; post-measurement states on demand.

    Walks the cumulative Kraus operators m = b...b depth first, one block
    of at most 64 KiB of nodes per level at a time, as :func:`verify` does,
    and takes each leaf's probability Tr[m rho m^dag] as the real dot
    product of ``m rho`` with m.  Results are ordered by outcome index of
    the POVM, one per outcome.  No leaf state is
    formed: a post-state is built when read, and a leaf whose probability is
    below ``TOL_CHECK`` is unreached and has none.
    """
    return Outcomes(tree, state, _leaf_probabilities(tree, state))


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


def sample(tree: MeasurementTree, state: QuantumState, shots: int, seed: int) -> SampleReport:
    """Sample leaf outcomes by splitting the shots down the tree, one probe measurement at a time.

    ``expected`` is the leaf probabilities of :func:`propagate`'s walk.  The
    shots that reach a node go to probe outcome 0 as one binomial draw at the
    sum of ``expected`` below that outcome over the sum below the node (1.0
    where that is zero), the rest to outcome 1, one array of draws per level
    from ``numpy.random.default_rng(seed)``.  So the counts are one
    multinomial draw at ``expected``, at a cost independent of ``shots``.
    ``shots`` is a Python or NumPy integer (not a ``bool``) in 1..2**63 - 1
    and ``seed`` one >= 0 (else ``ValidationError(what="range")``).  Equal
    ``(tree, state, shots, seed)`` give an identical report.
    """
    shots, seed = (int(x) if _whole(x) else -1 for x in (shots, seed))
    if not (1 <= shots < 1 << 63 and seed >= 0):
        raise ValidationError("shots must be an integer in 1..2**63 - 1 and seed an integer >= 0",
                              what="range")
    probs = _leaf_probabilities(tree, state)
    p_left, reach = [], np.concatenate([probs, np.zeros((1 << tree.depth) - len(probs))])
    for _ in range(tree.depth):  # bottom up: a node is reached as often as its two children
        q = reach.reshape(-1, 2)
        reach = q.sum(axis=1)
        p_left.append(np.divide(q[:, 0], reach, out=np.ones_like(reach), where=reach > 0))
    rng = np.random.default_rng(seed)
    arrived = np.array([shots], dtype=np.int64)
    for p in reversed(p_left):  # node i of a level sends its shots to nodes 2i and 2i + 1 of the next
        left = rng.binomial(arrived, p)
        arrived = np.stack([left, arrived - left], axis=1).ravel()
    n = tree.povm.n_outcomes
    counts = np.empty(n, dtype=np.int64)
    counts[tree.order] = arrived[:n]  # the padding leaves' are 0
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
    return SampleReport(seed=seed, shots=shots, labels=tree.povm.labels, counts=observed,
                        expected=tuple(by_outcome.tolist()),
                        max_sigma_deviation=np.inf if inexact else float(sigma.max()))
