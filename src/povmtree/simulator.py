"""Exact propagation through a measurement tree and seeded sampling.

A state is held as its d^2 real Hermitian parameters, or a pure state as its
d unit amplitudes, and is walked as pieces ``rho = sum_c w_c u_c u_c^dag``
(:meth:`QuantumState._pieces`), as the paper's probe rounds pass the state
on.  :func:`propagate` carries ``f = m u``, m = b...b the product of the Kraus
operators on a path, depth first on the walk of :func:`povmtree.tree.verify`
(:meth:`MeasurementTree._operators`), and reads each leaf's probability
``Tr[m rho m^dag]`` as ``sum_c w_c |f_c|^2``; a post-state walks its leaf's
path when read.  :func:`sample` sums those leaf probabilities pairwise up the
tree, the padding leaves' being 0, for each node's branch probabilities and
splits the shots down it, one binomial draw per node.
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
    _numbers,
    _whole,
    adjoint,
    as_stack,
    check_psd,
    hermitian_from_parameters,
    hermitian_parameters,
)
from .povm import Povm
from .records import Rows
from .tree import MeasurementTree, node_path


@dataclass(frozen=True, eq=False, init=False)
class QuantumState:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite.

    A state holds one read-only array.  A pure state (:meth:`pure`,
    :meth:`basis`) holds its ``(d,)`` complex unit amplitudes v; any other
    holds its ``params``, the d^2 real parameters of the Hermitian part
    ``(rho + rho^dag)/2`` of the density given, in
    :attr:`povmtree.povm.Povm.params`' layout
    (:func:`povmtree.linalg.hermitian_parameters`).  Every check reads the
    density as given; a density that is exactly Hermitian is its own
    Hermitian part and is held bit for bit.  A pure state's ``params`` are
    those of the Hermitian part of ``outer(v, v.conj())``, a fresh
    read-only ``(d^2,)`` array built on each read.
    """

    _held: np.ndarray

    def __init__(self, density) -> None:
        try:
            rho = as_stack([density], bounded=True)  # fresh: check_psd may write over it
            trace = float(rho[0].trace().real)
            check_psd(rho)
        except ValidationError as err:  # a state has no elements: name its density matrix
            raise ValidationError("density " + str(err).removeprefix("element 0: "), what=err.what,
                                  residual=err.residual) from None
        if abs(trace - 1.0) > TOL_CHECK:
            raise ValidationError(f"density matrix trace is {trace}, expected 1", what="trace",
                                  residual=abs(trace - 1.0))
        object.__setattr__(self, "_held", _frozen(hermitian_parameters(rho)[0]))

    @classmethod
    def _checked_elsewhere(cls, held: np.ndarray) -> "QuantumState":
        """Hold a density's parameters or a pure state's unit amplitudes, which the caller has checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "_held", _frozen(held))
        return state

    @property
    def params(self) -> np.ndarray:
        """The read-only ``(d^2,)`` float64 parameters; a pure state's are built on each read."""
        v = self._held
        return v if v.dtype == float else _part_parameters(np.outer(v, v.conj()))

    @property
    def density(self) -> np.ndarray:
        """The density matrix, a fresh read-only ``(d, d)`` array built from ``params`` on each read."""
        return _frozen(hermitian_from_parameters(self.params[None])[0])

    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, w)`` with ``rho = sum_c w_c u_c u_c^dag``: a pure state's ``(d, 1)`` amplitudes with weight 1, or
        else the density's ``eigh``, all d eigenvectors with their signed eigenvalues (no rank is decided)."""
        if self._held.dtype == complex:
            return self._held[:, None], np.ones(1)
        return np.linalg.eigh(self.density)[::-1]

    @property
    def dim(self) -> int:
        n = len(self._held)
        return n if self._held.dtype == complex else math.isqrt(n)

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        """State |psi><psi| from a (not necessarily normalized) amplitude vector.

        At most one axis may be longer than 1, as in a ``(d, 1)`` column (``"shape"``).
        ``v v^dag`` of a normalised finite vector is Hermitian, positive and of
        unit trace to within rounding, so none of these is checked.  The state
        holds the normalised ``(d,)`` vector.
        """
        try:  # the shape first, as ``as_stack`` reads it: ragged amplitudes have none
            shape = np.shape(amplitudes)
        except ValueError as err:
            raise ValidationError(f"amplitudes are not a vector: {err}", what="shape") from None
        if sum(n > 1 for n in shape) > 1:
            raise ValidationError(f"amplitudes of shape {shape} are not a vector", what="shape")
        v = _numbers(amplitudes)
        if v is None or not np.isfinite(v).all():
            raise ValidationError("has an amplitude that is not a finite number", what="finiteness")
        parts = v.ravel().view(float)  # real and imaginary parts side by side
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0:
            raise ValidationError("cannot normalize the zero vector", what="trace")
        v = (parts / scale).view(complex)  # no part above 1: the norm lies in [1, sqrt(2d)]
        return cls._checked_elsewhere(v / np.linalg.norm(v))

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


def _part_parameters(rho: np.ndarray) -> np.ndarray:
    """The read-only d^2 real parameters of the Hermitian part of a ``(d, d)`` matrix."""
    return _frozen(hermitian_parameters(((rho + adjoint(rho)) / 2)[None])[0])


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
    w = (params := state.params) * 2  # read once: a pure state's are built on each read
    w[: p.dim] = params[: p.dim]  # the diagonal once
    return np.clip(p.params @ w, 0.0, 1.0)


@dataclass(frozen=True)
class SimulationOutcome:
    """One leaf of the exact propagation; equal to another of the same tree and state objects and leaf."""

    leaf_index: int
    leaf_label: str
    path: str
    probability: float
    _source: tuple = field(repr=False)  # (tree, state, leaf index)

    @property
    def post_state(self) -> QuantumState | None:
        """``f f^dag`` over its trace, ``f = m u sqrt(max(w, 0))`` for m the path's product; built on each read.

        (u, w) are the state's pieces (:meth:`QuantumState._pieces`).  Without
        the negative weights, dust within the state's check, this is a Gram
        matrix, positive however small its trace, which is at least the
        leaf's probability.  ``None`` below ``TOL_CHECK`` (unreached).
        """
        if self.probability < TOL_CHECK:
            return None
        tree, state, leaf = self._source
        u, w = state._pieces()
        f = u * np.sqrt(np.maximum(w, 0.0))
        for level in range(tree.depth):  # node: the leaf index's first level bits; branch: the next
            node, branch = divmod(leaf >> (tree.depth - level - 1), 2)
            f = tree.pairs(level, node, node + 1)[0, branch] @ f
        return QuantumState._checked_elsewhere(_part_parameters(f @ adjoint(f) / np.vdot(f, f).real))


def _leaf_probabilities(tree: MeasurementTree, state: QuantumState) -> np.ndarray:
    """Probabilities ``sum_c w_c |m u_c|^2`` of the real leaves, left to right, in [0, 1], on the walk of ``verify``."""
    if state.dim != tree.povm.dim:
        raise ValidationError(f"state dimension {state.dim} does not match tree dimension {tree.povm.dim}",
                              what="shape")
    u, w = state._pieces()
    w = np.repeat(w, 2)  # each column's real and imaginary parts side by side, as f.view(float) holds them
    # summed row by row, not by a matrix product, so a leaf's bits do not depend on its block's size
    norms = [(np.einsum("kij,kij->kj", f.view(float), f.view(float)) * w).sum(axis=1)
             for level, _, f in tree._operators(tree.depth, u) if level == tree.depth]
    return np.clip(np.concatenate(norms), 0.0, 1.0)


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

    Walks the state's pieces ``f = m u`` depth first, one block of at most
    64 KiB of nodes per level at a time, as :func:`verify` walks m, and takes
    each leaf's probability as ``sum_c w_c |f_c|^2``.  Results are ordered by
    outcome index of the POVM, one per outcome.  A post-state is built when
    read; a leaf whose probability is below ``TOL_CHECK`` is unreached and
    has none.
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
