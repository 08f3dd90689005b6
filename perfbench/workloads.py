"""Seeded inputs and the fixed round of work for each benchmark workload.

A round is the workload's fixed amount of timed work: a list of cases, each
one POVM taken through the public pipeline

    validate -> compile_tree -> verify -> full_neumark / propagate /
    direct_probabilities -> sample -> save_tree / load_tree

with every result checked.  Inputs are made here with numpy from the workload
seed and the round index; the package only ever sees the generated matrices
and states.  Round r of seed s is the same on every run, and rounds of one
run differ, so nothing the package might cache across rounds is reused.

The (d, N) grid, the kind of each case and the number of queries, samples
and file round trips are fixed per workload; the seed changes only the
matrix entries, ranks, partitions and states.  That keeps the amount of work
in a round nearly the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A pure state is placed so close to the null space of one element that the
# element's leaf gets a probability in this range.  The range lies just above
# the simulator's tol_check (1e-9), so the post-state is still built and
# checked; that check raises on some of these valid states when d >= 3.
NEAR_NULL_PROBABILITY = (1.05e-9, 3e-9)


@dataclass
class Case:
    """One POVM and everything a round does with it."""

    dim: int
    elements: list
    kind: str  # "ranks", "rank_one", "freedom" or "permuted"
    unitaries: list | None = None  # Kraus freedom V_j, for kind "freedom"
    partition: list | None = None  # outcome order, for kind "permuted"
    states: list = field(default_factory=list)  # QuantumState queries, run through propagate
    neumark: bool = False  # check queries against full_neumark as well
    store: bool = False  # save_tree, load_tree, verify the loaded tree
    query_loaded: bool = False  # run queries and samples on the loaded tree
    shots: int = 0  # sample() shots per sampled state
    sampled: int = 0  # how many states, evenly spaced from states[0], are also sampled
    sample_seed: int = 0

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @property
    def sample_at(self) -> set:
        """Indices of the sampled states; the patterns put mixed or pure states there."""
        n = len(self.states)
        return {round(i * n / self.sampled) for i in range(self.sampled)}


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _elements(d: int, n: int, rng, rank_one: bool) -> list:
    """n PSD d x d operators summing to the identity, with random or unit ranks."""
    ranks = [1] * n if rank_one else [int(r) for r in rng.integers(1, d + 1, size=n)]
    pieces = []
    for r in ranks:
        x = _gaussian(rng, d, r)
        pieces.append(x @ x.conj().T)
    lam, basis = np.linalg.eigh(sum(pieces))
    inv_sqrt = (basis / np.sqrt(lam)) @ basis.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in pieces]


def _unitary(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, d, d) / math.sqrt(2))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _pure(d: int, rng) -> np.ndarray:
    return _gaussian(rng, d)


def _mixed(d: int, rng) -> np.ndarray:
    x = _gaussian(rng, d, int(rng.integers(1, d + 1)))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _near_null(elements: list, rng) -> np.ndarray | None:
    """Amplitudes of a pure state almost in the null space of one element.

    Tries a few random elements and uses the first rank-deficient one; returns
    None if none of them is.
    """
    for _ in range(8):
        m = elements[int(rng.integers(len(elements)))]
        w, v = np.linalg.eigh(m)
        null = int(np.sum(w <= 1e-12 * w[-1]))
        if null == 0:
            continue
        mix = _gaussian(rng, null)
        v0 = v[:, :null] @ (mix / np.linalg.norm(mix))
        lo, hi = (math.log10(x) for x in NEAR_NULL_PROBABILITY)
        p = 10 ** rng.uniform(lo, hi)
        return v0 + math.sqrt(p / w[-1]) * v[:, -1]
    return None


def _states(pt, d: int, elements: list, pattern: str, rng) -> list:
    """QuantumStates following pattern: 'm' mixed, 'p' pure, 'n' near-null.

    A near-null slot falls back to a pure state when no rank-deficient
    element is found.
    """
    qs = pt.simulator.QuantumState
    out = []
    for kind in pattern:
        if kind == "m":
            out.append(qs(_mixed(d, rng)))
            continue
        amplitudes = _near_null(elements, rng) if kind == "n" else None
        out.append(qs.pure(_pure(d, rng) if amplitudes is None else amplitudes))
    return out


def _case(pt, d: int, n: int, kind: str, pattern: str, rng, **options) -> Case:
    elements = _elements(d, n, rng, rank_one=kind in ("rank_one", "freedom"))
    case = Case(dim=d, elements=elements, kind=kind, **options)
    if kind == "freedom":
        case.unitaries = [_unitary(d, rng) for _ in range(n)]
    elif kind == "permuted":
        case.partition = [int(j) for j in rng.permutation(n)]
    case.states = _states(pt, d, elements, pattern, rng)
    case.sample_seed = int(rng.integers(2**31))
    return case


# sweep-small: d in {2, 3, 4}, N from d to 64, mostly not a power of two, so
# the padding path runs.  The four kinds rotate over the grid.  Kraus freedom
# goes on rank-one sets, whose pairwise partial sums are rank deficient for
# d >= 3, so the null-space correction and the polar factor both run.
SWEEP_N = (5, 7, 11, 13, 19, 24, 31, 37, 45, 53, 64)
SWEEP_KINDS = ("ranks", "rank_one", "freedom", "permuted")


def sweep_small(pt, rng) -> list:
    cases = []
    for d in (2, 3, 4):
        for i, n in enumerate((d,) + SWEEP_N):
            # the N = d case of each d also takes a small file round trip and
            # a small sample, so every end-to-end metric exists here too
            light_io = i == 0
            cases.append(
                _case(
                    pt, d, n, SWEEP_KINDS[(i + d) % 4], "mpn", rng,
                    neumark=True, store=light_io, shots=100_000, sampled=int(light_io),
                )
            )
    return cases


def query_wide(pt, rng) -> list:
    """Few large-N trees, many exact queries, 1e6-shot samples."""
    pattern = "mpmpn" * 2  # 10 queries per tree, 2 of them near-null
    options = dict(shots=1_000_000, sampled=2)
    return [
        _case(pt, 2, 1024, "ranks", pattern, rng, store=True, **options),
        _case(pt, 4, 1024, "ranks", pattern, rng, **options),
        _case(pt, 2, 4096, "rank_one", pattern, rng, **options),
    ]


def store_large_d(pt, rng) -> list:
    """Large-d compilation plus a JSON round trip per tree.

    The first half of the queries and samples runs on the compiled tree, the
    second half on the loaded one; they are cheap at N <= 64, so there are
    many of them.
    """
    pattern = "mpmpmpmpmn" * 6  # 60 queries per tree, 6 of them near-null
    return [
        _case(pt, d, n, "ranks", pattern, rng,
              store=True, query_loaded=True, shots=300_000, sampled=5)
        for d, n in ((16, 64), (32, 32), (32, 64))
    ]
