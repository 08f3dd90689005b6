"""Property tests for the stacked unitary completion, the Neumark oracle, Hermitian storage and pure states."""

import numpy as np
from hypothesis import given, settings, strategies as st

from povmtree import (
    QuantumState,
    compile_tree,
    dilate_binary,
    direct_probabilities,
    full_neumark,
    pad_to_power_of_two,
    random_density,
    random_povm,
    random_rank_one_povm,
    validate,
)
from povmtree.dilation import dilate_level
from povmtree.io import load_tree, save_tree
from povmtree.linalg import TOL_CHECK, complete_to_unitary_stack

from conftest import frob

# Few examples, drawn the same way on every run, so Tier-1 stays fast and stable.
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def complete_pairs(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``(k, 2, d, d)`` Kraus pairs whose ``[b0; b1]`` are random isometries."""
    z = rng.standard_normal((k, 2 * d, d)) + 1j * rng.standard_normal((k, 2 * d, d))
    return np.linalg.qr(z)[0].reshape(k, 2, d, d)


@PROPERTY
@given(d=st.integers(1, 32), k=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_level_couplings_are_unitary_and_embed_the_pairs(d, k, seed):
    pairs = complete_pairs(k, d, np.random.default_rng(seed))
    blocks = pairs.reshape(k, 2 * d, d)
    u = dilate_level(pairs)
    assert u.shape == (k, 2 * d, 2 * d)
    defect = np.linalg.norm(u.conj().swapaxes(1, 2) @ u - np.eye(2 * d), axis=(1, 2))
    assert defect.max() <= 1e-10
    assert np.array_equal(u[:, :, :d], blocks)
    assert np.array_equal(complete_to_unitary_stack(blocks), u)
    i = seed % k
    one = dilate_binary(pairs[i])
    assert one.tobytes() == u[i].tobytes()


@PROPERTY
@given(
    d=st.integers(1, 5),
    extra=st.integers(0, 12),
    rank_one=st.booleans(),
    padded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_neumark_isometry_matches_direct_probabilities(d, extra, rank_one, padded, seed):
    rng = np.random.default_rng(seed)
    n = d + extra
    p = random_rank_one_povm(n, d, rng) if rank_one else random_povm(n, d, rng)
    if padded:
        p = pad_to_power_of_two(p)
    ext = full_neumark(p)
    state = random_density(d, rng)
    worst = np.max(np.abs(ext.probabilities(state.density) - direct_probabilities(p, state)))
    assert worst <= 1e-9
    u = ext.unitary
    assert frob(u.conj().T @ u - np.eye(ext.extended_dim)) <= 1e-10
    assert np.array_equal(u[:, :d], ext.isometry)


def anti_hermitian_noise(n: int, d: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """``(n, d, d)`` anti-Hermitian matrices of Frobenius norm ``scale`` each."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    k = g - g.conj().swapaxes(1, 2)
    norms = np.linalg.norm(k, axis=(1, 2))[:, None, None]
    return scale * np.divide(k, norms, out=np.zeros_like(k), where=norms > 0)


@PROPERTY
@given(
    d=st.integers(1, 6),
    extra=st.integers(0, 12),
    padded=st.booleans(),
    noise=st.floats(0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_stores_exact_hermitian_parts_that_trees_round_trip(
    d, extra, padded, noise, seed, tmp_path_factory
):
    rng = np.random.default_rng(seed)
    n = d + extra
    # anti-Hermitian noise below TOL_CHECK in every element and in their sum
    raw = random_povm(n, d, rng).elements + anti_hermitian_noise(
        n, d, noise * TOL_CHECK / (2 * n), rng)
    p = validate(raw)
    e = p.elements
    lower = np.tril_indices(d, -1)
    assert e.real.tobytes() == e.real.swapaxes(1, 2).copy().tobytes()
    assert e.imag[:, lower[0], lower[1]].tobytes() == (0.0 - e.imag[:, lower[1], lower[0]]).tobytes()
    assert np.diagonal(e.imag, axis1=1, axis2=2).tobytes() == bytes(8 * n * d)
    assert validate(e).elements.tobytes() == e.tobytes()

    tree = compile_tree(pad_to_power_of_two(p) if padded else p)
    path = tmp_path_factory.mktemp("hermitian") / "t.tree"
    save_tree(tree, path)
    again = load_tree(path)
    assert again.povm.elements.tobytes() == tree.povm.elements.tobytes()
    assert [a.tobytes() for a in again.kraus] == [a.tobytes() for a in tree.kraus]


@PROPERTY
@given(
    d=st.integers(1, 64),
    exponent=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_states_pass_the_full_state_check(d, exponent, seed):
    # pure() checks no eigenvalue: v v^dag of a normalised vector is a state
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0**exponent
    v[rng.random(d) < 0.25] = 0.0
    if not v.any():
        v[0] = 10.0**exponent
    rho = QuantumState.pure(v).density
    assert np.array_equal(QuantumState(rho).density, rho)
