"""Property tests for the probe couplings, the Neumark oracle, Hermitian storage, tree files,
pure states and the positivity of leaf states."""

import contextlib
import io
import math
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmtree import (
    QuantumState,
    apply_freedom,
    compile_tree,
    complete_to_unitary,
    default_kraus,
    dilate_binary,
    direct_probabilities,
    full_neumark,
    propagate,
    random_density,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    sample,
    tetrad,
    validate,
    verify,
)
from povmtree.dilation import completeness_residuals
from povmtree.cli import main
from povmtree.io import load_povm, load_state, load_tree, save_state, save_tree
from povmtree.errors import ParseError, PovmTreeError, ValidationError, VerificationError
from povmtree.linalg import TOL_CHECK, TOL_UNITARY, adjoint
from povmtree.tree import is_permutation, node_path, real_counts

from conftest import (LEAF_OPERATOR_ERROR, frob, read_tree_file, save_padded_povm, stored_pairs,
                      write_tree_file)
from test_tree import dusty_povm_elements

# Few examples, drawn the same way on every run, so Tier-1 stays fast and stable.
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def complete_pairs(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``(k, 2, d, d)`` Kraus pairs whose ``[b0; b1]`` are random isometries."""
    z = rng.standard_normal((k, 2 * d, d)) + 1j * rng.standard_normal((k, 2 * d, d))
    return np.linalg.qr(z)[0].reshape(k, 2, d, d)


@PROPERTY
@given(d=st.integers(1, 32), k=st.integers(1, 64),
       exponent=st.floats(-16, math.log10(0.99 * TOL_CHECK)), seed=st.integers(0, 2**32 - 1))
def test_level_couplings_are_unitary_and_embed_the_pairs(d, k, exponent, seed):
    # b -> b (I + h), h Hermitian with |h|_F = r / 2, moves each pair's completeness
    # residual to r, drawn log-uniform up to TOL_CHECK: the coupling's unitarity
    # outside the Gram block stays at rounding, far inside TOL_UNITARY
    rng = np.random.default_rng(seed)
    r = 10.0**exponent
    h = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    h += h.conj().swapaxes(1, 2)
    h *= r / 2 / np.linalg.norm(h, axis=(1, 2), keepdims=True)
    pairs = complete_pairs(k, d, rng) @ (np.eye(d) + h)[:, None]
    assert np.allclose(completeness_residuals(pairs), r, rtol=0.01, atol=1e-13)
    blocks = pairs.reshape(k, 2 * d, d)
    u = np.stack([dilate_binary(pair) for pair in pairs])
    assert u.shape == (k, 2 * d, 2 * d)
    defect = u.conj().swapaxes(1, 2) @ u - np.eye(2 * d)
    defect[:, :d, :d] = 0.0
    assert np.linalg.norm(defect, axis=(1, 2)).max() <= TOL_UNITARY / 100
    assert np.array_equal(u[:, :, :d], blocks)
    i = seed % k
    one = complete_to_unitary(blocks[i], _limit=TOL_CHECK)
    assert one.tobytes() == u[i].tobytes()


@PROPERTY
@given(d=st.integers(1, 4), n=st.integers(1, 40), rank_one=st.booleans(), freedom=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_every_node_coupling_holds_its_pair(d, n, rank_one, freedom, seed):
    # tree.dilation at every internal node, the all-padding ones included,
    # below default or rotated leaf operators
    rng = np.random.default_rng(seed)
    n = max(n, d)
    p = random_rank_one_povm(n, d, rng) if rank_one else random_povm(n, d, rng)
    factorization = None
    if freedom:
        factorization = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(n)])
    tree = compile_tree(p, factorization=factorization)
    for level, pairs in enumerate(tree.kraus):
        for i, pair in enumerate(pairs):
            u = tree.dilation(node_path(level, i))
            assert u[:d, :d].tobytes() == pair[0].tobytes()
            assert u[d:, :d].tobytes() == pair[1].tobytes()
            assert frob(u.conj().T @ u - np.eye(2 * d)) <= TOL_UNITARY


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
    if padded:  # zero elements up to a power of two, as padding was
        p = validate([*p.elements, *np.zeros(((1 << (n - 1).bit_length()) - n, d, d))])
    ext = full_neumark(p)
    state = random_density(d, rng)
    worst = np.max(np.abs(ext.probabilities(state.density) - direct_probabilities(p, state)))
    assert worst <= 1e-9
    u = complete_to_unitary(ext.isometry)
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
    noise=st.floats(0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_stores_exact_hermitian_parts_that_trees_round_trip(
    d, extra, noise, seed, tmp_path_factory
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

    tree = compile_tree(p)  # padded to a power of two where n is not one
    path = tmp_path_factory.mktemp("hermitian") / "t.tree"
    save_tree(tree, path)
    again = load_tree(path)
    assert again.povm.elements.tobytes() == tree.povm.elements.tobytes()
    assert [a.tobytes() for a in again.kraus] == [a.tobytes() for a in tree.kraus]


@PROPERTY
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 3),
    given_labels=st.booleans(),
    partition=st.sampled_from(["identity", "full", "unpadded"]),
    freedom=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_files_round_trip(n, d, given_labels, partition, freedom, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, d + 1, n)
    ranks[0] = d  # so that the elements can sum to the identity
    labels = [f"outcome {j}" for j in range(n)] if given_labels else None
    p = validate(random_povm(n, d, rng, ranks=ranks).elements, labels)
    padded = 1 << (n - 1).bit_length()
    order = {"identity": None, "full": rng.permutation(padded), "unpadded": rng.permutation(n)}
    factorization = None
    if freedom:
        unitaries = [random_unitary(d, rng) for _ in range(n)]
        factorization = apply_freedom(default_kraus(p), unitaries)
    if partition == "full" and padded > n:
        # a partition permutes the n outcomes: one naming a padding leaf is refused
        with pytest.raises(ValidationError) as err:
            compile_tree(p, factorization=factorization, partition=order["full"])
        assert err.value.what == "partition"
        return
    tree = compile_tree(p, factorization=factorization, partition=order[partition])
    path = tmp_path_factory.mktemp("round-trip") / "t.tree"
    save_tree(tree, path)
    again = load_tree(path)
    assert np.array_equal(again.order, tree.order)
    assert np.array_equal(again.povm.elements, tree.povm.elements)
    assert len(again.kraus) == len(tree.kraus)
    assert all(np.array_equal(a, b) for a, b in zip(again.kraus, tree.kraus))
    assert again.povm.labels == tree.povm.labels
    assert list(again.povm.labels) == (labels or [str(j) for j in range(n)])
    assert again.povm.n_outcomes == n


@PROPERTY
@given(
    d=st.integers(1, 4),
    k=st.integers(1, 6),
    construction=st.sampled_from(["default", "freedom", "padding in the middle"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_padding_costs_no_bytes(d, k, construction, seed, tmp_path_factory):
    # N strictly between 2**k and 2**(k + 1), so some subtree is all padding
    rng = np.random.default_rng(seed)
    n = int(rng.integers((1 << k) + 1, 1 << (k + 1)))
    ranks = rng.integers(1, d + 1, n)
    ranks[0] = d  # so that the elements can sum to the identity
    p = random_povm(n, d, rng, ranks=ranks)
    factorization = None
    if construction == "freedom":
        factorization = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(n)])
    tree = compile_tree(p, factorization=factorization)
    path = tmp_path_factory.mktemp("padding") / "t.tree"
    save_tree(tree, path)
    if construction == "padding in the middle":
        # refused as a partition, and as the order of a tree file
        order = rng.permutation(2 << k)
        if np.array_equal(order[n:], np.arange(n, 2 << k)):
            order[[n - 1, n]] = order[[n, n - 1]]  # padding n before a real outcome
        with pytest.raises(ValidationError) as err:
            compile_tree(p, partition=order)
        assert err.value.what == "partition"
        header, _, arrays = read_tree_file(path)
        write_tree_file(path, header, order, arrays)
        with pytest.raises(ParseError) as err:
            load_tree(path)
        assert err.value.field == "order"
        return
    stored = stored_pairs(np.arange(2 << k), n)
    # the tree holds only the pairs of nodes with a real leaf, as the file stores them
    assert [len(level) for level in tree.kraus] == [int(kept.sum()) for kept in stored]

    with open(path, "rb") as handle:
        header = len(handle.readline())
    pairs = sum(int(kept.sum()) for kept in stored)
    order = 2 << k  # bytes: one an entry, as the depth is at most 8
    count = d * d * n + 4 * d * d * pairs  # float64 words, seven bytes of each raw
    inflate = zlib.decompressobj(wbits=-9)
    stream = path.read_bytes()[header + order + 7 * count:]
    assert len(inflate.decompress(stream)) == count and inflate.eof and not inflate.unused_data
    assert path.stat().st_size == header + order + 7 * count + len(stream)
    again = load_tree(path)
    assert again.order.tobytes() == tree.order.tobytes()
    assert again.order.nbytes == np.dtype(np.intp).itemsize * n
    assert again.povm.params.tobytes() == tree.povm.params.tobytes()
    # the elements and the pairs read from the file hold exactly the words it stores
    filled = again.povm.params.nbytes + sum(x.nbytes for x in again.kraus)
    assert filled == 8 * count
    assert [x.tobytes() for x in again.kraus] == [x.tobytes() for x in tree.kraus]

    state = random_density(d, rng)
    compiled, loaded = propagate(tree, state), propagate(again, state)
    assert compiled.probabilities.tobytes() == loaded.probabilities.tobytes()
    assert [None if o.post_state is None else o.post_state.density.tobytes() for o in compiled] == \
        [None if o.post_state is None else o.post_state.density.tobytes() for o in loaded]
    first, second = sample(tree, state, 1000, seed=seed), sample(again, state, 1000, seed=seed)
    assert (first.counts, first.expected) == (second.counts, second.expected)


@PROPERTY
@given(
    k=st.integers(1, 70),
    d=st.integers(1, 4),
    given_labels=st.booleans(),
    permuted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_results_hold_the_real_outcomes_and_files_the_padding(k, d, given_labels, permuted, seed,
                                                             tmp_path_factory):
    # padding is the tree's shape: every result indexed by outcome has k
    # entries, the report a row per internal node of the 2**depth-leaf tree,
    # and only the file's order spells out the padding leaves, as its tail
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, d + 1, k)
    ranks[0] = d  # so that the elements can sum to the identity
    labels = [f"o{j}" for j in range(k)] if given_labels else None
    p = validate(random_povm(k, d, rng, ranks=ranks).elements, labels)
    tree = compile_tree(p, partition=rng.permutation(k) if permuted else None)
    n = 1 << tree.depth
    assert tree.povm is p and n // 2 < k <= n
    state = random_density(d, rng)
    report = verify(tree)
    report_sample = sample(tree, state, 1000, seed=seed)
    lengths = [len(propagate(tree, state)), len(propagate(tree, state).probabilities),
               len(report_sample.counts), len(report_sample.expected), len(report_sample.labels),
               len(direct_probabilities(tree.povm, state)),
               len(full_neumark(tree.povm).probabilities(state.density)),
               len(report.leaf_columns["residual"])]
    assert lengths == [k] * len(lengths)
    assert len(report.nodes) == n - 1
    path = tmp_path_factory.mktemp("shape") / "t.tree"
    save_tree(tree, path)
    header, order, _ = read_tree_file(path)
    assert len(order) == n and np.array_equal(order[:k], tree.order)
    assert np.array_equal(order[k:], np.arange(k, n))
    assert header.get("labels") == (None if labels is None else labels + [f"pad{j}" for j in range(k, n)])


@PROPERTY
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_stored_pairs_are_each_levels_real_prefix(n, seed):
    # whatever the order of the real outcomes, with the padding as its tail
    # the nodes with a real leaf are a prefix of each level, of the length
    # real_counts gives: ceil(n / 2**(depth - level))
    depth = (n - 1).bit_length()
    order = np.concatenate([np.random.default_rng(seed).permutation(n), np.arange(n, 1 << depth)])
    assert is_permutation(order[:n], n)
    counts = real_counts(depth, n)
    assert counts[0] == 1 and counts[depth] == n
    stored = stored_pairs(order, n)
    assert len(stored) == depth
    for level, (kept, count) in enumerate(zip(stored, counts)):
        assert count == -(-n // (1 << (depth - level)))
        assert np.array_equal(kept, np.arange(1 << level) < count)


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


@PROPERTY
@given(
    source=st.sampled_from(["random", "dusty"]),
    d=st.integers(2, 8),
    n=st.integers(1, 64),
    dust=st.floats(0, 1),
    seed=st.integers(0, 199),
)
def test_leaf_states_keep_the_state_floor(source, d, n, dust, seed):
    # A leaf state m rho m^dag is a congruence by a contraction (m^dag m <= I
    # for complete pairs), so a state whose lowest eigenvalue is as far
    # below zero as QuantumState allows gives leaves no further below it:
    # the unnormalised leaf state needs no check (its post-state is a Gram
    # matrix over its trace, built when read).
    if source == "dusty":
        elements, rng = dusty_povm_elements(seed)
        try:
            tree = compile_tree(validate(elements))
        except VerificationError:  # the dusty POVMs that do not compile yet
            assume(False)
        d = tree.povm.dim
    else:
        rng = np.random.default_rng([seed, d, n])
        ranks = rng.integers(1, d + 1, n)
        ranks[0] = d  # so that the elements can sum to the identity
        tree = compile_tree(random_povm(n, d, rng, ranks=ranks))
    w, v = np.linalg.eigh(random_density(d, rng).density)
    # the lowest eigenvalue moved to -dust * TOL_CHECK, a part in 1e6 inside
    # the floor so that rounding in the product keeps the state valid
    w[0] = -dust * TOL_CHECK * (1 - 1e-6)
    w[1:] *= (1 - w[0]) / w[1:].sum()
    rho = (v * w) @ adjoint(v)
    state = QuantumState((rho + adjoint(rho)) / 2)
    m = tree.cumulative_kraus(tree.depth)[: tree.povm.n_outcomes]  # the real leaves
    leaves = m @ state.density @ adjoint(m)
    assert len(leaves) == tree.povm.n_outcomes
    lowest = np.linalg.eigvalsh((leaves + adjoint(leaves)) / 2)[:, 0]
    assert lowest.min() >= -TOL_CHECK * (1 + 1e-6)
    # and each leaf by its own |m|^2, the largest eigenvalue of its POVM element
    largest = np.linalg.eigvalsh(tree.povm.elements[tree.order])[:, -1] + TOL_CHECK
    assert (lowest >= w[0] * largest - TOL_CHECK * 1e-6).all()


@PROPERTY
@given(
    freedom=st.booleans(),
    kind=st.sampled_from(["pure", "mixed", "near-null"]),
    d=st.integers(2, 8),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_post_states_are_those_of_the_targets(freedom, kind, d, n, seed):
    # The tree implements the instrument rho -> m_j rho m_j^dag of its
    # targets m_j: default_kraus, or the factorization it was given.  With
    # rho = L L^dag, an error E in m_j moves (m_j L)(m_j L)^dag by at most
    # 2 |E| |m_j L| + |E|^2, where |m_j L|_F^2 = p_j, and dividing by the
    # trace at most doubles that relative to p_j: the post-state is within
    # 4 |E| / sqrt(p_j) of the reference, plus O(|E|^2 / p_j).  At p_j near
    # TOL_CHECK that is 1.3e-9; a product m rho m^dag over its trace was off
    # by up to 2.2e-8 there, and 60 of 300 such reads raised.
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, d + 1, n)
    ranks[0] = d  # so that the elements can sum to the identity
    p = random_povm(n, d, rng, ranks=ranks)
    targets = default_kraus(p)
    if freedom:
        targets = apply_freedom(targets, [random_unitary(d, rng) for _ in range(n)])
    tree = compile_tree(p, targets if freedom else None)
    columns = d if kind == "mixed" else 1
    x = rng.standard_normal((d, columns)) + 1j * rng.standard_normal((d, columns))
    if kind == "near-null":  # almost in the kernel of a rank-deficient element, reached at about 1e-9 to 1e-6
        w, v = np.linalg.eigh(p.elements[int(np.argmin(ranks))])
        assume(w[0] <= 1e-12 * w[-1])
        x = v[:, :1] + math.sqrt(10 ** rng.uniform(-8.9, -6) / w[-1]) * v[:, -1:]
    L = x / np.linalg.norm(x)  # rho = L L^dag
    outcomes = propagate(tree, QuantumState(L @ adjoint(L)) if kind == "mixed" else QuantumState.pure(L[:, 0]))
    for j in np.flatnonzero(outcomes.reached):
        f = targets[j] @ L
        reference = f @ adjoint(f) / np.vdot(f, f).real
        error = frob(outcomes[j].post_state.density - reference)
        assert error <= 4 * LEAF_OPERATOR_ERROR / math.sqrt(outcomes.probabilities[j])


def mutated(raw: bytes, kind: str, data) -> bytes:
    """``raw`` with one byte flipped, cut short, or with up to 16 bytes inserted, at a drawn offset."""
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="mask")]) + raw[at + 1:]
    if kind == "cut":
        return raw[:at]
    return raw[:at] + data.draw(st.binary(min_size=1, max_size=16), label="inserted") + raw[at:]


@pytest.fixture(scope="module")
def json_files(tmp_path_factory):
    """A d = 2 tree file, and the bytes of a state file and of a labelled POVM file padded from 3 outcomes."""
    directory = tmp_path_factory.mktemp("json-mutants")
    rng = np.random.default_rng(8)
    save_tree(compile_tree(tetrad(), partition=[0, 3, 1, 2]), directory / "tetrad.tree")
    save_padded_povm(validate(random_povm(3, 2, rng).elements, ["a", "b", "c"]), 4, directory / "povm")
    save_state(random_density(2, rng), directory / "state")
    return directory, {name: (directory / name).read_bytes() for name in ("povm", "state")}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(["povm", "state"]), kind=st.sampled_from(["flip", "cut", "insert"]),
       data=st.data())
def test_mutated_json_files_are_refused_or_load(json_files, which, kind, data):
    # POVM and state files are untrusted input too: a mutant loads or raises
    # a PovmTreeError, and the command that reads it, validate or simulate
    # --state, exits with one of its codes instead of a traceback
    directory, files = json_files
    path = directory / f"mutant.{which}.json"
    path.write_bytes(mutated(files[which], kind, data))
    try:
        (load_povm if which == "povm" else load_state)(path)
    except PovmTreeError:
        pass
    argv = (["validate", str(path)] if which == "povm"
            else ["simulate", str(directory / "tetrad.tree"), "--state", str(path)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def tree_files(tmp_path_factory):
    """The bytes of the tetrad's tree file and of a d = 4 tree padded from 5 outcomes to 8."""
    directory = tmp_path_factory.mktemp("mutants")
    trees = {"tetrad": compile_tree(tetrad(), partition=[0, 3, 1, 2]),
             "padded": compile_tree(random_rank_one_povm(5, 4, np.random.default_rng(5)))}
    for name, tree in trees.items():
        save_tree(tree, directory / name)
    return directory, {name: (directory / name).read_bytes() for name in trees}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(["tetrad", "padded"]), kind=st.sampled_from(["flip", "cut", "insert"]),
       data=st.data())
def test_mutated_tree_files_are_refused_or_load_as_valid_trees(tree_files, which, kind, data):
    # a file is untrusted input: a flipped byte, a truncation or inserted
    # bytes anywhere, header included, is a PovmTreeError, or the file loads
    # as a tree that passes verify and saves to bytes that load again
    directory, files = tree_files
    path = directory / "mutant.tree"
    path.write_bytes(mutated(files[which], kind, data))
    try:
        tree = load_tree(path)
    except PovmTreeError:
        return
    verify(tree)
    save_tree(tree, directory / "resaved.tree")
    again = load_tree(directory / "resaved.tree")
    assert again.order.tobytes() == tree.order.tobytes()
    assert [a.tobytes() for a in again.kraus] == [a.tobytes() for a in tree.kraus]
