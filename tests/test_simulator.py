import hashlib
import math

import numpy as np
import pytest

from povmtree import (
    PovmTreeError,
    QuantumState,
    ValidationError,
    apply_freedom,
    compile_tree,
    default_kraus,
    direct_probabilities,
    pad_to_power_of_two,
    propagate,
    random_density,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    sample,
    validate,
)

from conftest import frob


class TestQuantumState:
    def test_constructors(self):
        assert QuantumState.basis(3, 1).density[1, 1] == 1.0
        assert np.allclose(QuantumState.maximally_mixed(4).density, np.eye(4) / 4)
        plus = QuantumState.pure([1.0, 1.0])
        assert np.allclose(plus.density, np.full((2, 2), 0.5))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            QuantumState(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            QuantumState(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValidationError) as err:
            QuantumState(np.zeros((2, 3)))
        assert err.value.what == "shape"

    @pytest.mark.parametrize(
        "rho, text, what",
        [
            ([[0.5, 0.5], [0.0, 0.5]], "not Hermitian", "hermiticity"),
            (np.eye(2), "trace", "trace"),
            (np.diag([1.5, -0.5]), "negative eigenvalue", "positivity"),
        ],
        ids=["not-hermitian", "trace", "negative-eigenvalue"],
    )
    def test_invalid_state_is_typed(self, rho, text, what):
        with pytest.raises(PovmTreeError) as err:
            QuantumState(np.array(rho))
        assert isinstance(err.value, ValidationError)
        assert isinstance(err.value, ValueError)
        assert err.value.exit_code == 1
        assert err.value.what == what
        assert text in str(err.value)

    def test_random_density_valid(self, rng):
        for _ in range(10):
            state = random_density(4, rng)
            assert state.dim == 4  # constructor already validated

    def test_density_is_frozen(self):
        state = QuantumState.maximally_mixed(2)
        with pytest.raises(ValueError):
            state.density[0, 0] = 9.0


class TestDirectProbabilities:
    def test_tetrad_maximally_mixed(self, tetrad_povm):
        probs = direct_probabilities(tetrad_povm, QuantumState.maximally_mixed(2))
        assert np.allclose(probs, [0.25] * 4, atol=1e-12)

    def test_tetrad_basis_state(self, tetrad_povm):
        probs = direct_probabilities(tetrad_povm, QuantumState.basis(2, 0))
        assert np.allclose(probs, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_padded_element_zero(self, rng):
        p = pad_to_power_of_two(random_rank_one_povm(3, 2, rng))
        probs = direct_probabilities(p, random_density(2, rng))
        assert probs[3] == 0.0

    def test_dimension_mismatch(self, tetrad_povm):
        with pytest.raises(ValidationError) as err:
            direct_probabilities(tetrad_povm, QuantumState.maximally_mixed(3))
        assert err.value.what == "shape"

    def test_matches_per_element_traces(self):
        rng = np.random.default_rng([2, 4096])
        p = random_rank_one_povm(4096, 2, rng)
        state = random_density(2, rng)
        loop = np.array([np.einsum("ij,ji->", m, state.density).real for m in p.elements])
        probs = direct_probabilities(p, state)
        assert np.max(np.abs(probs - np.clip(loop, 0.0, 1.0))) <= 1e-15


class TestPropagate:
    def test_projective_tree(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        tree = compile_tree(p)
        outcomes = propagate(tree, QuantumState.basis(2, 0))
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        assert outcomes[1].probability == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(outcomes[0].post_state.density, np.diag([1.0, 0.0]))
        assert outcomes[1].post_state is None  # unreached branch

    def test_tetrad_matches_direct(self, tetrad_povm):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        state = QuantumState.basis(2, 0)
        tree_probs = np.array([o.probability for o in propagate(tree, state)])
        assert np.allclose(tree_probs, direct_probabilities(tetrad_povm, state), atol=1e-9)
        assert np.allclose(tree_probs, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-9)

    def test_outcome_metadata(self, tetrad_povm):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        outcomes = propagate(tree, QuantumState.maximally_mixed(2))
        assert [o.leaf_index for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[3].path == "01"  # outcome 3 sits right of outcome 0
        assert outcomes[1].leaf_label == "1"

    def test_outcomes_are_a_sequence(self, rng):
        tree = compile_tree(random_rank_one_povm(5, 2, rng), partition=[4, 0, 3, 1, 2])
        outcomes = propagate(tree, random_density(2, rng))
        assert len(outcomes) == 8
        listed = list(outcomes)
        assert [o.leaf_index for o in listed] == list(range(8))
        assert [o.path for o in listed] == ["001", "011", "100", "010", "000", "101", "110", "111"]
        for j, o in enumerate(listed):
            assert outcomes.probabilities[j] == outcomes[j].probability == o.probability
            assert outcomes[j - 8].path == o.path
        for j in (8, -9):
            with pytest.raises(IndexError):
                outcomes[j]
        assert not outcomes.probabilities.flags.writeable
        post = outcomes[0].post_state.density
        assert not post.flags.writeable and post.base is not None
        assert np.array_equal(post, listed[0].post_state.density)
        assert outcomes[7].post_state is None  # a padding leaf is never reached

    def test_padded_leaf_unreached(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p)
        outcomes = propagate(tree, random_density(2, rng))
        assert outcomes[3].probability <= 1e-12
        assert outcomes[3].post_state is None

    def test_probability_conservation(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 10))
            tree = compile_tree(random_povm(n, d, rng))
            outcomes = propagate(tree, random_density(d, rng))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)

    def test_tree_vs_direct_over_many_states(self, rng):
        p = random_povm(6, 3, rng)
        tree = compile_tree(p)
        worst = 0.0
        for _ in range(100):
            state = random_density(3, rng)
            tree_probs = np.array([o.probability for o in propagate(tree, state)])
            worst = max(worst, float(np.max(np.abs(
                tree_probs - direct_probabilities(tree.povm, state)))))
        assert worst <= 1e-8

    def test_unitary_freedom_rotates_post_states_only(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        f = default_kraus(p)
        f_rot = apply_freedom(f, [random_unitary(2, rng) for _ in range(4)])
        state = random_density(2, rng)
        base = propagate(compile_tree(p, f), state)
        rot = propagate(compile_tree(p, f_rot), state)
        for a, b in zip(base, rot):
            assert a.probability == pytest.approx(b.probability, abs=1e-9)
        moved = any(
            a.post_state is not None
            and b.post_state is not None
            and frob(a.post_state.density - b.post_state.density) > 1e-6
            for a, b in zip(base, rot)
        )
        assert moved

    def test_post_states_valid(self, rng):
        tree = compile_tree(random_povm(5, 3, rng))
        outcomes = propagate(tree, random_density(3, rng))
        for o in outcomes:
            if o.post_state is not None:
                assert o.post_state.dim == 3  # constructor validated the invariants

    def test_dimension_mismatch(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        with pytest.raises(ValidationError) as err:
            propagate(tree, QuantumState.maximally_mixed(3))
        assert err.value.what == "shape"

    @pytest.mark.parametrize("d, n, n_povms", [(3, 9, 10), (4, 16, 10), (32, 64, 1)])
    def test_near_null_states_never_raise(self, d, n, n_povms):
        # Pure states almost in the null space of one rank-one element give
        # its leaf a probability just above tol_check.  The rounding dust of
        # the branch state, divided by that probability, used to fail an
        # absolute positivity check on these valid inputs.
        tol = 1e-9
        for seed in range(n_povms):
            rng = np.random.default_rng([d, seed])
            p = random_rank_one_povm(n, d, rng)
            tree = compile_tree(p)
            for j in rng.permutation(n)[:24]:
                w, v = np.linalg.eigh(p.elements[j])
                null = int(np.sum(w <= 1e-12 * w[-1]))
                mix = rng.standard_normal(null) + 1j * rng.standard_normal(null)
                near = v[:, :null] @ (mix / np.linalg.norm(mix))
                prob = 10 ** rng.uniform(math.log10(1.05e-9), math.log10(3e-9))
                state = QuantumState.pure(near + math.sqrt(prob / w[-1]) * v[:, -1])
                outcomes = propagate(tree, state)
                direct = direct_probabilities(tree.povm, state)
                assert np.max(np.abs([o.probability for o in outcomes] - direct)) <= 1e-8
                assert outcomes[j].post_state is not None
                for o in outcomes:
                    if o.post_state is None:
                        continue
                    rho = o.post_state.density
                    assert abs(np.trace(rho).real - 1) <= 1e-9
                    assert frob(rho - rho.conj().T) <= 1e-9
                    assert np.linalg.eigvalsh(rho)[0] * o.probability >= -tol


class TestSample:
    def test_deterministic_single_shot(self, rng):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        tree = compile_tree(p)
        for seed in (0, 1, 12345):
            report = sample(tree, QuantumState.basis(2, 0), 1, seed)
            assert report.counts == (1, 0)

    def test_seed_reproducibility(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        state = QuantumState.maximally_mixed(2)
        a = sample(tree, state, 50_000, seed=7)
        b = sample(tree, state, 50_000, seed=7)
        assert a == b
        c = sample(tree, state, 50_000, seed=8)
        assert c.counts != a.counts

    def test_counts_sum_and_statistics(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        report = sample(tree, QuantumState.maximally_mixed(2), 100_000, seed=3)
        assert sum(report.counts) == report.shots
        assert np.allclose(report.expected, [0.25] * 4, atol=1e-12)
        assert report.max_sigma_deviation <= 5.0

    def test_chunk_boundary_consistency(self, tetrad_povm):
        # crossing the 65536-shot chunk boundary must not disturb determinism
        tree = compile_tree(tetrad_povm)
        state = QuantumState.maximally_mixed(2)
        a = sample(tree, state, (1 << 16) + 17, seed=11)
        b = sample(tree, state, (1 << 16) + 17, seed=11)
        assert a == b
        assert sum(a.counts) == (1 << 16) + 17

    def test_padded_leaves_never_sampled(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p)
        report = sample(tree, random_density(2, rng), 20_000, seed=5)
        assert report.counts[3] == 0

    def test_rejects_zero_shots(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        with pytest.raises(ValueError):
            sample(tree, QuantumState.maximally_mixed(2), 0, seed=1)

    def test_degenerate_single_outcome(self):
        tree = compile_tree(validate([np.eye(2)]))
        report = sample(tree, QuantumState.maximally_mixed(2), 100, seed=0)
        assert report.counts == (100,)


# sample(tree, state, shots, seed=7) counts on the cases of _pinned_case; for
# N >= 1024 outcomes, the SHA-256 of repr(counts).  Recorded before the
# sampler drew its uniforms in row blocks, so a change to the random stream,
# the chunking or the descent shows here.
PINNED_COUNTS = {
    ("rank-one", 2, 4096): {
        1: "34083d5f47846286bb2bc443d4ca51389dd60c96d7bbf8bedbf9255d138eb919",
        4095: "e5e073e8366903e7d976c933825455ddaa4c35a2e0b49987d653fc3b4925e011",
        4097: "063310945b02bdae731a2c9ddaf094e5a9051fd2a9ba550a7ac405bef4446893",
        65536: "e0b3039b35562a694c23e09530a84eeddc2e5617d7420a77702f7f49f168d26b",
        65537: "d55d5d2e30539baf96545cf52722ddc472953d779cbd03c454b8741e05577eb7",
        1000000: "f628030e6f00a83ec0876e655d8a3f5a34a441ca7c47458f07eb3eb63156133f",
    },
    ("mixed", 4, 1024): {
        1: "fc59f3fc1a36f571256cdb89014e28799fbc227b67e02c0e9c75549f36362dc8",
        4095: "9f33ebf19f72959f360f487db8a04d1aa50c2aa0964d57a05dc47e9b7393aad5",
        4097: "dc2c06cc307f1807207f8e7ca8cca5cc282b07c1b35ef4d285478159457ae944",
        65536: "78f1c332fbfbb6f65b2e6540645af70e2b1e6e89c07c2e510ba496279f8e5639",
        65537: "e4efd891d3e3762e9eb0d6b3cdd08c5b60cb07d3ab5f4ede976506927f3a9ab8",
        1000000: "4fc32a89f62d38f9f11a7e66ec77191004eb6a90395782a4399588d0c94ec98e",
    },
    ("mixed", 32, 64): {
        1: (
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
        ),
        4095: (
            54, 58, 130, 119, 100, 27, 12, 21, 88, 83, 112, 107, 109, 104, 71, 19,
            58, 24, 60, 19, 111, 35, 10, 33, 12, 4, 68, 111, 77, 40, 55, 26, 10,
            122, 11, 54, 126, 10, 78, 92, 66, 88, 51, 59, 81, 22, 90, 37, 75, 88,
            54, 21, 54, 52, 74, 92, 95, 73, 93, 36, 77, 75, 80, 102
        ),
        4097: (
            54, 58, 130, 119, 100, 27, 12, 21, 88, 83, 112, 107, 110, 104, 71, 19,
            58, 24, 60, 19, 112, 35, 10, 33, 12, 4, 68, 111, 77, 40, 55, 26, 10,
            122, 11, 54, 126, 10, 78, 92, 66, 88, 51, 59, 81, 22, 90, 37, 75, 88,
            54, 21, 54, 52, 74, 92, 95, 73, 93, 36, 77, 75, 80, 102
        ),
        65536: (
            805, 953, 2086, 1856, 1611, 624, 149, 280, 1568, 1364, 1896, 1859, 1561,
            1640, 1221, 242, 1006, 457, 901, 353, 1801, 453, 126, 605, 192, 75,
            1046, 1633, 1052, 586, 978, 405, 336, 1747, 160, 727, 1895, 166, 1170,
            1355, 1143, 1389, 845, 918, 1299, 309, 1246, 496, 1085, 1412, 797, 328,
            918, 695, 1209, 1761, 1725, 1251, 1778, 670, 1015, 1333, 1353, 1621
        ),
        65537: (
            805, 953, 2086, 1856, 1611, 624, 149, 280, 1568, 1364, 1896, 1859, 1561,
            1640, 1221, 242, 1006, 457, 901, 353, 1801, 453, 126, 605, 192, 75,
            1046, 1633, 1052, 586, 978, 405, 336, 1748, 160, 727, 1895, 166, 1170,
            1355, 1143, 1389, 845, 918, 1299, 309, 1246, 496, 1085, 1412, 797, 328,
            918, 695, 1209, 1761, 1725, 1251, 1778, 670, 1015, 1333, 1353, 1621
        ),
        1000000: (
            13562, 15167, 32108, 27645, 25175, 9615, 2297, 3779, 24244, 19697,
            28557, 27493, 24413, 24964, 18565, 3218, 15130, 7682, 14186, 4864,
            28563, 6898, 2037, 9546, 2781, 1400, 16000, 24177, 16609, 8274, 14213,
            6088, 4979, 25524, 2640, 11222, 29323, 2697, 16959, 19942, 18377, 21458,
            13020, 14523, 20195, 4813, 19325, 7350, 16134, 21660, 12636, 5128,
            14162, 10346, 18329, 26840, 24909, 19513, 26620, 10448, 16398, 20214,
            21096, 24273
        ),
    },
    ("mixed", 3, 13): {
        1: (
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0
        ),
        4095: (
            162, 125, 934, 137, 341, 453, 44, 262, 260, 92, 493, 410, 382, 0, 0, 0
        ),
        4097: (
            162, 125, 934, 137, 342, 454, 44, 262, 260, 92, 493, 410, 382, 0, 0, 0
        ),
        65536: (
            2597, 1799, 15523, 2231, 5977, 7184, 624, 3914, 4037, 1478, 7757, 6494,
            5921, 0, 0, 0
        ),
        65537: (
            2597, 1799, 15524, 2231, 5977, 7184, 624, 3914, 4037, 1478, 7757, 6494,
            5921, 0, 0, 0
        ),
        1000000: (
            40373, 28663, 237188, 34880, 90140, 109064, 9473, 58815, 61452, 21911,
            119443, 97303, 91295, 0, 0, 0
        ),
    },
    ("identity", 2, 1): {
        1: (1,),
        4095: (4095,),
        4097: (4097,),
        65536: (65536,),
        65537: (65537,),
        1000000: (1000000,),
    },
}


def _max_sigma_by_outcome(report):
    """``max_sigma_deviation`` of a report computed one outcome at a time."""
    max_sigma = 0.0
    for c, p in zip(report.counts, report.expected):
        spread = np.sqrt(report.shots * p * (1.0 - p))
        if spread > 0:
            max_sigma = max(max_sigma, abs(c - report.shots * p) / spread)
        elif c != round(report.shots * p):
            max_sigma = float("inf")
    return float(max_sigma)


def _pinned_case(key):
    kind, d, n = key
    if kind == "identity":
        return compile_tree(validate([np.eye(d)])), QuantumState.maximally_mixed(d)
    rng = np.random.default_rng([d, n])
    make = random_rank_one_povm if kind == "rank-one" else random_povm
    tree = compile_tree(make(n, d, rng))
    return tree, random_density(d, rng)


class TestSamplePinned:
    @pytest.mark.parametrize("key", list(PINNED_COUNTS), ids=lambda k: f"{k[0]}-{k[1]}x{k[2]}")
    def test_fixed_seed_counts(self, key):
        tree, state = _pinned_case(key)
        exact = tuple(o.probability for o in propagate(tree, state))
        for shots, pinned in PINNED_COUNTS[key].items():
            report = sample(tree, state, shots, seed=7)
            assert sum(report.counts) == shots
            if isinstance(pinned, str):
                assert hashlib.sha256(repr(report.counts).encode()).hexdigest() == pinned, shots
            else:
                assert report.counts == pinned, shots
            assert report.expected == exact
            assert report.max_sigma_deviation == _max_sigma_by_outcome(report)
