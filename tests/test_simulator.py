import math

import numpy as np
import pytest

from povmtree import (
    DimensionMismatchError,
    QuantumState,
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
        with pytest.raises(DimensionMismatchError):
            QuantumState(np.zeros((2, 3)))

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
        with pytest.raises(DimensionMismatchError):
            direct_probabilities(tetrad_povm, QuantumState.maximally_mixed(3))


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
        with pytest.raises(DimensionMismatchError):
            propagate(tree, QuantumState.maximally_mixed(3))

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
