import gc
import hashlib
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

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
    propagate,
    random_density,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    sample,
    simulator,
    tetrad,
    validate,
)
from povmtree import linalg
from povmtree.tree import real_counts

from conftest import LEAF_OPERATOR_ERROR, frob


class TestQuantumState:
    def test_constructors(self):
        assert QuantumState.basis(3, 1).density[1, 1] == 1.0
        assert np.array_equal(QuantumState.basis(np.int64(3), np.int32(2)).density,
                              QuantumState.basis(3, 2).density)
        assert np.allclose(QuantumState.maximally_mixed(4).density, np.eye(4) / 4)
        assert QuantumState.maximally_mixed(np.int64(1)).dim == 1
        assert random_density(np.int64(3), np.random.default_rng(0), np.int32(3)).dim == 3
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

    def test_huge_entries_are_out_of_range(self):
        for density in (np.eye(2) * 1e200, np.diag([3.0, -2.0])):
            with pytest.raises(ValidationError) as err:
                QuantumState(density)
            assert err.value.what == "range"

    def test_pure_takes_a_vector_or_a_column(self):
        column = QuantumState.pure(np.array([[1.0], [1.0j]]))
        assert np.array_equal(column.density, QuantumState.pure([1.0, 1.0j]).density)
        for amplitudes in (np.eye(2), np.ones((1, 2, 2))):
            with pytest.raises(ValidationError) as err:
                QuantumState.pure(amplitudes)
            assert err.value.what == "shape"

    def test_pure_rejects_what_cannot_be_normalised(self):
        for amplitudes, what in (([np.nan, 1.0], "finiteness"), ([0.0, 0.0], "trace")):
            with pytest.raises(ValidationError) as err:
                QuantumState.pure(amplitudes)
            assert err.value.what == what
        # amplitudes whose squared moduli leave the float range still define states
        for amplitudes in ([1e-200, 1e-200], [1e200, 1e200j], [5e-324, 0.0]):
            rho = QuantumState.pure(amplitudes).density
            assert np.array_equal(QuantumState(rho).density, rho)

    @pytest.mark.parametrize("make, dim, rank", [
        *[("maximally_mixed", dim, None) for dim in (0, -1, 2.0, True, np.int64(0))],
        *[("random_density", dim, None) for dim in (0, -1, 2.0, True, np.int64(0))],
        *[("random_density", 2, rank) for rank in (0, -1, 3, 1.0, True, np.int64(0))],
    ])
    def test_constructors_check_their_integers(self, make, dim, rank):
        # as QuantumState.basis does: integers, not bool, with dim >= 1 and rank in 1..dim
        with pytest.raises(ValidationError) as err:
            if make == "maximally_mixed":
                QuantumState.maximally_mixed(dim)
            else:
                random_density(dim, np.random.default_rng(0), rank)
        assert err.value.what == "range"

    def test_random_density_valid(self, rng):
        for _ in range(10):
            state = random_density(4, rng)
            assert state.dim == 4  # constructor already validated

    def test_density_is_frozen(self):
        state = QuantumState.maximally_mixed(2)
        with pytest.raises(ValueError):
            state.density[0, 0] = 9.0
        with pytest.raises(ValueError):
            state.params[0] = 9.0
        # built from params on each read: a fresh array, equal every time
        first, second = state.density, state.density
        assert not np.shares_memory(first, second) and not np.shares_memory(first, state.params)
        assert np.array_equal(first, second)

    def test_holds_d2_real_parameters(self):
        # a state holds d^2 floats: 8 d^2 bytes, where a complex density held 16 d^2
        d, count = 32, 100
        rng = np.random.default_rng(d)
        densities = [random_density(d, rng).density for _ in range(count)]
        QuantumState(densities[0])  # the layout's index arrays are cached before the count
        gc.collect()
        tracemalloc.start()
        try:
            states = [QuantumState(rho) for rho in densities]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(s.params.shape == (d * d,) and s.params.dtype == np.float64 for s in states)
        assert held <= count * (8 * d * d + 1024)

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_exactly_hermitian_density_is_held_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = linalg.hermitian_from_parameters(linalg.hermitian_parameters((x @ x.conj().T)[None]))[0]
        rho /= rho.trace().real
        assert np.array_equal(rho, rho.conj().T)
        assert QuantumState(rho).density.tobytes() == rho.tobytes()

    def test_holds_the_hermitian_part(self):
        # within TOL_CHECK of Hermitian: the state is (rho + rho^dag)/2, not rho as given
        rho = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j + 4e-10, 0.5]])
        state = QuantumState(rho)
        part = (rho + rho.conj().T) / 2
        assert np.array_equal(state.density, part) and not np.array_equal(state.density, rho)
        assert np.array_equal(state.params, linalg.hermitian_parameters(part[None])[0])
        assert np.array_equal(QuantumState(state.density).params, state.params)


class TestDirectProbabilities:
    def test_tetrad_maximally_mixed(self, tetrad_povm):
        probs = direct_probabilities(tetrad_povm, QuantumState.maximally_mixed(2))
        assert np.allclose(probs, [0.25] * 4, atol=1e-12)

    def test_tetrad_basis_state(self, tetrad_povm):
        probs = direct_probabilities(tetrad_povm, QuantumState.basis(2, 0))
        assert np.allclose(probs, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_padded_element_zero(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        state = random_density(2, rng)
        assert len(direct_probabilities(compile_tree(p).povm, state)) == 3  # a tree's padding is no outcome
        probs = direct_probabilities(validate([*p.elements, np.zeros((2, 2))]), state)
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

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 13), (2, 4096), (32, 64)],
                             ids=["tetrad", "padded-3-13", "2-4096", "32-64"])
    def test_matches_the_element_traces(self, d, n):
        rng = np.random.default_rng([d, n])
        if n == 4:
            p = tetrad()
        elif n == 13:  # and three zero elements, as padding was
            p = validate([*random_povm(n, d, rng).elements, *np.zeros((3, d, d))])
        else:
            p = random_rank_one_povm(n, d, rng)
        state = random_density(d, rng)
        expected = np.einsum("nij,ji->n", p.elements, state.density).real
        assert np.max(np.abs(direct_probabilities(p, state) - expected)) <= 1e-15

    def test_unpacks_no_element(self):
        # the 0.5 MB of parameters at (32, 64) are read as they are held: a
        # call that unpacked the 1 MB of elements would exceed this
        d, n = 32, 64
        rng = np.random.default_rng([d, n])
        p, state = random_rank_one_povm(n, d, rng), random_density(d, rng)
        gc.collect()
        tracemalloc.start()
        try:
            direct_probabilities(p, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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
        assert len(outcomes) == 5  # the outcomes only: leaves "101" to "111" are padding
        listed = list(outcomes)
        assert [o.leaf_index for o in listed] == list(range(5))
        assert [o.path for o in listed] == ["001", "011", "100", "010", "000"]
        for j, o in enumerate(listed):
            assert outcomes.probabilities[j] == outcomes[j].probability == o.probability
            assert outcomes[j - 5].path == o.path
        for j in (5, -6):
            with pytest.raises(IndexError):
                outcomes[j]
        assert not outcomes.probabilities.flags.writeable
        post = outcomes[0].post_state.density
        assert not post.flags.writeable  # built on each read, read-only
        assert np.array_equal(post, listed[0].post_state.density)
        assert np.array_equal(post, outcomes[0].post_state.density)
        assert not outcomes.reached.flags.writeable
        assert list(outcomes.reached) == [o.post_state is not None for o in listed]

    def test_padded_leaf_unreached(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p)
        outcomes = propagate(tree, random_density(2, rng))
        # leaf 3 is padding: its operator is zero, and it is no outcome
        assert not tree.cumulative_kraus(2)[3].any()
        assert len(outcomes) == len(outcomes.probabilities) == 3
        with pytest.raises(IndexError):
            outcomes[3]

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
                assert o.post_state.dim == 3
                QuantumState(o.post_state.density)  # a post-state that is returned is a state

    def test_post_state_of_a_barely_reached_leaf_is_checked(self):
        # Outcome 1 is reached, at probability 1.1e-9.  Over so small a trace
        # the state's -0.9e-9 would be magnified to -0.818, so the post-state
        # is that of the density with its negative dust dropped: diag(0, 1, 0).
        tree = compile_tree(validate([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]))
        outcomes = propagate(tree, QuantumState(np.diag([1 - 1.1e-9, 2e-9, -0.9e-9])))
        assert outcomes.reached.all()
        assert np.abs(outcomes[1].post_state.density - np.diag([0.0, 1.0, 0.0])).max() <= 1e-15
        QuantumState(outcomes[1].post_state.density)
        QuantumState(outcomes[0].post_state.density)

    def test_near_null_probe_reads_every_post_state(self):
        # perfbench's near-null pure states on 300 random-rank POVMs with d
        # from 3 to 8 reach 300 leaves at p <= 1e-6.  As m rho m^dag over its
        # trace, 60 of those post-states raised ValidationError(positivity).
        # Each is now within 4 |E| / sqrt(p) of (m_j psi)(m_j psi)^dag over
        # its trace, m_j the target (see test_post_states_are_those_of_the_targets).
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from workloads import _near_null
        finally:
            sys.path.pop(0)
        reads = 0
        for seed in range(300):
            rng = np.random.default_rng([11, seed])
            d = int(rng.integers(3, 9))
            p = random_povm(int(rng.integers(d + 1, 4 * d)), d, rng)
            psi = _near_null(list(p.elements), rng)
            if psi is None:
                continue
            psi, targets = psi / np.linalg.norm(psi), default_kraus(p)
            outcomes = propagate(compile_tree(p), QuantumState.pure(psi))
            for j in np.flatnonzero(outcomes.reached & (outcomes.probabilities <= 1e-6)):
                f = targets[j] @ psi
                error = frob(outcomes[j].post_state.density - np.outer(f, f.conj()) / np.vdot(f, f).real)
                assert error <= 4 * LEAF_OPERATOR_ERROR / math.sqrt(outcomes.probabilities[j])
                reads += 1
        assert reads == 300

    def test_post_state_carried_by_dropped_dust_is_refused(self):
        # d = 12: eleven eigenvalues of 0.99e-10, each below TOL_RANK times the
        # largest, reach outcome 1 at probability 1.09e-9 >= TOL_CHECK.  With
        # them dropped, nothing reaches it: a trace of 0 is a typed error,
        # naming the leaf, and never a state of NaNs.
        d = 12
        tree = compile_tree(validate([np.diag([1.0] + [0.0] * (d - 1)), np.diag([0.0] + [1.0] * (d - 1))]))
        dust = 0.99e-10
        outcomes = propagate(tree, QuantumState(np.diag([1 - (d - 1) * dust] + [dust] * (d - 1))))
        assert outcomes.reached[1] and outcomes.probabilities[1] == pytest.approx((d - 1) * dust)
        with pytest.raises(ValidationError, match="node '1'") as err:
            outcomes[1].post_state
        assert (err.value.what, err.value.path, err.value.residual) == ("trace", "1", 0.0)

    @pytest.mark.parametrize("kind", ["tetrad", "padded 13", "permuted", "Kraus freedom",
                                      "rank-deficient 13", "2x4096", "32x64"])
    def test_agrees_with_the_leaf_operators(self, kind):
        # Probabilities are Tr[E rho] for the leaf effects E = m^dag m, placed
        # by outcome; each reached post-state is m rho m^dag over its trace.
        tree, state = TestLevelPassInOneStack.case(kind)
        outcomes = propagate(tree, state)
        real = tree.cumulative_operators(tree.depth)[: tree.povm.n_outcomes]
        effects = np.einsum("nij,ji->n", real, state.density).real
        expected = np.empty_like(effects)
        expected[tree.order] = effects
        assert np.max(np.abs(outcomes.probabilities - expected)) <= 1e-14
        m = tree.cumulative_kraus(tree.depth)
        leaves = m @ state.density @ linalg.adjoint(m)
        assert outcomes.reached.any()
        for leaf, j in enumerate(tree.order):
            if outcomes.reached[j]:
                sigma = leaves[leaf] / np.trace(leaves[leaf]).real
                assert np.max(np.abs(outcomes[j].post_state.density - sigma)) <= 1e-12

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
        # 65537 shots, past the 65536-shot chunks the sampler once drew from
        # separate generators: still one report per seed, and every shot counted
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
        assert len(report.counts) == len(report.expected) == len(report.labels) == 3
        assert sum(report.counts) == 20_000

    def test_rejects_zero_shots(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        with pytest.raises(ValueError):
            sample(tree, QuantumState.maximally_mixed(2), 0, seed=1)

    @pytest.mark.parametrize("shots", [2.5, 1.0, True, False, -1, 1 << 63, "10"], ids=repr)
    def test_shots_must_be_an_integer_count(self, tetrad_povm, shots):
        tree = compile_tree(tetrad_povm)
        with pytest.raises(ValidationError) as err:
            sample(tree, QuantumState.maximally_mixed(2), shots, seed=1)
        assert err.value.what == "range"

    def test_shots_may_be_a_numpy_integer(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        state = QuantumState.maximally_mixed(2)
        report = sample(tree, state, np.int64(10), seed=1)
        assert report == sample(tree, state, 10, seed=1)
        assert type(report.shots) is int

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "a", True, False], ids=repr)
    def test_seed_must_be_an_integer(self, tetrad_povm, seed):
        # None once drew fresh entropy, so two equal calls gave different reports
        tree = compile_tree(tetrad_povm)
        with pytest.raises(ValidationError) as err:
            sample(tree, QuantumState.maximally_mixed(2), 10, seed=seed)
        assert err.value.what == "range"

    def test_seed_may_be_a_numpy_integer(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        state = QuantumState.maximally_mixed(2)
        report = sample(tree, state, 10, seed=np.uint64(1 << 63))
        assert report == sample(tree, state, 10, seed=1 << 63)
        assert type(report.seed) is int

    @pytest.mark.parametrize("shots", [10**12, (1 << 63) - 1])
    def test_huge_shot_counts(self, shots):
        # the split costs one draw per node, whatever the number of shots
        tree, state = _pinned_case(("mixed", 3, 13))
        report = sample(tree, state, shots, seed=2)
        assert sum(report.counts) == shots
        assert len(report.counts) == 13
        assert report.max_sigma_deviation <= 6.0

    def test_reads_only_leaf_traces(self, monkeypatch):
        # once the state is built, neither sample nor propagate solves an
        # eigenvalue problem: no leaf state is symmetrised or checked
        tree, state = _pinned_case(("mixed", 3, 13))
        report = sample(tree, state, 10**6, seed=2)
        probabilities = propagate(tree, state).probabilities

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvalsh called")

        # numpy.linalg and, where it has one, the module numpy's own callers read
        for module in {np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)}:
            monkeypatch.setattr(module, "eigvalsh", refuse)
        assert sample(tree, state, 10**6, seed=2) == report
        assert np.array_equal(propagate(tree, state).probabilities, probabilities)

    def test_degenerate_single_outcome(self):
        tree = compile_tree(validate([np.eye(2)]))
        report = sample(tree, QuantumState.maximally_mixed(2), 100, seed=0)
        assert report.counts == (100,)


def walk_counts(tree, p_left, shots, seed):
    """Counts by outcome from the per-shot walk, the reference for :func:`sample`.

    Each shot descends from the root, from node i of a level to node
    2i + bit of the next, with bit 0 drawn at probability ``p_left``.  Shots
    run in chunks of 65536, chunk c drawn from
    ``SeedSequence(seed, spawn_key=(c,))``, as the sampler once did.
    """
    by_leaf = np.zeros(1 << tree.depth, dtype=np.int64)
    for c, done in enumerate(range(0, shots, 1 << 16)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        uniforms = rng.random((min(1 << 16, shots - done), tree.depth))
        current = np.zeros(len(uniforms), dtype=np.int64)
        for level, p in enumerate(p_left):
            current = 2 * current + (uniforms[:, level] >= p[current])
        by_leaf += np.bincount(current, minlength=len(by_leaf))
    counts = np.empty(len(tree.order), dtype=np.int64)
    counts[tree.order] = by_leaf[: len(counts)]  # the padding leaves' are 0
    return counts


def branch_probabilities(probs):
    """Each level's probabilities of probe outcome 0, top down, from the real leaves' in leaf order.

    The padding leaves, up to a power of two, have probability 0.  A node's
    probability is the sum of its two children's, so each level comes from
    the one below by pairwise sums; a node of probability zero gets 1.0.
    This is the definition :func:`sample` splits the shots by.
    """
    padding = (1 << (len(probs) - 1).bit_length()) - len(probs)
    p_left, reach = [], np.concatenate([probs, np.zeros(padding)])
    while len(reach) > 1:
        q = reach.reshape(-1, 2)
        reach = q.sum(axis=1)
        p_left.append(np.divide(q[:, 0], reach, out=np.ones_like(reach), where=reach > 0))
    return p_left[::-1]


def split_counts(tree, p_left, shots, seed):
    """Counts by outcome from splitting the shots down the tree at ``p_left``, as :func:`sample` does."""
    rng = np.random.default_rng(seed)
    arrived = np.array([shots], dtype=np.int64)
    for p in p_left:
        left = rng.binomial(arrived, p)
        arrived = np.stack([left, arrived - left], axis=1).ravel()
    counts = np.empty(len(tree.order), dtype=np.int64)
    counts[tree.order] = arrived[: len(counts)]
    return tuple(counts.tolist())


def two_array_pass(tree, state):
    """Leaf operators, leaf probabilities and trace ratios from whole levels, the walk's reference.

    Each level's cumulative operators come from ``tree.cumulative_kraus``,
    which holds a level's parents while it makes their children, and its
    traces Tr[m rho m^dag] from the simulator's contraction.  The
    probability of probe outcome 0 at a node is its left child's trace over
    the sum of its children's.
    """
    def traces(m):
        return np.einsum("kij,kij->k", (m @ state.density).view(float), m.view(float))

    p_left = []
    for level in range(1, tree.depth + 1):
        q = np.maximum(traces(tree.cumulative_kraus(level)), 0.0).reshape(-1, 2)
        total = q.sum(axis=1)
        p_left.append(np.divide(q[:, 0], total, out=np.ones_like(total), where=total > 0))
    leaves = tree.cumulative_kraus(tree.depth)
    probs = np.clip(traces(leaves[: tree.povm.n_outcomes]), 0.0, 1.0)  # the real leaves, the order's
    return leaves, probs, p_left


def walked(tree, state):
    """The leaf operators and the leaf probabilities, left to right, of depth-first walks of the tree.

    A leaf below an all-padding node, which the walk does not form, is zero.
    """
    d = tree.povm.dim
    leaves = np.zeros((1 << tree.depth, d, d), dtype=complex)
    for level, first, block in walk(tree):
        if level == tree.depth:
            leaves[first : first + len(block)] = block
    return leaves, simulator._leaf_probabilities(tree, state)


def walk(tree):
    """The depth-first walk of the cumulative operators, as the simulator and verify run it."""
    return tree._operators(tree.depth)


class TestLevelPassInOneStack:
    """Walking the tree depth first, a block per level, gives the bits of the two-array pass."""

    @staticmethod
    def case(kind):
        rng = np.random.default_rng(list(map(ord, kind)))
        tree_options = {}
        if kind == "one outcome":
            elements = [np.eye(3)]
        elif kind == "tetrad":
            elements = tetrad().elements
        elif kind == "rank-deficient 13":
            elements = random_povm(13, 4, rng, [1] * 13).elements
        elif kind == "two outcomes, d = 1":
            elements = [np.array([[0.3]]), np.array([[0.7]])]
        elif kind in ("padded 3", "padded 13"):
            elements = random_povm(int(kind.split()[1]), 3, rng).elements
        elif kind == "permuted":
            elements = random_povm(12, 2, rng).elements
            tree_options["partition"] = rng.permutation(12).tolist()
        elif kind == "Kraus freedom":
            povm = random_povm(6, 3, rng)
            elements = povm.elements
            tree_options["factorization"] = apply_freedom(
                default_kraus(povm), [random_unitary(3, rng) for _ in range(6)])
        else:
            d, n = map(int, kind.split("x"))
            elements = random_rank_one_povm(n, d, rng).elements
        povm = validate(elements)
        return compile_tree(povm, **tree_options), random_density(povm.dim, rng)

    @staticmethod
    def budget(name, d, monkeypatch):
        """Set the block budget to one or three matrices; returns the matrices per block."""
        if name == "default":
            return linalg._BLOCK_BYTES // (16 * d * d)
        # several blocks per level, so that the walk turns back up many times
        per_block = 1 if name == "one matrix" else 3
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", per_block * 16 * d * d)
        assert len(list(linalg.blocks(8, d))) == -(-8 // per_block)
        return per_block

    KINDS = ["one outcome", "two outcomes, d = 1", "padded 3", "padded 13", "permuted",
             "Kraus freedom", "32x64", "2x4096"]

    @pytest.mark.parametrize("budget", ["default", "one matrix", "three matrices"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_as_the_two_array_pass(self, kind, budget, monkeypatch):
        tree, state = self.case(kind)
        d = state.dim
        self.budget(budget, d, monkeypatch)
        leaves, probs = walked(tree, state)
        reference, reference_probs, reference_p_left = two_array_pass(tree, state)
        assert leaves.shape == (1 << tree.depth, d, d)
        assert np.array_equal(leaves, reference)
        assert np.array_equal(probs, reference_probs)
        # summed from the leaves, not traced at the node: equal to rounding
        p_left = branch_probabilities(probs)
        assert len(p_left) == len(reference_p_left) == tree.depth
        for p, q in zip(p_left, reference_p_left):
            assert np.max(np.abs(p - q)) <= 1e-12

    @pytest.mark.parametrize("budget", ["default", "one matrix", "three matrices"])
    @pytest.mark.parametrize("kind", ["one outcome", "padded 13", "32x64", "2x4096"])
    def test_walk_holds_one_block_per_level(self, kind, budget, monkeypatch):
        # Every node with a real leaf comes once, and no other: in blocks of
        # at most one budget (two matrices when a budget holds one), each
        # block before the blocks below it and the leaves left to right; no
        # block outlives the next one of its level.
        tree, state = self.case(kind)
        formed = real_counts(tree.depth, tree.povm.n_outcomes)
        per_block = self.budget(budget, state.dim, monkeypatch)
        seen = [np.zeros(1 << level, dtype=int) for level in range(tree.depth + 1)]
        held, leaves = [], []
        for level, first, block in walk(tree):
            assert 1 <= len(block) <= max(2, per_block)
            assert level == 0 or seen[level - 1][first // 2 : (first + len(block) + 1) // 2].all()
            seen[level][first : first + len(block)] += 1
            if level == tree.depth:
                leaves.append(first)
            held.append((level, weakref.ref(block)))
            alive = [lv for lv, ref in held if ref() is not None]
            assert len(alive) == len(set(alive))
        assert all(np.array_equal(count, np.arange(len(count)) < k) for count, k in zip(seen, formed))
        assert leaves == sorted(leaves)


def two_sample_chi2(a, b, expected):
    """Homogeneity statistic and degrees of freedom of two count vectors of equal total.

    Outcomes whose expected count (per sample) is below 10 share one bin.
    """
    small = expected < 10
    a = np.append(a[~small], a[small].sum())
    b = np.append(b[~small], b[small].sum())
    used = a + b > 0
    return float(((a - b)[used] ** 2 / (a + b)[used]).sum()), int(used.sum()) - 1


def chi2_quantile(df, z):
    """Wilson-Hilferty approximation of the chi-square quantile at standard normal quantile z."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestSampleBias:
    """The sampler's counts have the distribution of the per-shot walk."""

    SEEDS = 200
    SHOTS = 2000
    Z = 3.09  # a one-sided level of 1e-3 at each point

    @pytest.mark.parametrize("kind, d, n", [("rank-one", 2, 256), ("mixed", 3, 13),
                                            ("rank-one", 4, 64), ("mixed", 16, 32),
                                            ("tetrad", 2, 4), ("padded 13", 3, 13),
                                            ("permuted", 2, 12), ("Kraus freedom", 3, 6),
                                            ("rank-one", 2, 4096)])
    def test_split_counts_match_the_walk(self, kind, d, n):
        # sample splits the shots at branch probabilities summed pairwise
        # from its own expected probabilities, in the tree's order
        if kind in ("rank-one", "mixed"):
            tree, state = _pinned_case((kind, d, n))
        else:
            tree, state = TestLevelPassInOneStack.case(kind)
        assert state.dim == d
        p_left = branch_probabilities(np.array(sample(tree, state, 1, 0).expected)[tree.order])
        walk = np.zeros(tree.povm.n_outcomes, dtype=np.int64)
        split = np.zeros_like(walk)
        for seed in range(self.SEEDS):
            walk += walk_counts(tree, p_left, self.SHOTS, seed)
            report = sample(tree, state, self.SHOTS, seed)
            assert report.counts == split_counts(tree, p_left, self.SHOTS, seed)
            split += report.counts
        expected = self.SEEDS * self.SHOTS * np.array(report.expected)
        stat, df = two_sample_chi2(walk, split, expected)
        assert df >= 1
        assert stat <= chi2_quantile(df, self.Z), (stat, df)


# sample(tree, state, shots, seed=7) counts on the cases of _pinned_case; for
# N >= 1024 outcomes, the SHA-256 of repr(counts).  Recorded when the sampler
# began to split counts down the tree with one binomial draw per node, so a
# change to the random stream or the split shows here.
PINNED_COUNTS = {
    ("rank-one", 2, 4096): {
        1: "7e180ef06fb8f5dbbfde38855cb536ed23bbb8faccd6d818e0d5f2c877f4fd9c",
        4095: "e0c16c9c3e1001b6ba4a9d1be381b4ead5ac13a62b7c6ddafd3c13da000e721c",
        4097: "f27b885ea44d13f5d3215a6904c46bcd5b7dd0ddba7f502b2a8e5035b5ffeb37",
        65536: "7540c10c7b462ff61cd8c94213eda2f14c0767a3074f29e17ed4fee2a2445082",
        65537: "12000df148c092cbb18343ab10a4714b447e5ffd7ae02f3bbdda1e5b14d5c054",
        1000000: "c88fbf25b35d11237ba18864da63c9bcef8bdf0419ca7641e3c3a6d78d11ea58",
    },
    ("mixed", 4, 1024): {
        1: "c49cdb5b34d3ef244cb7fb22319abddf73d5819f28044d752402f922280ff8c3",
        4095: "214f32d4fcca2d1f05b3a3b113cc8fe0f3d11f9476049e217867b0d4815f4d29",
        4097: "d439e663580e04d0943bf90e16bf99f66e96a342fa6a588c2a9ed2121e037658",
        65536: "4e07d204082fea9914d0c522c9d04a3aee6ec6fed4300e55a576caceb8684c41",
        65537: "de6ba71b243d2153844f56bb5b39f3e2b229908511934730ec195ded837a2397",
        1000000: "ede72017c3fa5bbb65c058337c9f7c4c6aa59f0c79239072ad14e9343f466ace",
    },
    ("mixed", 32, 64): {
        1: (
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
        ),
        4095: (
            53, 69, 108, 114, 106, 29, 6, 23, 88, 91, 109, 121, 114, 115, 88, 14, 58,
            19, 67, 17, 112, 38, 9, 37, 10, 5, 63, 94, 60, 34, 61, 26, 19, 83, 15, 42,
            145, 9, 62, 76, 80, 77, 52, 51, 93, 20, 82, 25, 61, 88, 58, 25, 54, 45, 96,
            102, 101, 80, 98, 35, 74, 103, 89, 97
        ),
        4097: (
            53, 70, 108, 114, 106, 29, 6, 23, 88, 91, 109, 121, 114, 115, 88, 14, 58,
            19, 67, 17, 112, 38, 9, 37, 10, 5, 63, 94, 60, 34, 61, 26, 19, 83, 15, 42,
            145, 9, 62, 76, 80, 77, 52, 51, 93, 20, 82, 25, 61, 88, 58, 25, 54, 45, 96,
            102, 101, 81, 98, 35, 74, 103, 89, 97
        ),
        65536: (
            945, 991, 2065, 1822, 1686, 606, 167, 237, 1578, 1210, 1847, 1833, 1658,
            1654, 1215, 225, 944, 516, 940, 296, 1879, 462, 122, 613, 186, 85, 1021,
            1585, 1095, 550, 914, 415, 338, 1682, 173, 720, 1919, 157, 1043, 1315, 1180,
            1392, 823, 936, 1401, 309, 1226, 461, 1086, 1397, 836, 342, 971, 695, 1240,
            1692, 1655, 1307, 1869, 653, 1133, 1294, 1342, 1587
        ),
        65537: (
            945, 991, 2065, 1822, 1686, 606, 167, 237, 1578, 1210, 1847, 1833, 1658,
            1654, 1215, 225, 944, 516, 940, 296, 1879, 462, 122, 613, 186, 85, 1021,
            1585, 1095, 550, 914, 415, 338, 1682, 173, 720, 1919, 157, 1043, 1315, 1180,
            1392, 823, 936, 1401, 309, 1226, 461, 1086, 1397, 836, 342, 971, 695, 1240,
            1692, 1656, 1307, 1869, 653, 1133, 1294, 1342, 1587
        ),
        1000000: (
            13492, 15532, 31759, 27793, 25133, 9684, 2209, 3791, 23852, 19559, 28889,
            27208, 24658, 25011, 18508, 3244, 14873, 7899, 14113, 5000, 28657, 6787,
            1962, 9456, 2836, 1370, 15729, 24430, 16694, 8310, 14366, 5949, 5038, 25537,
            2683, 11105, 29137, 2662, 16777, 19835, 18280, 21417, 12855, 14578, 20502,
            4823, 19193, 7340, 15869, 22106, 12524, 5299, 14315, 10326, 18168, 26840,
            25078, 19569, 26736, 10696, 16488, 20252, 20827, 24392
        ),
    },
    ("mixed", 3, 13): {
        1: (
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1
        ),
        4095: (
            154, 110, 1020, 143, 359, 429, 49, 229, 247, 96, 484, 416, 359
        ),
        4097: (
            154, 110, 1020, 143, 360, 429, 49, 229, 247, 96, 484, 416, 360
        ),
        65536: (
            2548, 1998, 15629, 2277, 5903, 7064, 637, 3809, 4068, 1450, 7817, 6469,
            5867
        ),
        65537: (
            2548, 1998, 15629, 2277, 5903, 7065, 637, 3809, 4068, 1450, 7817, 6469,
            5867
        ),
        1000000: (
            39699, 29238, 237333, 35048, 90330, 108186, 9651, 58610, 61853, 21842,
            119358, 97943, 90909
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
