import gc
import tracemalloc

import numpy as np
import pytest

from povmtree import (
    ValidationError,
    VerificationError,
    complete_to_unitary,
    default_kraus,
    dilate_binary,
    direct_probabilities,
    full_neumark,
    hermitian_eig,
    pad_to_power_of_two,
    psd_sqrt,
    random_density,
    random_povm,
    random_rank_one_povm,
    validate,
)
from povmtree.linalg import rank_mask

from conftest import frob


def tetrad_first_level(tetrad_povm):
    m03 = psd_sqrt(tetrad_povm.elements[0] + tetrad_povm.elements[3])
    m12 = psd_sqrt(tetrad_povm.elements[1] + tetrad_povm.elements[2])
    return np.stack([m03, m12])


class TestDilateBinary:
    def test_uniform_pair(self):
        pair = np.stack([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
        u = dilate_binary(pair)
        assert u.shape == (4, 4)
        assert not u.flags.writeable
        assert np.array_equal(u[:2, :2], pair[0])
        assert np.array_equal(u[2:, :2], pair[1])
        assert frob(u.conj().T @ u - np.eye(4)) <= 1e-10

    def test_round_trip_bit_exact(self, rng):
        p = random_povm(2, 3, rng, ranks=[2, 3])
        pair = default_kraus(p)
        u = dilate_binary(pair)
        assert u.shape == (6, 6)
        assert frob(u.conj().T @ u - np.eye(6)) <= 1e-10
        assert np.array_equal(u[:3, :3], pair[0])
        assert np.array_equal(u[3:, :3], pair[1])

    def test_extraction_completeness(self, rng):
        p = random_povm(2, 4, rng)
        u = dilate_binary(default_kraus(p))
        b0, b1 = u[:4, :4], u[4:, :4]
        assert frob(b0.conj().T @ b0 + b1.conj().T @ b1 - np.eye(4)) <= 1e-10

    def test_pair_given_as_a_list(self, rng):
        pair = default_kraus(random_povm(2, 3, rng))
        assert dilate_binary(list(pair)).tobytes() == dilate_binary(pair).tobytes()

    def test_rejects_incomplete_pair(self):
        with pytest.raises(VerificationError) as err:
            dilate_binary(np.stack([np.eye(2), np.eye(2)]))
        # the Gram residual of [b0; b1] is the pair's completeness residual |2I - I|_F
        assert err.value.what == "completeness"
        assert err.value.index == 0
        assert err.value.residual == pytest.approx(np.sqrt(2))

    def test_tetrad_checkerboard_in_eigenbasis(self, tetrad_povm):
        pair = tetrad_first_level(tetrad_povm)
        u = dilate_binary(pair)
        m03 = tetrad_povm.elements[0] + tetrad_povm.elements[3]
        (lam_plus, lam_minus), v = hermitian_eig(m03)
        basis = np.kron(np.eye(2), v)  # probe slow, system fast
        u_eig = basis.conj().T @ u @ basis
        expected_cols = np.array(
            [
                [np.sqrt(lam_plus), 0.0],
                [0.0, np.sqrt(lam_minus)],
                [np.sqrt(lam_minus), 0.0],
                [0.0, np.sqrt(lam_plus)],
            ]
        )
        assert np.allclose(u_eig[:, :2], expected_cols, atol=1e-9)


class TestFullNeumark:
    def test_projective_basis(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        u = complete_to_unitary(full_neumark(p).isometry)
        assert u.shape == (2, 2)
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)

    def test_tetrad_probabilities(self, tetrad_povm):
        ext = full_neumark(tetrad_povm)
        assert complete_to_unitary(ext.isometry).shape == (4, 4)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(ext.probabilities(rho), [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-9)

    def test_matches_direct_probabilities(self, rng):
        p = random_rank_one_povm(6, 2, rng)
        ext = full_neumark(p)
        worst = 0.0
        for _ in range(50):
            state = random_density(2, rng)
            diff = ext.probabilities(state.density) - direct_probabilities(p, state)
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst <= 1e-9

    def test_higher_rank_elements_decompose(self, rng):
        p = random_povm(4, 3, rng, ranks=[2, 1, 3, 1])
        ext = full_neumark(p)
        assert ext.extended_dim == 7  # one row per eigen-piece
        assert ext.outcome_map == (0, 0, 1, 2, 2, 2, 3)
        for _ in range(10):
            state = random_density(3, rng)
            diff = ext.probabilities(state.density) - direct_probabilities(p, state)
            assert float(np.max(np.abs(diff))) <= 1e-9

    def test_holds_only_the_isometry(self):
        # full_neumark keeps the (n_pieces, d) isometry and builds no
        # n_pieces-square unitary: its peak stays within the isometry's
        # bytes plus 256 KiB.
        d, n = 4, 64
        p = random_povm(n, d, np.random.default_rng([d, n]))
        gc.collect()
        tracemalloc.start()
        try:
            ext = full_neumark(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ext.extended_dim > n  # mixed ranks: more pieces than outcomes
        assert peak <= 16 * ext.extended_dim * d + 256 * 1024

    def test_probabilities_reject_a_state_of_the_wrong_shape(self, tetrad_povm):
        ext = full_neumark(tetrad_povm)
        with pytest.raises(ValidationError, match=r"expected \(2, 2\)") as err:
            ext.probabilities(np.eye(3) / 3)
        assert err.value.what == "shape"

    @pytest.mark.parametrize("which", ["tetrad", "padded-2-5", "random-4"])
    def test_elements_need_no_symmetrisation(self, tetrad_povm, which):
        # Povm elements are exactly Hermitian, so their Hermitian part is the
        # same bytes and the extension equals one built from that part
        p = {"tetrad": lambda: tetrad_povm,
             "padded-2-5": lambda: pad_to_power_of_two(
                 random_rank_one_povm(5, 2, np.random.default_rng(5))),
             "random-4": lambda: random_povm(6, 4, np.random.default_rng(7))}[which]()
        hermitian_part = (p.elements + p.elements.conj().swapaxes(-1, -2)) / 2
        assert hermitian_part.tobytes() == p.elements.tobytes()
        # the rows as built from the Hermitian part: descending eigen-pieces
        # above the rank cutoff, element by element
        w, v = np.linalg.eigh(hermitian_part)
        w, v = w[:, ::-1], v[:, :, ::-1]
        element, piece = np.nonzero(rank_mask(w))
        rows = np.sqrt(w[element, piece])[:, None] * v[element, :, piece].conj()
        ext = full_neumark(p)
        assert ext.isometry.tobytes() == rows.tobytes()
        assert ext.outcome_map == tuple(element.tolist())

    def test_padded_outcome_probability_zero(self, rng):
        p = pad_to_power_of_two(random_rank_one_povm(3, 2, rng))
        ext = full_neumark(p)
        assert ext.n_outcomes == 4
        state = random_density(2, rng)
        probs = ext.probabilities(state.density)
        assert probs[3] == 0.0
        assert abs(probs.sum() - 1.0) <= 1e-9
