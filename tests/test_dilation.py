import gc
import tracemalloc

import numpy as np
import pytest

from povmtree import (
    KrausPair,
    NotCompleteError,
    NotRankOneError,
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

from conftest import frob


def tetrad_first_level(tetrad_povm):
    m03 = psd_sqrt(tetrad_povm.elements[0] + tetrad_povm.elements[3])
    m12 = psd_sqrt(tetrad_povm.elements[1] + tetrad_povm.elements[2])
    return KrausPair(b0=m03, b1=m12)


class TestDilateBinary:
    def test_uniform_pair(self):
        pair = KrausPair(b0=np.eye(2) / np.sqrt(2), b1=np.eye(2) / np.sqrt(2))
        nd = dilate_binary(pair)
        assert nd.unitary.shape == (4, 4)
        assert np.array_equal(nd.unitary[:2, :2], pair.b0)
        assert np.array_equal(nd.unitary[2:, :2], pair.b1)
        assert frob(nd.unitary.conj().T @ nd.unitary - np.eye(4)) <= 1e-10

    def test_round_trip_bit_exact(self, rng):
        p = random_povm(2, 3, rng, ranks=[2, 3])
        f = default_kraus(p)
        pair = KrausPair(b0=f.kraus[0], b1=f.kraus[1])
        nd = dilate_binary(pair)
        assert nd.unitary.shape == (6, 6)
        assert frob(nd.unitary.conj().T @ nd.unitary - np.eye(6)) <= 1e-10
        assert np.array_equal(nd.kraus_block(0), pair.b0)
        assert np.array_equal(nd.kraus_block(1), pair.b1)

    def test_extraction_completeness(self, rng):
        p = random_povm(2, 4, rng)
        f = default_kraus(p)
        nd = dilate_binary(KrausPair(b0=f.kraus[0], b1=f.kraus[1]))
        b0, b1 = nd.kraus_block(0), nd.kraus_block(1)
        assert frob(b0.conj().T @ b0 + b1.conj().T @ b1 - np.eye(4)) <= 1e-10

    def test_rejects_incomplete_pair(self):
        with pytest.raises(NotCompleteError):
            dilate_binary(KrausPair(b0=np.eye(2), b1=np.eye(2)))

    def test_probe_outcome_range(self):
        pair = KrausPair(b0=np.eye(2) / np.sqrt(2), b1=np.eye(2) / np.sqrt(2))
        nd = dilate_binary(pair)
        with pytest.raises(IndexError):
            nd.kraus_block(2)

    def test_tetrad_checkerboard_in_eigenbasis(self, tetrad_povm):
        pair = tetrad_first_level(tetrad_povm)
        nd = dilate_binary(pair)
        m03 = tetrad_povm.elements[0] + tetrad_povm.elements[3]
        eig = hermitian_eig(m03)
        lam_plus, lam_minus = eig.eigenvalues
        basis = np.kron(np.eye(2), eig.eigenvectors)  # probe slow, system fast
        u_eig = basis.conj().T @ nd.unitary @ basis
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
        ext = full_neumark(p)
        assert ext.unitary.shape == (2, 2)
        assert np.allclose(np.abs(ext.unitary), np.eye(2), atol=1e-12)

    def test_tetrad_probabilities(self, tetrad_povm):
        ext = full_neumark(tetrad_povm)
        assert ext.unitary.shape == (4, 4)
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

    def test_higher_rank_raises_when_disabled(self, rng):
        p = random_povm(4, 3, rng, ranks=[2, 1, 1, 1])
        with pytest.raises(NotRankOneError) as err:
            full_neumark(p, decompose=False)
        assert err.value.index == 0 and err.value.rank == 2

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

    def test_padded_outcome_probability_zero(self, rng):
        p = pad_to_power_of_two(random_rank_one_povm(3, 2, rng))
        ext = full_neumark(p)
        assert ext.n_outcomes == 4
        state = random_density(2, rng)
        probs = ext.probabilities(state.density)
        assert probs[3] == 0.0
        assert abs(probs.sum() - 1.0) <= 1e-9
