import numpy as np
import pytest

from povmtree import (
    ValidationError,
    VerificationError,
    complete_to_unitary,
    hermitian_eig,
    pseudo_inverse,
    psd_sqrt,
    random_unitary,
    tetrad,
)

from povmtree import linalg
from povmtree.linalg import TOL_CHECK, check_psd, complete_to_unitary_stack

from conftest import frob


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def tetrad_m03():
    p = tetrad()
    return p.elements[0] + p.elements[3]


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])
        v = eig.eigenvectors
        assert frob(v.conj().T @ v - np.eye(2)) < 1e-12

    def test_diagonal_descending(self):
        eig = hermitian_eig(np.diag([0.0, 3.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 0.0])
        assert np.allclose(np.abs(eig.eigenvectors[:, 0]), [0.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors[:, 1]), [1.0, 0.0])

    def test_tetrad_grouped_operator_spectrum(self):
        # characteristic polynomial oracle: trace 1, determinant 1/6
        m03 = tetrad_m03()
        char_roots = sorted(np.roots([1.0, -np.trace(m03).real, np.linalg.det(m03).real]),
                            reverse=True)
        eig = hermitian_eig(m03)
        assert np.allclose(eig.eigenvalues, char_roots, atol=1e-12)
        expected = [(3 + np.sqrt(3)) / 6, (3 - np.sqrt(3)) / 6]
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_phase_convention(self, rng):
        for _ in range(20):
            eig = hermitian_eig(random_hermitian(5, rng))
            for j in range(5):
                col = eig.eigenvectors[:, j]
                pivot = col[int(np.argmax(np.abs(col)))]
                assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    def test_not_hermitian(self):
        with pytest.raises(ValidationError) as err:
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert err.value.what == "hermiticity"

    def test_not_square(self):
        with pytest.raises(ValidationError) as err:
            hermitian_eig(np.zeros((2, 3)))
        assert err.value.what == "shape"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_property(self, rng):
        worst = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(dim, rng)
            eig = hermitian_eig(a)
            worst = max(worst, frob(eig.reconstruct() - a))
        assert worst <= 1e-9


def penrose_residuals(a, pinv):
    return (
        frob(a @ pinv @ a - a),
        frob(pinv @ a @ pinv - pinv),
        frob(a @ pinv - (a @ pinv).conj().T),
        frob(pinv @ a - (pinv @ a).conj().T),
    )


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_with_kernel(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_rank_two_axioms(self, rng):
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        y = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a = x @ y  # rank 2 by construction
        assert max(penrose_residuals(a, pseudo_inverse(a))) <= 1e-9

    def test_zero_matrix(self):
        assert np.array_equal(pseudo_inverse(np.zeros((2, 4))), np.zeros((4, 2)))

    def test_axioms_property(self, rng):
        worst = 0.0
        for _ in range(1000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            inner = int(rng.integers(1, min(rows, cols) + 1))
            if rng.random() < 0.5:
                a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            else:
                # rank-deficient by construction
                x = rng.standard_normal((rows, inner)) + 1j * rng.standard_normal((rows, inner))
                y = rng.standard_normal((inner, cols)) + 1j * rng.standard_normal((inner, cols))
                a = x @ y
            worst = max(worst, max(penrose_residuals(a, pseudo_inverse(a))))
        assert worst <= 1e-9


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)

    def test_tetrad_grouped_operator(self):
        m03 = tetrad_m03()
        root = psd_sqrt(m03)
        assert frob(root @ root - m03) <= 1e-9
        eig_m = hermitian_eig(m03)
        eig_r = hermitian_eig(root)
        assert np.allclose(eig_r.eigenvalues, np.sqrt(eig_m.eigenvalues), atol=1e-12)
        # same eigenvectors under the shared phase convention
        assert np.allclose(eig_r.eigenvectors, eig_m.eigenvectors, atol=1e-9)

    def test_square_property(self, rng):
        worst = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            rank = int(rng.integers(1, dim + 1))
            x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            a = x @ x.conj().T
            s = psd_sqrt(a)
            assert frob(s - s.conj().T) < 1e-12
            worst = max(worst, frob(s @ s - a))
        assert worst <= 1e-9

    def test_truncates_rank_dust(self):
        # exact rank-1 input: the root must not resurrect dust above the rank scale
        v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
        a = np.outer(v, v.conj())
        s = np.linalg.svd(psd_sqrt(a), compute_uv=False)
        assert s[1] <= 1e-10 * s[0]

    def test_not_psd(self):
        with pytest.raises(ValidationError) as err:
            psd_sqrt(np.diag([1.0, -1.0]))
        assert err.value.what == "positivity"
        assert err.value.residual == pytest.approx(-1.0)

    def test_positivity_floor_is_absolute(self):
        # once relative to |A|_F, which rejected this small element of a valid POVM
        assert np.array_equal(psd_sqrt(np.diag([0.1, -5e-10])), np.diag([np.sqrt(0.1), 0.0]))
        with pytest.raises(ValidationError) as err:
            psd_sqrt(np.diag([10.0, -2e-9]))
        assert err.value.what == "positivity"


class TestCheckPsd:
    @pytest.mark.parametrize("bad, what", [
        (np.diag([1.0, -1.0]), "positivity"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "hermiticity"),
    ])
    def test_stack_error_names_the_failing_matrix(self, bad, what):
        stack = np.array([np.eye(2), np.diag([1.0, 0.0]), bad, bad], dtype=complex)
        with pytest.raises(ValidationError) as err:
            check_psd(stack)
        assert err.value.what == what
        assert err.value.index == 2

    def test_writes_hermitian_parts_in_place(self, rng):
        a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = a @ a.conj().swapaxes(1, 2) / 10 + 1e-12j * rng.standard_normal((3, 4, 4))
        expected = (stack + stack.conj().swapaxes(1, 2)) / 2
        assert check_psd(stack) is stack
        assert np.array_equal(stack, expected)

    def test_floor_and_bound_are_tol_check(self):
        inside = np.diag([1.0, -0.9 * TOL_CHECK])[None].astype(complex)
        check_psd(inside)
        with pytest.raises(ValidationError) as err:
            check_psd(np.diag([1.0, -1.1 * TOL_CHECK])[None].astype(complex))
        assert (err.value.what, err.value.index) == ("positivity", 0)
        skew = np.eye(2, dtype=complex)[None]
        skew[0, 0, 1] = 0.7 * TOL_CHECK  # |A - A^dag|_F = 0.99 TOL_CHECK
        check_psd(skew.copy())
        skew[0, 0, 1] = 0.75 * TOL_CHECK  # 1.06 TOL_CHECK
        with pytest.raises(ValidationError) as err:
            check_psd(skew.copy())
        assert (err.value.what, err.value.index) == ("hermiticity", 0)


class TestCompleteToUnitary:
    def test_identity_column(self):
        block = np.eye(2, dtype=complex)[:, :1]
        u = complete_to_unitary(block)
        assert np.array_equal(u, np.eye(2))

    def test_hadamard_like_column(self):
        block = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        u = complete_to_unitary(block)
        assert np.array_equal(u[:, :1], block)
        assert np.allclose(np.abs(u[:, 1]), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert frob(u.conj().T @ u - np.eye(2)) <= 1e-12

    def test_tetrad_stacked_block(self, tetrad_povm):
        m03 = psd_sqrt(tetrad_povm.elements[0] + tetrad_povm.elements[3])
        m12 = psd_sqrt(tetrad_povm.elements[1] + tetrad_povm.elements[2])
        block = np.vstack([m03, m12])
        u = complete_to_unitary(block)
        assert u.shape == (4, 4)
        assert frob(u.conj().T @ u - np.eye(4)) <= 1e-10
        assert np.array_equal(u[:, :2], block)

    def test_preserves_columns_bitwise(self, rng):
        q = random_unitary(5, rng)[:, :3]
        u = complete_to_unitary(q)
        assert np.array_equal(u[:, :3], q)
        assert frob(u.conj().T @ u - np.eye(5)) <= 1e-10

    def test_not_isometry(self):
        with pytest.raises(VerificationError) as err:
            complete_to_unitary(np.array([[1.0], [1.0]]))
        assert err.value.what == "completeness"
        assert err.value.residual == pytest.approx(1.0)  # |2 - 1|

    def test_stack_names_first_failing_block(self):
        blocks = np.stack([np.eye(3)[:, :2]] * 4).astype(complex)
        blocks[2, 0, 0] = 1.5
        blocks[3, 1, 1] = 2.0
        with pytest.raises(VerificationError, match="element 2: ") as err:
            complete_to_unitary_stack(blocks)
        assert err.value.what == "completeness"
        assert err.value.index == 2
        assert err.value.residual == pytest.approx(1.25)

    def test_stack_completes_each_block(self, rng):
        z = rng.standard_normal((5, 6, 2)) + 1j * rng.standard_normal((5, 6, 2))
        q = np.linalg.qr(z)[0]
        u = complete_to_unitary_stack(q)
        assert u.shape == (5, 6, 6)
        assert np.array_equal(u[:, :, :2], q)
        for one, block in zip(u, q):
            assert frob(one.conj().T @ one - np.eye(6)) <= 1e-12
            assert np.array_equal(complete_to_unitary(block), one)

    def test_too_many_columns(self):
        with pytest.raises(VerificationError) as err:
            complete_to_unitary(np.eye(3)[:2, :])
        assert err.value.what == "shape"


    @pytest.mark.parametrize("budget", [None, 1, 5])
    def test_unitarity_residual_in_bands(self, rng, budget, monkeypatch):
        # |U^dag U - I|_F outside the leading k x k block, whether the Gram
        # is formed whole or in bands of one or a few rows
        n, k = 12, 3
        u = np.stack([random_unitary(n, rng) for _ in range(4)])
        u[1, 5, 7] += 1e-6
        u[2, :, 0] *= 1.5  # inside the k x k block only on the diagonal
        u[3, :, 9] *= 1 + 1e-9
        reference = []
        for one in u:
            defect = one.conj().T @ one - np.eye(n)
            defect[:k, :k] = 0.0
            reference.append(np.linalg.norm(defect))
        if budget is not None:
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", budget * 16 * n // 8)
        assert np.allclose(linalg._unitarity_residuals(u, k), reference, rtol=1e-12, atol=1e-15)


class TestRandomUnitary:
    def test_unitarity(self, rng):
        for dim in (2, 3, 5):
            u = random_unitary(dim, rng)
            assert frob(u.conj().T @ u - np.eye(dim)) <= 1e-12
