import numpy as np
import pytest

from povmtree import (
    QuantumState,
    ValidationError,
    VerificationError,
    complete_to_unitary,
    hermitian_eig,
    pseudo_inverse,
    psd_sqrt,
    random_unitary,
    tetrad,
    validate,
)

from povmtree.linalg import TOL_CHECK, check_psd

from conftest import frob


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def tetrad_m03():
    p = tetrad()
    return p.elements[0] + p.elements[3]


@pytest.mark.parametrize("call, matrix", [
    (QuantumState, np.zeros((0, 0))),
    (lambda m: validate([m]), np.zeros((0, 0))),
    (psd_sqrt, np.zeros((0, 0))),
    (pseudo_inverse, np.zeros((0, 3))),
], ids=["QuantumState", "validate", "psd_sqrt", "pseudo_inverse"])
def test_zero_size_matrix_is_a_shape_error(call, matrix):
    # as_stack refuses a zero dimension before any block or SVD sees it; a
    # state has no elements, so it names its density with no index
    with pytest.raises(ValidationError) as err:
        call(matrix)
    assert err.value.what == "shape" and err.value.index == (None if call is QuantumState else 0)


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert frob(v.conj().T @ v - np.eye(2)) < 1e-12

    def test_diagonal_descending(self):
        w, v = hermitian_eig(np.diag([0.0, 3.0]))
        assert np.allclose(w, [3.0, 0.0])
        assert np.allclose(np.abs(v[:, 0]), [0.0, 1.0])
        assert np.allclose(np.abs(v[:, 1]), [1.0, 0.0])

    def test_tetrad_grouped_operator_spectrum(self):
        # characteristic polynomial oracle: trace 1, determinant 1/6
        m03 = tetrad_m03()
        char_roots = sorted(np.roots([1.0, -np.trace(m03).real, np.linalg.det(m03).real]),
                            reverse=True)
        w, _ = hermitian_eig(m03)
        assert np.allclose(w, char_roots, atol=1e-12)
        expected = [(3 + np.sqrt(3)) / 6, (3 - np.sqrt(3)) / 6]
        assert np.allclose(w, expected, atol=1e-12)

    def test_phase_convention(self, rng):
        for _ in range(20):
            _, v = hermitian_eig(random_hermitian(5, rng))
            for j in range(5):
                col = v[:, j]
                pivot = col[int(np.argmax(np.abs(col)))]
                assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    @pytest.mark.parametrize("a", [
        (lambda u: (u * [1.0, 1.0, 2.0]) @ u.conj().T)(random_unitary(3, np.random.default_rng(0))),
        np.diag([0.5, 2.0, 0.5, 2.0, 2.0]),
    ], ids=["unitary-conjugated", "permuted-diagonal"])
    def test_exact_ties(self, a):
        w, v = hermitian_eig(a)
        assert (np.diff(w) <= 0).all()
        pivots = v[np.argmax(np.abs(v), axis=0), range(len(w))]
        assert (pivots.real > 0).all() and (np.abs(pivots.imag) < 1e-12).all()
        # tied columns in lexicographic order: row by row, real part before imaginary
        keys = [tuple(np.stack([col.real, col.imag], 1).ravel()) for col in v.T]
        assert all(keys[j - 1] <= keys[j] for j in range(1, len(w)) if w[j] == w[j - 1])
        assert frob((v * w) @ v.conj().T - a) <= 1e-12

    def test_matches_a_loop_per_column(self, rng):
        # the phases and tie order as one Python loop per column and per run of
        # exact ties; a broadcast multiply rounds differently from a per-column
        # one, so eigenvectors agree to a few ulps, eigenvalues exactly
        def reference(a):
            a = np.asarray(a, dtype=complex)
            w, v = np.linalg.eigh((a + a.conj().T) / 2)
            order = np.argsort(-w, kind="stable")
            w, v = w[order], v[:, order]
            for j in range(len(w)):
                pivot = v[np.argmax(np.abs(v[:, j])), j]
                v[:, j] *= pivot.conjugate() / abs(pivot)
            i = 0
            while i < len(w):
                j = i
                while j < len(w) and w[j] == w[i]:
                    j += 1
                v[:, i:j] = v[:, sorted(range(i, j), key=lambda c: [(x.real, x.imag) for x in v[:, c]])]
                i = j
            return w, v

        inputs = [random_hermitian(int(rng.integers(2, 9)), rng) for _ in range(50)]
        inputs += [np.diag(rng.integers(0, 3, int(rng.integers(2, 9))).astype(float)) for _ in range(50)]
        for _ in range(50):  # A (+) A (+) ..., permuted: exactly repeated eigenvalues
            big = np.kron(np.eye(int(rng.integers(2, 4))), random_hermitian(int(rng.integers(1, 4)), rng))
            p = rng.permutation(len(big))
            inputs.append(big[p][:, p])
        ties = 0
        for a in inputs:
            w, v = reference(a)
            got_w, got_v = hermitian_eig(a)
            assert np.array_equal(got_w, w)
            assert np.abs(got_v - v).max() <= 4 * np.finfo(float).eps
            ties += bool((w[1:] == w[:-1]).any())
        assert ties >= 50

    def test_permuted_diagonal_order(self):
        # the 2s sit at rows 1, 3, 4 and the halves at rows 0, 2; within a tie a
        # column whose 1 sits lower comes first
        w, v = hermitian_eig(np.diag([0.5, 2.0, 0.5, 2.0, 2.0]))
        assert np.array_equal(w, [2.0, 2.0, 2.0, 0.5, 0.5])
        assert np.array_equal(v, np.eye(5)[:, [4, 3, 1, 2, 0]])

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
            w, v = hermitian_eig(a)
            worst = max(worst, frob((v * w) @ v.conj().T - a))
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
        w_m, v_m = hermitian_eig(m03)
        w_r, v_r = hermitian_eig(root)
        assert np.allclose(w_r, np.sqrt(w_m), atol=1e-12)
        # same eigenvectors under the shared phase convention
        assert np.allclose(v_r, v_m, atol=1e-9)

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

    def test_stack_completes_each_block(self, rng):
        z = rng.standard_normal((5, 6, 2)) + 1j * rng.standard_normal((5, 6, 2))
        q = np.linalg.qr(z)[0]
        for block in q:
            u = complete_to_unitary(block)
            assert u.shape == (6, 6)
            assert np.array_equal(u[:, :2], block)
            assert frob(u.conj().T @ u - np.eye(6)) <= 1e-12

    def test_too_many_columns(self):
        with pytest.raises(VerificationError) as err:
            complete_to_unitary(np.eye(3)[:2, :])
        assert err.value.what == "shape"


class TestRandomUnitary:
    def test_unitarity(self, rng):
        for dim in (2, 3, 5):
            u = random_unitary(dim, rng)
            assert frob(u.conj().T @ u - np.eye(dim)) <= 1e-12
