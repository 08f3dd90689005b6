from dataclasses import replace

import numpy as np
import pytest

from povmtree import (
    ValidationError,
    apply_freedom,
    compile_tree,
    default_kraus,
    direct_probabilities,
    full_neumark,
    propagate,
    random_density,
    random_povm,
    random_rank_one_povm,
    tetrad,
    validate,
    verify,
)
from povmtree import linalg

from conftest import frob


def hermitian_from_upper(a):
    """Each matrix of a stack made Hermitian from its upper triangle, in place; returns ``a``.

    A reference for the stored form of an element: the diagonal's imaginary
    part becomes +0.0 and each lower entry ``(re, 0.0 - im)`` of its upper
    mirror, row by row.
    """
    for r in range(a.shape[-1]):
        a.imag[..., r, r] = 0.0
        upper, lower = a[..., r, r + 1:], a[..., r + 1:, r]
        np.copyto(lower.real, upper.real)
        np.subtract(0.0, upper.imag, out=lower.imag)
    return a


class TestValidate:
    def test_tetrad(self, tetrad_povm):
        assert tetrad_povm.n_outcomes == 4 and tetrad_povm.dim == 2
        assert frob(sum(tetrad_povm.elements) - np.eye(2)) < 1e-12
        for m in tetrad_povm.elements:
            assert np.linalg.matrix_rank(m) == 1

    def test_trivial_binary(self):
        p = validate([np.eye(2) / 2, np.eye(2) / 2])
        assert p.n_outcomes == 2 and p.labels == ("0", "1")
        # default labels compare with a tuple or a list of rows, and leave anything else to it
        assert p.labels.__eq__(5) is NotImplemented and p.labels != 5

    def test_dimension_is_derived_from_the_rows(self):
        # a d = 2 POVM given d = 3 rows kept dim 2, and compiling it raised a
        # bare numpy ValueError from a broadcast; the rows fix d, as they do a
        # QuantumState's
        p3 = random_povm(3, 3, np.random.default_rng(3))
        p = replace(random_povm(3, 2, np.random.default_rng(2)), params=p3.params)
        assert p.dim == 3 and p.elements.shape == (3, 3, 3)
        tree = compile_tree(p)
        assert tree.povm.dim == 3 and verify(tree).max_residual <= linalg.TOL_CHECK
        assert [a.tobytes() for a in tree.kraus] == [a.tobytes() for a in compile_tree(p3).kraus]
        state = random_density(3, np.random.default_rng(0))
        assert np.abs(direct_probabilities(p, state) - propagate(tree, state).probabilities).max() <= 1e-12
        assert full_neumark(p).system_dim == 3

    def test_incomplete_sum(self):
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2), np.eye(2)])
        assert err.value.what == "completeness"
        assert err.value.residual == pytest.approx(np.sqrt(2))  # |2I - I|_F

    def test_not_hermitian_names_element(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2) / 2, bad])
        assert err.value.what == "hermiticity"
        assert err.value.index == 1

    def test_not_psd_names_element(self):
        with pytest.raises(ValidationError) as err:
            validate([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])
        assert err.value.what == "positivity"
        assert err.value.index == 0
        assert err.value.residual == pytest.approx(-0.5)

    def test_first_failing_element_is_named(self):
        good = np.eye(2) / 4
        not_psd = np.diag([0.75, -0.25])
        not_hermitian = np.array([[0.25, 0.5], [0.0, 0.25]])
        both = np.array([[0.25, 0.5], [0.0, -0.25]])
        with pytest.raises(ValidationError) as err:
            validate([good, good, not_psd, not_hermitian, good])
        assert err.value.what == "positivity"
        assert err.value.index == 2
        with pytest.raises(ValidationError) as err:
            validate([good, good, good, not_hermitian, not_psd])
        assert err.value.what == "hermiticity"
        assert err.value.index == 3
        # Hermiticity of an element is judged before its positivity
        with pytest.raises(ValidationError) as err:
            validate([good, good, both, not_psd])
        assert err.value.what == "hermiticity"
        assert err.value.index == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2), np.eye(3)])
        assert err.value.what == "shape"

    def test_non_finite_entry_names_element(self):
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2) * np.nan])
        assert err.value.what == "finiteness"
        assert err.value.index == 0
        half = np.eye(2) / 2
        inf = half.copy()
        inf[0, 1] = np.inf
        with pytest.raises(ValidationError) as err:
            validate([half, half, inf])
        assert err.value.what == "finiteness"
        assert err.value.index == 2

    def test_entry_above_the_bound_names_element(self):
        # checked after shape and finiteness, before anything is squared
        half = np.eye(2) / 2
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2) * 1e300])
        assert (err.value.what, err.value.index) == ("range", 0)
        large = half.astype(complex)
        large[0, 1] = 2.5j
        not_hermitian = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError) as err:
            validate([not_hermitian, large])
        assert (err.value.what, err.value.index) == ("range", 1)
        with pytest.raises(ValidationError) as err:
            validate([large, np.full((2, 2), np.inf)])
        assert (err.value.what, err.value.index) == ("finiteness", 1)
        with pytest.raises(ValidationError) as err:
            validate([np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])])  # modulus 2 is in range
        assert err.value.what == "positivity"

    def test_non_matrix_element_is_named(self):
        with pytest.raises(ValidationError) as err:
            validate([np.ones(2)])
        assert err.value.what == "shape"
        assert err.value.index == 0
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2), np.eye(2), np.ones((2, 2, 2))])
        assert err.value.what == "shape"
        assert err.value.index == 2

    def test_ragged_names_first_bad_element(self):
        half = np.eye(2) / 2
        with pytest.raises(ValidationError) as err:
            validate([half, half, np.eye(3), np.eye(4)])
        assert err.value.what == "shape"
        assert err.value.index == 2
        with pytest.raises(ValidationError) as err:
            validate([half, np.ones((2, 3))])
        assert err.value.what == "shape"
        assert err.value.index == 1

    def test_accepts_a_stack(self, tetrad_povm):
        p = validate(tetrad_povm.elements, labels=tetrad_povm.labels)
        assert p.elements.shape == (4, 2, 2)
        assert np.array_equal(p.elements, tetrad_povm.elements)
        assert p.elements is not tetrad_povm.elements

    def test_empty(self):
        with pytest.raises(ValidationError) as err:
            validate([])
        assert err.value.what == "shape"

    def test_labels(self):
        p = validate([np.eye(2) / 2, np.eye(2) / 2], labels=["up", "down"])
        assert p.labels == ("up", "down")
        with pytest.raises(ValidationError) as err:
            validate([np.eye(2)], labels=["a", "b"])
        assert err.value.what == "shape"

    def test_elements_are_frozen(self, tetrad_povm):
        with pytest.raises(ValueError):
            tetrad_povm.elements[0][0, 0] = 5.0

    @pytest.mark.parametrize("what", ["hermiticity", "positivity"])
    def test_error_names_the_index_among_all_elements(self, what):
        # at d = 32 a block holds 4 elements, so element 37 lies in block 9
        d, n = 32, 64
        assert next(linalg.blocks(n, d)).stop == 4
        elements = np.array(random_rank_one_povm(n, d, np.random.default_rng([d, n])).elements)
        if what == "hermiticity":
            elements[37, 0, 1] += 1e-6
        else:  # a rank-one element has eigenvalues 0, now -1e-6
            elements[37] -= 1e-6 * np.eye(d)
        with pytest.raises(ValidationError) as err:
            validate(elements)
        assert err.value.what == what
        assert err.value.index == 37

    @pytest.mark.parametrize("kind", ["complex", "real, imaginary parts +-0.0"])
    def test_elements_are_the_hermitian_part_rebuilt_from_its_upper_triangle(self, kind):
        rng = np.random.default_rng(11)
        x = np.array(random_povm(6, 3, rng).elements)
        if kind == "complex":
            noise = 1e-12 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
            x += noise - noise.conj().swapaxes(-1, -2)
        else:  # the real part of a POVM is a POVM
            x.imag = np.copysign(0.0, rng.standard_normal(x.shape))
        hermitian = (x + x.conj().swapaxes(-1, -2)) / 2
        negative_zero = np.signbit(hermitian.imag) & (hermitian.imag == 0)
        assert negative_zero.any() == (kind != "complex")
        expected = hermitian_from_upper(hermitian.copy())
        assert validate(x).elements.tobytes() == expected.tobytes()

    def test_elements_are_one_copied_stack(self):
        mats = [np.eye(2) / 2, np.eye(2) / 2]
        p = validate(mats)
        assert isinstance(p.elements, np.ndarray) and p.elements.shape == (2, 2, 2)
        assert not p.elements.flags.writeable
        mats[0][0, 0] = 5.0
        assert p.elements[0, 0, 0] == 0.5


class TestDefaultKraus:
    def test_projective_roots_are_projectors(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        f = default_kraus(p)
        assert f.shape == (2, 2, 2) and not f.flags.writeable
        assert np.allclose(f[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(f[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_uniform_pair(self):
        p = validate([np.eye(2) / 2, np.eye(2) / 2])
        f = default_kraus(p)
        for m in f:
            assert np.allclose(m, np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_tetrad_rank_one_identity(self, tetrad_povm):
        # for rank-one M the Hermitian root is M / sqrt(tr M)
        f = default_kraus(tetrad_povm)
        for m, element in zip(f, tetrad_povm.elements):
            assert frob(m.conj().T @ m - element) <= 1e-9
            assert np.allclose(m, element / np.sqrt(np.trace(element).real), atol=1e-9)

    def test_factorization_residual_property(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 10))
            p = random_povm(n, d, rng)
            f = default_kraus(p)
            for m, element in zip(f, p.elements):
                assert frob(m.conj().T @ m - element) <= 1e-9


class TestApplyFreedom:
    def test_identity_freedom(self, tetrad_povm):
        f = default_kraus(tetrad_povm)
        f2 = apply_freedom(f, [np.eye(2)] * 4)
        for a, b in zip(f, f2):
            assert np.allclose(a, b)

    def test_pauli_x_on_projective(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        f2 = apply_freedom(default_kraus(p), [x, x])
        assert np.allclose(f2[0], np.array([[0.0, 0.0], [1.0, 0.0]]))
        for m, element in zip(f2, p.elements):
            assert frob(m.conj().T @ m - element) <= 1e-12

    def test_preserves_operators(self, tetrad_povm, rng):
        from povmtree import random_unitary

        f = default_kraus(tetrad_povm)
        vs = [random_unitary(2, rng) for _ in range(4)]
        f2 = apply_freedom(f, vs)
        for m, element in zip(f2, tetrad_povm.elements):
            assert frob(m.conj().T @ m - element) <= 1e-9

    def test_rejects_non_unitary(self, tetrad_povm):
        f = default_kraus(tetrad_povm)
        with pytest.raises(ValidationError) as err:
            apply_freedom(f, [np.eye(2) * 2] + [np.eye(2)] * 3)
        assert err.value.what == "unitarity"
        assert err.value.index == 0

    def test_names_first_non_unitary_in_the_stack(self, tetrad_povm):
        f = default_kraus(tetrad_povm)
        vs = np.stack([np.eye(2)] * 4).astype(complex)
        vs[2] *= 1.5
        vs[3] *= 2.0
        with pytest.raises(ValidationError) as err:
            apply_freedom(f, vs)
        assert err.value.what == "unitarity"
        assert err.value.index == 2
        # a non-finite entry is judged before unitarity, wherever it sits
        vs[3, 0, 0] = np.nan
        with pytest.raises(ValidationError) as err:
            apply_freedom(f, vs)
        assert err.value.what == "finiteness"
        assert err.value.index == 3

    def test_names_a_non_unitary_by_its_place_among_all(self, monkeypatch):
        # one 2 x 2 unitary a block: the non-unitary at position 5 is first in its own block
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * 2 * 2)
        assert len(list(linalg.blocks(8, 2))) == 8
        vs = np.stack([np.eye(2)] * 8).astype(complex)
        vs[5] *= 1.5
        vs[7] *= 2.0
        with pytest.raises(ValidationError) as err:
            apply_freedom(np.stack([np.eye(2)] * 8), vs)
        assert (err.value.what, err.value.index) == ("unitarity", 5)

    def test_names_first_misshapen_unitary(self, tetrad_povm):
        with pytest.raises(ValidationError) as err:
            apply_freedom(default_kraus(tetrad_povm), [np.eye(2)] * 2 + [np.eye(3), np.eye(2)])
        assert err.value.what == "shape"
        assert err.value.index == 2

    def test_rejects_wrong_count(self, tetrad_povm):
        with pytest.raises(ValidationError) as err:
            apply_freedom(default_kraus(tetrad_povm), [np.eye(2)])
        assert err.value.what == "shape"

    def test_kraus_is_taken_as_a_stack(self, tetrad_povm):
        f = default_kraus(tetrad_povm)
        assert np.array_equal(apply_freedom(list(f), [np.eye(2)] * 4), f)
        bad = list(f)
        bad[1] = np.where(np.eye(2), np.nan, f[1])
        with pytest.raises(ValidationError) as err:
            apply_freedom(bad, [np.eye(2)] * 4)
        assert (err.value.what, err.value.index) == ("finiteness", 1)


class TestPadding:
    """Padding belongs to the tree's shape: a POVM holds only its outcomes, and its tree keeps it."""

    def test_power_of_two_untouched(self, tetrad_povm):
        tree = compile_tree(tetrad_povm)
        assert tree.povm is tetrad_povm and tree.depth == 2

    def test_three_outcomes(self):
        third = np.eye(2) / 3
        p = validate([third, third, third])
        tree = compile_tree(p)
        assert tree.povm is p and p.n_outcomes == 3 and tree.depth == 2
        assert p.labels == ("0", "1", "2") and not hasattr(p, "n_original")
        leaves = tree.cumulative_operators(2)  # leaf 3 is padding, the zero operator
        assert np.array_equal(leaves[3], np.zeros((2, 2)))
        assert frob(sum(leaves) - np.eye(2)) < 1e-12

    def test_five_outcomes(self, rng):
        p = random_rank_one_povm(5, 2, rng)
        tree = compile_tree(p)
        assert tree.povm is p and len(p.labels) == 5 and tree.depth == 3
        assert np.array_equal(tree.order, np.arange(5))
        assert not tree.cumulative_kraus(3)[5:].any()

    def test_single_outcome(self):
        p = validate([np.eye(3)])
        tree = compile_tree(p)
        assert tree.povm is p and tree.depth == 0


def assert_valid_within(p, limit):
    """Each element Hermitian and positive, and the sum the identity, within ``limit``."""
    e = p.elements
    assert np.linalg.norm(e - e.conj().swapaxes(1, 2), axis=(1, 2)).max() <= limit
    assert np.linalg.eigvalsh(e)[:, 0].min() >= -limit
    assert frob(e.sum(axis=0) - np.eye(p.dim)) <= limit


class TestGenerators:
    def test_rank_one_generator_validates_tightly(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 13))
            p = random_rank_one_povm(n, d, rng)
            assert_valid_within(p, 1e-10)
            for m in p.elements:
                assert np.linalg.matrix_rank(m, tol=1e-8) == 1

    def test_rank_one_needs_enough_outcomes(self, rng):
        with pytest.raises(ValidationError) as err:
            random_rank_one_povm(2, 3, rng)
        assert err.value.what == "shape"

    def test_mixed_rank_generator(self, rng):
        p = random_povm(4, 3, rng, ranks=[1, 2, 3, 1])
        assert_valid_within(p, 1e-10)
        for m, r in zip(p.elements, [1, 2, 3, 1]):
            assert np.linalg.matrix_rank(m, tol=1e-8) == r

    def test_mixed_rank_guards(self, rng):
        with pytest.raises(ValueError):
            random_povm(2, 3, rng, ranks=[1, 1])
        with pytest.raises(ValueError):
            random_povm(2, 3, rng, ranks=[0, 4])
        with pytest.raises(ValidationError) as err:
            random_povm(2, 3, rng, ranks=[1, 2, 3])
        assert err.value.what == "shape"


class TestTetradValues:
    def test_grouped_operator_entries(self, tetrad_povm):
        m03 = tetrad_povm.elements[0] + tetrad_povm.elements[3]
        assert m03[0, 1] == pytest.approx(1 / (3 * np.sqrt(2)), abs=1e-12)
        assert m03[0, 0].real == pytest.approx(2 / 3, abs=1e-12)
        assert m03[1, 1].real == pytest.approx(1 / 3, abs=1e-12)

    def test_probabilities_from_amplitudes(self, tetrad_povm):
        rho = np.diag([1.0, 0.0]).astype(complex)
        probs = [np.trace(m @ rho).real for m in tetrad_povm.elements]
        assert np.allclose(probs, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)
