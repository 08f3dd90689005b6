import gc
import re
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from povmtree import (
    QuantumState,
    ValidationError,
    VerificationError,
    apply_freedom,
    compile_tree,
    default_kraus,
    direct_probabilities,
    full_neumark,
    io as treeio,
    null_space_isometry,
    propagate,
    pseudo_inverse,
    psd_sqrt,
    random_density,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    sample,
    split_node,
    tetrad,
    validate,
    verify,
)
from povmtree import linalg, povm as povm_module, simulator, tree as tree_module
from povmtree.dilation import completeness_residuals, dilate_binary

from conftest import all_pairs, frob, held_words, read_tree_file, stored_words, with_pairs, write_tree_file


def second_stage(tree):
    """Outcome -> the Kraus operator applied at the last level to reach its leaf."""
    # leaf i is outcome order[i], reached by b_(i % 2) of the pair at node i // 2
    return {j: tree.pairs(tree.depth - 1)[i // 2, i % 2] for i, j in enumerate(tree.order)}


class TestNullSpaceIsometry:
    def test_full_rank_gives_zero(self):
        assert np.array_equal(null_space_isometry(np.eye(3)), np.zeros((3, 3)))

    def test_rank_one_diagonal(self):
        g = null_space_isometry(np.diag([1.0, 0.0]))
        assert frob(g @ np.diag([1.0, 0.0])) <= 1e-12
        assert np.allclose(g.conj().T @ g, np.diag([0.0, 1.0]), atol=1e-12)

    def test_tetrad_first_level_full_rank(self, tetrad_povm):
        m03 = psd_sqrt(tetrad_povm.elements[0] + tetrad_povm.elements[3])
        assert np.array_equal(null_space_isometry(m03), np.zeros((2, 2)))

    def test_annihilates_and_completes(self, rng):
        # g @ P = 0 and g^dag g + P P^+ = I for non-normal rank-deficient P
        for _ in range(25):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d))
            x = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            y = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
            p = x @ y
            g = null_space_isometry(p)
            assert frob(g @ p) <= 1e-10 * max(frob(p), 1.0)
            proj = p @ pseudo_inverse(p)
            assert frob(g.conj().T @ g + proj - np.eye(d)) <= 1e-12

    def test_zero_matrix_gives_unitary(self):
        g = null_space_isometry(np.zeros((3, 3)))
        assert frob(g.conj().T @ g - np.eye(3)) <= 1e-12


class TestSplitNode:
    def test_root_case_returns_children(self, rng):
        p = random_rank_one_povm(2, 2, rng)
        f = default_kraus(p)
        pair = split_node((f[0], f[1]), np.eye(2))
        assert pair.shape == (2, 2, 2) and not pair.flags.writeable
        assert np.allclose(pair[0], f[0], atol=1e-14)
        assert np.allclose(pair[1], f[1], atol=1e-14)

    def test_rank_deficient_parent_oracle(self):
        # hand-derived: parent diag(1,0) split into equal halves diag(1/2,0)
        parent = np.diag([1.0, 0.0]).astype(complex)
        child = np.diag([1 / np.sqrt(2), 0.0]).astype(complex)
        # each child takes a_c = 1/sqrt(2) of the correction g = |1><1|
        pair = split_node((child, child), parent)
        assert np.allclose(pair[0], np.diag([1 / np.sqrt(2), 1 / np.sqrt(2)]), atol=1e-12)
        assert np.allclose(pair[1], np.diag([1 / np.sqrt(2), 1 / np.sqrt(2)]), atol=1e-12)
        assert completeness_residuals(pair[None])[0] <= 1e-12

    def test_completeness_needs_correction(self):
        # without the null-space term the pair would be deficient exactly by
        # the projector onto the parent's co-kernel
        parent = np.diag([1.0, 0.0]).astype(complex)
        child = np.diag([1 / np.sqrt(2), 0.0]).astype(complex)
        pinv = pseudo_inverse(parent)
        bare = child @ pinv
        deficiency = frob(2 * (bare.conj().T @ bare) - np.eye(2))
        assert deficiency == pytest.approx(1.0)

    def test_inconsistent_children(self):
        with pytest.raises(VerificationError) as err:
            split_node((np.eye(2), np.eye(2)), np.eye(2))
        assert err.value.what == "children sum"
        assert err.value.path is None

    @pytest.mark.parametrize("count", [1, 3])
    def test_needs_two_children(self, count):
        with pytest.raises(ValidationError) as err:
            split_node([np.eye(2) / np.sqrt(count)] * count, np.eye(2))
        assert err.value.what == "shape" and f"got {count} child operators" in str(err.value)

    def test_factorization_postcondition(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        m01 = psd_sqrt(p.elements[0] + p.elements[1])
        pair = split_node((default_kraus(p)[0], default_kraus(p)[1]), m01)
        assert frob(pair[0] @ m01 - default_kraus(p)[0]) <= 1e-9
        assert frob(pair[1] @ m01 - default_kraus(p)[1]) <= 1e-9


class TestTetradTree:
    @pytest.fixture
    def tree(self, tetrad_povm):
        return compile_tree(tetrad_povm, partition=[0, 3, 1, 2])

    def test_depth_and_layout(self, tree):
        assert tree.depth == 2
        assert tuple(tree.order) == (0, 3, 1, 2)
        assert [level.shape for level in all_pairs(tree)] == [(1, 2, 2, 2), (2, 2, 2, 2)]
        # the last level's pairs view its read-only words; a level above it is built fresh
        assert not tree.pairs(1).flags.writeable and not np.shares_memory(tree.pairs(0), tree.levels[0])
        # held as words: the root's blocks' 4 real parameters, the last level's 8 floats
        assert [(level.shape, level.dtype) for level in tree.levels] == [((1, 2, 4), float), ((2, 2, 8), float)]
        assert all(not level.flags.writeable for level in tree.levels)

    def test_leaves_reconstruct_elements(self, tree, tetrad_povm):
        leaves = tree.cumulative_operators(tree.depth)
        for i, j in enumerate(tree.order):
            assert frob(leaves[i] - tetrad_povm.elements[j]) <= 1e-9

    def test_second_stage_is_projective(self, tree):
        # the four second-stage operators are rank-one projectors
        for b in second_stage(tree).values():
            op = b.conj().T @ b
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-9)
            assert frob(op @ op - op) <= 1e-9

    def test_printed_second_stage_operator(self, tree):
        b1 = second_stage(tree)[1]
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert frob(b1.conj().T @ b1 - expected) <= 1e-9

    def test_stage_closures(self, tree):
        for pairs in all_pairs(tree):
            assert completeness_residuals(pairs).max() <= 1e-9

    def test_verify_passes(self, tree):
        report = verify(tree)
        assert report.passed
        assert report.max_residual <= 1e-9


class TestAccessors:
    """A level or a path of the wrong type fails as one out of range does."""

    @pytest.mark.parametrize("level", [1.0, True, np.float64(1.0), "1", None, -1, 3])
    def test_cumulative_kraus_takes_a_whole_level(self, tetrad_povm, level):
        with pytest.raises(IndexError):
            compile_tree(tetrad_povm).cumulative_kraus(level)

    @pytest.mark.parametrize("level", [2, np.int64(1), np.uint8(0)])
    def test_cumulative_kraus_of_numpy_integers(self, tetrad_povm, level):
        tree = compile_tree(tetrad_povm)
        assert tree.cumulative_kraus(level).shape == (1 << int(level), 2, 2)

    @pytest.mark.parametrize("path", [0, None, 1.0, ["0"], b"0", "00", "2"])
    def test_dilation_takes_a_path_string(self, tetrad_povm, path):
        with pytest.raises(KeyError):
            compile_tree(tetrad_povm).dilation(path)


class TestCompile:
    def test_projective_depth_one(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        tree = compile_tree(p)
        assert tree.depth == 1
        b0, b1 = tree.pairs(0)[0]
        assert np.allclose(b0, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(b1, np.diag([0.0, 1.0]), atol=1e-12)

    def test_single_outcome_degenerate(self):
        tree = compile_tree(validate([np.eye(2)]))
        assert tree.depth == 0 and all_pairs(tree) == () and tree.order == (0,)
        assert np.array_equal(tree.cumulative_kraus(0), np.eye(2)[None])

    def test_random_octet_qutrit(self, rng):
        p = random_rank_one_povm(8, 3, rng)
        tree = compile_tree(p)
        assert tree.depth == 3
        for i, j in enumerate(tree.order):
            assert frob(tree.cumulative_operators(3)[i] - p.elements[j]) <= 1e-8
        report = verify(tree)
        assert report.passed
        # pairs of rank-one elements have rank 2 < 3: corrections must appear
        assert any(c.uses_null_correction for c in report.nodes)

    def test_padded_three_outcomes(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p)
        assert tree.povm is p and tree.depth == 2 and tuple(tree.order) == (0, 1, 2)
        report = verify(tree)
        assert report.passed
        pad_leaf = tree.cumulative_operators(2)[3]  # leaf 3, past the 3 outcomes, is padding
        assert frob(pad_leaf) <= 1e-9

    def test_partition_invariance(self, rng):
        p = random_rank_one_povm(8, 2, rng)
        base = compile_tree(p)
        perm = list(rng.permutation(8))
        permuted = compile_tree(p, partition=perm)
        leaves_a, leaves_b = base.cumulative_operators(3), permuted.cumulative_operators(3)
        for j in range(8):
            a = leaves_a[tuple(base.order).index(j)]
            b = leaves_b[tuple(permuted.order).index(j)]
            assert frob(a - b) <= 1e-9

    def test_partition_validation(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        with pytest.raises(ValueError):
            compile_tree(p, partition=[0, 1, 2])
        with pytest.raises(ValueError):
            compile_tree(p, partition=[0, 0, 1, 2])

    @pytest.mark.parametrize("partition", [
        [0.9, 1.2, 2.5, 3.99], ["0", "1", "2", "3"], [0, 3, 1, 2.0], [0, 3, 1, 2**70],
        np.array([0.0, 3.0, 1.0, 2.0]), [True, False, 2, 3], np.array([1, 0, 1, 1], dtype=bool),
    ], ids=["floats", "strings", "one-float", "huge", "float-array", "bools", "bool-array"])
    def test_partition_entries_must_be_integers(self, tetrad_povm, partition):
        # int() once compiled the floats as (0, 1, 2, 3), [True, False] as
        # (1, 0) on two outcomes and parsed the strings
        with pytest.raises(ValidationError) as err:
            compile_tree(tetrad_povm, partition=partition)
        assert err.value.what == "partition"

    def test_partition_of_bools_on_two_outcomes(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValidationError) as err:
            compile_tree(p, partition=[True, False])
        assert err.value.what == "partition"

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_partition_of_numpy_integers(self, tetrad_povm, dtype):
        tree = compile_tree(tetrad_povm, partition=np.array([0, 3, 1, 2], dtype=dtype))
        same = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        assert tree.order.dtype == np.intp and not tree.order.flags.writeable
        assert np.array_equal(tree.order, same.order)
        assert all(np.array_equal(a, b) for a, b in zip(all_pairs(tree), all_pairs(same)))

    def test_partition_over_unpadded_outcomes(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p, partition=[2, 0, 1])
        assert tuple(tree.order) == (2, 0, 1)

    def test_factorization_length_check(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        f = default_kraus(random_rank_one_povm(3, 2, rng))
        with pytest.raises(ValueError):
            compile_tree(p, f)

    @pytest.mark.parametrize("case", ["wrong dimension", "list of identities", "count", "nan",
                                      "inf"])
    def test_factorization_checked_on_entry(self, tetrad_povm, case):
        # each once raised numpy's bare ValueError or TypeError, or (nan, inf)
        # compiled into a tree with nan Kraus pairs
        kraus = default_kraus(tetrad_povm)
        nan, inf = kraus.copy(), kraus.copy()
        nan[2, 1, 0] = np.nan
        inf[1, 0, 1] = np.inf
        factorization, error, what, where = {
            "wrong dimension": (np.zeros((4, 3, 3)), ValidationError, "shape", 0),
            # a list is stacked; identities do not factor the tetrad's elements, and
            # the first leaf's is checked first
            "list of identities": ([np.eye(2)] * 4, VerificationError, "leaf reconstruction", "00"),
            "count": (kraus[:3], ValidationError, "shape", None),
            "nan": (nan, ValidationError, "finiteness", 2),
            "inf": (inf, ValidationError, "finiteness", 1),
        }[case]
        with pytest.raises(error) as err:
            compile_tree(tetrad_povm, factorization)
        assert err.value.what == what
        assert (err.value.path if error is VerificationError else err.value.index) == where

    def test_factorization_as_a_list(self, rng):
        p = random_rank_one_povm(5, 3, rng)
        kraus = apply_freedom(default_kraus(p), [random_unitary(3, rng) for _ in range(5)])
        listed = all_pairs(compile_tree(p, list(kraus)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(listed, all_pairs(compile_tree(p, kraus))))

    def test_freedom_on_rank_deficient_parents(self, rng):
        # last-level parents have rank 2 < d: the correction must follow the
        # child's isometric factor or completeness would break
        p = random_rank_one_povm(4, 3, rng)
        f = apply_freedom(default_kraus(p), [random_unitary(3, rng) for _ in range(4)])
        tree = compile_tree(p, f)
        report = verify(tree)
        assert report.passed
        assert any(c.uses_null_correction for c in report.nodes)

    def test_g_orthogonality_invariant(self, rng):
        # cross term (m @ pinv(parent))^dag g of the paper's construction vanishes
        # at every compiled node: its roots R_x = sqrt(S_x) of the node operators,
        # which the tree holds in its own gauge (m_x^dag m_x = S_x)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 13))
            p = random_rank_one_povm(n, d, rng)
            tree = compile_tree(p)
            for level in range(tree.depth):
                parents = [psd_sqrt(s) for s in tree.cumulative_operators(level)]
                children = [psd_sqrt(s) for s in tree.cumulative_operators(level + 1)]
                for i, parent in enumerate(parents):
                    g = null_space_isometry(parent)
                    if not g.any():
                        continue
                    pinv = pseudo_inverse(parent)
                    for m in children[2 * i : 2 * i + 2]:
                        assert frob((m @ pinv).conj().T @ g) <= 1e-10


class TestTriangularPairs:
    """Above the last level a pair's blocks are upper triangular, +0.0 below the diagonal, as a file stores them."""

    @staticmethod
    def check(tree, tmp_path):
        for level in all_pairs(tree)[:-1]:  # every bit below the diagonals is zero: no -0.0, no rounding
            assert not np.tril(level, -1).view(np.uint64).any()
        path = tmp_path / "t.tree"
        treeio.save_tree(tree, path)
        again = treeio.load_tree(path)
        assert [a.tobytes() for a in all_pairs(again)] == [a.tobytes() for a in all_pairs(tree)]
        assert (again.order.tobytes(), again.povm.params.tobytes()) == (tree.order.tobytes(),
                                                                         tree.povm.params.tobytes())

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_digest_grid(self, d, tmp_path):
        # tests/digest.py's cases of dimension d: k from 1 to 69, so depth 0,
        # depth 1 and padded k, each in index order, in a random partition
        # and with random Kraus freedom
        import digest

        cases = [case for case in digest.grid(quick=False) if case[0] == d and not case[3]]
        assert {k for _, k, _, _ in cases} == set(range(1, 70))
        for case in cases:
            self.check(digest.case(*case)[0], tmp_path)

    @pytest.mark.parametrize("d, n", [(32, 64), (2, 4096), (32, 63), (16, 65), (2, 4095)])
    def test_large(self, d, n, tmp_path):
        tree = compile_tree(random_rank_one_povm(n, d, np.random.default_rng([d, n])))
        self.check(tree, tmp_path)
        # the last level's pairs, over the leaf targets, are full
        assert np.tril(tree.pairs(tree.depth - 1), -1).any()


def dusty_povm_elements(seed):
    """A valid POVM whose element j has its smallest eigenvalue lowered by delta < TOL_CHECK.

    The set passes validate: it sums to the identity within delta and its
    lowest eigenvalue, often below zero, lies above the floor -TOL_CHECK.
    Returns the elements and the generator, drawn on for a test state.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(d + 1, 17))
    ranks = [int(r) for r in rng.integers(1, d, size=n)]
    if sum(ranks) < d:
        ranks[0] = d
    elements = random_povm(n, d, rng, ranks).elements.copy()
    j = int(rng.integers(n))
    delta = 10 ** rng.uniform(-12, np.log10(9e-10))
    w, v = np.linalg.eigh(elements[j])
    w[0] -= delta
    elements[j] = (v * w) @ v.conj().T
    return elements, rng


class TestValidatedOnce:
    """What validate accepts, default_kraus and compile_tree take without judging it again."""

    @pytest.mark.parametrize("seed", range(200))
    def test_dusty_povm(self, seed):
        elements, rng = dusty_povm_elements(seed)
        p = validate(elements)
        default_kraus(p)
        tree = compile_tree(p)
        assert verify(tree).passed
        state = random_density(p.dim, rng)
        deviation = propagate(tree, state).probabilities[: p.n_outcomes] - direct_probabilities(p, state)
        assert np.abs(deviation).max() <= 1e-8

    def test_eigenvalue_just_below_zero(self):
        # once accepted by validate and then rejected as not positive by default_kraus
        p = validate([np.diag([0.1, -5e-10]), np.diag([0.9, 1 + 5e-10])])
        assert np.array_equal(default_kraus(p)[0], np.diag([np.sqrt(0.1), 0.0]))
        assert verify(compile_tree(p)).passed


class TestDustBoundary:
    """Dust that validate accepts and compile refuses: ROADMAP item 1's probe, pinned as it stands.

    Element 0 of a rank-one POVM on d = 3 gives 0.9e-9 P to element 1, P the
    projector onto its two-dimensional null space: the sum is unchanged and
    element 0's least eigenvalue, -0.9e-9, lies above validate's floor
    -TOL_CHECK.  The leaf roots drop the dust, and the root pair's squares
    then miss I by its Frobenius norm, sqrt(2) 0.9e-9.  Item 1 (the nearest
    valid POVM at validate) turns this test into "compiles and verifies".
    """

    def test_validate_accepts_and_compile_refuses_at_the_root(self):
        residuals = []
        for seed in range(40):
            elements = random_rank_one_povm(6, 3, np.random.default_rng(seed)).elements.copy()
            null = np.linalg.eigh(elements[0])[1][:, :2]
            dust = 0.9e-9 * null @ null.conj().T
            elements[0] -= dust
            elements[1] += dust
            p = validate(elements)
            with pytest.raises(VerificationError) as err:
                compile_tree(p)
            assert (err.value.what, err.value.path) == ("completeness", "")
            residuals.append(err.value.residual)
        assert 1.2e-9 < min(residuals) and max(residuals) < 1.3e-9

    @pytest.mark.xfail(strict=True, raises=VerificationError,
                       reason="ROADMAP item 1: the leaf roots drop dust that validate accepts")
    def test_dust_over_three_elements_compiles_and_verifies(self):
        # Elements 0-2 of a rank-one POVM on d = 4 each give 0.99e-9 v v^dag
        # to element 3, v the unit vector orthogonal to all three: validate
        # accepts every seed, and compile refuses each at the root, the three
        # dropped pieces missing I by 2.97e-9.
        for seed in range(40):
            elements = random_rank_one_povm(8, 4, np.random.default_rng(seed)).elements.copy()
            v = np.linalg.eigh(elements[:3].sum(axis=0))[1][:, :1]  # the sum's null space
            elements[:3] -= 0.99e-9 * v @ v.conj().T
            elements[3] += 2.97e-9 * v @ v.conj().T
            assert verify(compile_tree(validate(elements))).passed


def near_parallel_povm(d, delta, seed):
    """2d rank-one elements of complex Gaussian vectors v_j, with ``v_1 = v_0 + delta w``, mapped by ``G^{-1/2}``.

    Outcomes 0 and 1 are siblings under the default partition, and their sum
    has an eigenvalue about delta^2 times its largest.  Returns the POVM and
    the generator, drawn on for a test state.
    """
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2 * d)]
    v[1] = v[0] + delta * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return povm_module._symmetrized([np.outer(x, x.conj()) for x in v]), rng


class TestNearParallelSiblings:
    """Nearly parallel sibling elements compile: no eigenvalue of their sum decides a rank."""

    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("d", [2, 4])
    def test_compiles_and_reproduces_the_probabilities(self, d, delta):
        # The partial-sum compile refused some of these seeds at every point:
        # through R_x^+ the pair's completeness residual grew like
        # eps * lambda_1 / lambda_2 (delta = 1e-3), and once the rank rule
        # dropped lambda_2 the children kept a part outside the parent's
        # support (delta = 1e-5, 1e-7).
        for seed in range(6):
            p, rng = near_parallel_povm(d, delta, seed)
            tree = compile_tree(p)
            assert verify(tree).passed
            state = random_density(d, rng)
            deviation = propagate(tree, state).probabilities - direct_probabilities(p, state)
            assert np.abs(deviation).max() <= 1e-8

    def test_split_node_refuses_an_ill_conditioned_parent(self):
        # Node '0' of this compiled tree has singular values of ratio about
        # 2e-8, full rank by the rank rule: split_node divides the children's
        # rounding by them, and its pair misses completeness by about 2e-7,
        # where the compiled pair, built without a division, passes
        p, _ = near_parallel_povm(4, 1e-7, 17)
        tree = compile_tree(p)
        assert verify(tree).passed
        parent, children = tree.cumulative_kraus(1)[0], tree.cumulative_kraus(2)[:2]
        s = np.linalg.svd(parent, compute_uv=False)
        assert 1e-10 < s[-1] / s[0] < 1e-7
        with pytest.raises(VerificationError) as err:
            split_node(children, parent)
        assert err.value.what == "completeness" and err.value.residual > 10 * linalg.TOL_CHECK

    def test_a_factorization_below_a_small_singular_value(self):
        # The leaf operators below node '0' sum to its operator diag(1, 1e-8)
        # within TOL_CHECK; the partial-sum compile divided the 5e-10 gap by
        # the parent's singular value 1e-4 and raised completeness 0.05 there.
        sqrt = np.sqrt
        factorization = np.array([np.diag([sqrt(0.5), sqrt(1e-8 / 2 + 5e-10)]), np.diag([sqrt(0.5), 1e-4 / sqrt(2)]),
                                  np.diag([0.0, sqrt((1 - 1e-8) / 2)]), np.diag([0.0, sqrt((1 - 1e-8) / 2)])],
                                 dtype=complex)
        elements = [m.conj().T @ m for m in factorization]
        elements[1] = np.diag([0.5, 1e-8 / 2 - 5e-10])
        tree = compile_tree(validate(elements), factorization)
        assert verify(tree).passed
        assert np.abs(tree.cumulative_kraus(2) - factorization).max() <= 1e-15


def near_cutoff_povm_elements(seed, eps):
    """A valid POVM whose elements each have one eigenvalue ``eps`` times their largest.

    Each element starts as ``x x^dag`` for a d x d complex Gaussian x, its
    eigenvalues divided by the largest and the smallest then scaled by
    ``eps``; the set is then mapped by ``G^{-1/2} M G^{-1/2}`` with G its sum.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(d + 1, 17))
    elements = []
    for _ in range(n):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w, v = np.linalg.eigh(x @ x.conj().T)
        w = w / w[-1]
        w[0] *= eps
        elements.append((v * w) @ v.conj().T)
    w, v = np.linalg.eigh(sum(elements))
    root_inverse = (v / np.sqrt(w)) @ v.conj().T
    return [root_inverse @ m @ root_inverse for m in elements]


class TestFromPartialSums:
    """Each node is fixed by its partial sum S_x, the sum of the elements below it, and nothing else.

    Compile forms no partial sum: it passes each node's triangular factor F_x
    up from the leaves, one QR per sibling pair, so ``F_x^dag F_x = S_x``.
    These tests add the sums themselves, and take the paper's construction,
    :func:`split_node`, as the oracle of each pair.
    """

    @staticmethod
    def check_construction(tree):
        """Every held node against its partial sum, every pair complete, and each leaf its target.

        Each pair also factors its node as :func:`split_node` builds the pair
        from the same operators, and equals it below a well-conditioned
        parent, where the pair is unique.  Returns the number of
        rank-deficient parents.
        """
        p, d, k = tree.povm, tree.povm.dim, tree.povm.n_outcomes
        elements = np.concatenate([p.elements[tree.order], np.zeros(((1 << tree.depth) - k, d, d))])
        targets = default_kraus(p)[tree.order]
        leaves = tree.cumulative_kraus(tree.depth)[:k]
        assert np.linalg.norm(leaves - targets, axis=(-2, -1)).max() <= 1e-12
        for level, pairs in enumerate(all_pairs(tree)):
            held = len(pairs)
            m = tree.cumulative_kraus(level)[:held]
            sums = elements.reshape(1 << level, -1, d, d).sum(axis=1)[:held]
            assert np.linalg.norm(m.conj().swapaxes(-1, -2) @ m - sums, axis=(-2, -1)).max() <= linalg.TOL_CHECK
            assert completeness_residuals(pairs).max() <= (linalg.TOL_CHECK if level == 0 else 1e-13)
            if 0 < level:  # F_x, the R of its pair's QR, to rounding
                assert np.abs(np.tril(m, -1)).max() <= 1e-13
            children = tree.cumulative_kraus(level + 1)
            for i in range(held):
                paper = split_node(children[2 * i : 2 * i + 2], m[i])
                assert frob((paper - pairs[i]) @ m[i]) <= 1e-9
                if np.linalg.svd(m[i], compute_uv=False)[-1] >= 1e-2:
                    assert frob(paper - pairs[i]) <= 1e-9
        return int(verify(tree).node_columns["uses_null_correction"][: (1 << tree.depth) - 1].sum())

    def test_acceptance_suite(self):
        from test_acceptance import _random_suite

        deficient = sum(self.check_construction(tree) for _, tree in _random_suite())
        assert deficient > 0

    @pytest.mark.parametrize("n, d", [(5, 2), (9, 3), (13, 4), (17, 2)])
    def test_padded_with_all_padding_subtrees(self, n, d):
        rng = np.random.default_rng([n, d])
        tree = compile_tree(random_povm(n, d, rng, [1] * n))
        assert self.check_construction(tree) > 0

    def test_near_cutoff_probe(self):
        # every seed compiles: the partial-sum compile refused 11 of these 60
        # at eps = 1e-9, its rank rule dropping what the children still held
        for seed in range(60):
            self.check_construction(compile_tree(validate(near_cutoff_povm_elements(seed, 1e-9))))


class TestNoSvd:
    """The default pipeline, validate to save and load, runs no SVD."""

    @pytest.fixture
    def no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        # numpy.linalg and, where it has one, the module numpy's own callers read
        for module in {np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)}:
            monkeypatch.setattr(module, "svd", refuse)

    @pytest.mark.parametrize("n, d, ranks", [(13, 4, "deficient"), (64, 16, "random")])
    def test_default_pipeline(self, n, d, ranks, no_svd, tmp_path):
        rng = np.random.default_rng([n, d])
        elements = random_povm(n, d, rng, [1] * n if ranks == "deficient" else None).elements
        state = random_density(d, rng)
        p = validate(elements)
        default_kraus(p)
        tree = compile_tree(p)
        report = verify(tree)
        assert report.passed
        if ranks == "deficient":  # padded to 16, with rank-deficient parents
            assert any(report.node_columns["uses_null_correction"])
        propagate(tree, state)
        sample(tree, state, 1000, seed=1)
        treeio.save_tree(tree, tmp_path / "t.tree")
        treeio.load_tree(tmp_path / "t.tree")

    def test_freedom_on_deficient_parents(self, no_svd):
        # a supplied factorization below rank-deficient parents took the one SVD
        # left in compile, for the polar factor of each Kraus operator; the
        # QR of the stacked factors needs none
        rng = np.random.default_rng(4)
        p = random_rank_one_povm(4, 3, rng)
        f = apply_freedom(default_kraus(p), [random_unitary(3, rng) for _ in range(4)])
        report = verify(compile_tree(p, f))
        assert report.passed and any(report.node_columns["uses_null_correction"])


class TestPadding:
    """A node whose leaves are all padding costs no decomposition and is not held."""

    @staticmethod
    def decompositions(monkeypatch, build, name="eigh"):
        """How many matrices ``build()`` hands to ``np.linalg.<name>``, and how many of them are zero."""
        counts = [0, 0]
        decompose = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            matrices = a.reshape(-1, a.shape[-2] * a.shape[-1])
            counts[0] += len(matrices)
            counts[1] += int((~matrices.any(axis=1)).sum())
            return decompose(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        build()
        return counts

    def test_one_outcome_past_a_power_of_two(self, monkeypatch):
        # one eigh per real leaf, for its root, and one QR per held node below
        # the root, none of them zero: (2, 1025) adds one leaf and, a level
        # deeper, 11 QRs (each level's real prefix, real_counts).  Decomposing
        # every partial sum took 2,046 and 2,058 matrices, and padding's sums
        # too 4,094 at (2, 1025), 2,036 of them zero.
        povms = {n: random_rank_one_povm(n, 2, np.random.default_rng([2, n])) for n in (1024, 1025)}
        for name, counts in (("eigh", (1024, 1025)), ("qr", (1022, 1033))):
            full, _ = self.decompositions(monkeypatch, lambda: compile_tree(povms[1024]), name)
            padded, zero = self.decompositions(monkeypatch, lambda: compile_tree(povms[1025]), name)
            assert (full, padded, zero) == (*counts, 0)
            assert padded <= 1.02 * full
        assert sum(tree_module.real_counts(11, 1025)[1:-1]) == 1033

    def test_no_walk_enters_an_all_padding_subtree(self, monkeypatch):
        # Padding is the tail of the leaf order, so the walk yields the real
        # prefix of each level and nothing else: at (2, 1025) a root and,
        # below it, one node more a level than (2, 1024) has.  Walking every
        # node formed 4,095, and with each level's boundary child 2,069.
        trees = {n: compile_tree(random_rank_one_povm(n, 2, np.random.default_rng([2, n])))
                 for n in (1024, 1025)}
        formed = {n: sum(len(block) for _, _, block in tree._operators(tree.depth) if block.ndim == 3)
                  for n, tree in trees.items()}
        assert formed == {1024: 2047, 1025: 2059}
        assert formed[1025] == 1 + formed[1024] + trees[1025].depth == sum(tree_module.real_counts(11, 1025))
        # neither compile's eigh nor verify's eigvalsh is handed an all-padding sum
        p = trees[1025].povm
        assert self.decompositions(monkeypatch, lambda: compile_tree(p))[1] == 0
        handed, zero = self.decompositions(monkeypatch, lambda: verify(trees[1025]), "eigvalsh")
        assert (handed, zero) == (1034, 0)  # one sum per internal node with a real leaf

    @pytest.mark.parametrize("n, d, freedom", [(5, 2, False), (9, 3, False), (13, 4, False), (17, 2, False),
                                               (1025, 2, False), (6, 3, True)],
                             ids=["5-2", "9-3", "13-4", "17-2", "1025-2", "freedom-6-3"])
    def test_a_tree_holds_each_levels_real_prefix(self, n, d, freedom, tmp_path):
        # level l holds the ceil(n / 2**(depth - l)) pairs of nodes with a real
        # leaf, as a tree file stores them; an all-padding node has no pair, so
        # verify checks nothing there and dilation has none to build
        rng = np.random.default_rng([n, d])
        p = random_povm(n, d, rng)
        factorization = None
        if freedom:
            factorization = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(n)])
        compiled = compile_tree(p, factorization)
        treeio.save_tree(compiled, tmp_path / "t.tree")
        for tree in (compiled, treeio.load_tree(tmp_path / "t.tree")):
            real = tree_module.real_counts(tree.depth, n)
            assert [len(k) for k in all_pairs(tree)] == real[:-1]
            columns = verify(tree).node_columns
            assert columns.keys() == {"completeness_residual", "parent_rank", "uses_null_correction"}
            for level, k in enumerate(real[:-1]):
                rows = slice((1 << level) - 1 + k, (2 << level) - 1)
                assert (columns["completeness_residual"][rows] == 0.0).all()
                assert not columns["parent_rank"][rows].any()
                for i in range(k, 1 << level):
                    path = tree_module.node_path(level, i)
                    with pytest.raises(KeyError, match=re.escape(repr(path))):
                        tree.dilation(path)
            # the old layout, each level whole with the constant pair (I/sqrt 2,
            # I/sqrt 2) as its tail, is refused
            pad = np.eye(d, dtype=complex) / np.sqrt(2)
            whole = tuple(held_words(np.concatenate([pairs, np.broadcast_to(pad, ((1 << at) - len(pairs), 2, d, d))]),
                                     at == tree.depth - 1) for at, pairs in enumerate(all_pairs(tree)))
            with pytest.raises(ValidationError) as err:
                replace(tree, levels=whole)
            assert err.value.what == "shape"

    def test_padding_is_the_tail_of_every_order(self, rng):
        # padding is the tail of the leaves, past the order: a partition, or a
        # tree built by hand, whose order names a padding leaf is refused
        p = random_rank_one_povm(5, 2, rng)
        tree = compile_tree(p, partition=[4, 0, 3, 1, 2])
        assert tuple(tree.order) == (4, 0, 3, 1, 2)
        for order in ([4, 0, 3, 1, 5, 2, 6, 7], [4, 0, 3, 1, 2, 5, 7, 6], [4, 0, 3, 1, 2, 5, 6, 7]):
            with pytest.raises(ValidationError) as err:
                compile_tree(p, partition=order)
            assert err.value.what == "partition"
            with pytest.raises(ValidationError) as err:
                replace(tree, order=np.array(order))
            assert err.value.what == "partition"

    @pytest.mark.parametrize("change, what", [
        (lambda t: {"levels": t.levels[:-1]}, "shape"),
        (lambda t: {"levels": (*t.levels, t.levels[-1])}, "shape"),
        (lambda t: {"levels": (np.zeros((1, 2, 9)), *t.levels[1:])}, "shape"),
        (lambda t: {"levels": (t.levels[0], t.levels[2], t.levels[1])}, "shape"),
        (lambda t: {"levels": tuple(level.tolist() for level in t.levels)}, "shape"),
        (lambda t: {"order": t.order.tolist()}, "partition"),
        (lambda t: {"order": t.order.astype(float)}, "partition"),
    ], ids=["level-short", "level-over", "wrong-dim", "levels-swapped", "levels-lists", "order-list", "order-floats"])
    def test_a_tree_checks_its_own_shape(self, change, what):
        # verify passed a tree one level short, checking the leaves' Grams
        # against sums of outcome pairs; the rest raised a bare ValueError,
        # TypeError or IndexError (verify, on levels given as lists)
        t = compile_tree(random_rank_one_povm(5, 2, np.random.default_rng(0)))
        with pytest.raises(ValidationError) as err:
            replace(t, **change(t))
        assert err.value.what == what

    def test_a_sweep_small_round_decomposes_no_zero_sum(self, monkeypatch):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from workloads import sweep_small
        finally:
            sys.path.pop(0)
        import povmtree

        def build():
            for case in sweep_small(povmtree, np.random.default_rng([1, 0])):
                p = validate(case.elements)
                factorization = None
                if case.unitaries is not None:
                    factorization = apply_freedom(default_kraus(p), case.unitaries)
                compile_tree(p, factorization=factorization, partition=case.partition)

        assert self.decompositions(monkeypatch, build)[1] == 0
        assert self.decompositions(monkeypatch, build, "qr")[1] == 0

    def test_padding_operators_of_a_factorization_must_be_zero(self, rng):
        # the padding leaves take no operator: a factorization holds one per
        # outcome, and one with the padding's operators, zero or not, is refused
        p = random_povm(5, 2, rng)
        f = default_kraus(p)
        tree = compile_tree(p, f)
        assert all(np.array_equal(a, b) for a, b in zip(all_pairs(tree), all_pairs(compile_tree(p))))
        padded = np.concatenate([f, np.zeros((3, 2, 2))])
        for operators in (padded, np.concatenate([f, 1e-3 * np.eye(2)[None], np.zeros((2, 2, 2))])):
            with pytest.raises(ValidationError) as err:
                compile_tree(p, operators)
            assert err.value.what == "shape"

    def test_padding_costs_no_memory(self):
        # compile and verify read the k real parameter rows in place, and
        # compile adds padding's zero rows to a gathered block only, so a
        # padded tree peaks within 64 KiB of its power-of-two neighbour and
        # under TestMemory's bounds.  With the rows copied, and a zero row
        # added per padding leaf, compile peaked at 3.31 MB at (32, 63) and
        # 1.33 MB at (2, 4095), and verify at 0.78 MB at (32, 33).
        peak = TestMemory.peak
        bounds = ((32, 64, 3.0e6, 0.40e6), (2, 4096, 1.25e6, 0.384e6 + 64 * 1024))  # TestMemory's
        for d, n, compile_bound, verify_bound in bounds:
            (padded_compile, padded_verify), (full_compile, full_verify) = (
                (peak(partial(compile_tree, p)), peak(partial(verify, compile_tree(p))))
                for p in (random_rank_one_povm(k, d, np.random.default_rng([d, k])) for k in (n - 1, n)))
            assert padded_compile <= min(full_compile + 64 * 1024, compile_bound)
            assert padded_verify <= min(full_verify + 64 * 1024, verify_bound)
        tree = compile_tree(random_rank_one_povm(33, 32, np.random.default_rng([32, 33])))
        assert peak(partial(verify, tree)) <= 0.40e6

    @pytest.mark.parametrize("freedom", [False, True], ids=["default", "freedom"])
    def test_padding_leaves_are_zero_elements(self, freedom):
        # each held level is, byte for byte, the prefix of the tree compiled
        # from the POVM with explicit zero elements (and zero operators) in
        # the padding leaves' place: the zero rows that compile adds to a
        # gathered block are exactly the padding that the leaves define
        rng = np.random.default_rng(40)
        for d in range(1, 5):
            for k in (k for k in range(3, 41) if k & (k - 1)):
                n = 1 << (k - 1).bit_length()
                p = random_povm(k, d, rng, None if k >= d else [d] * k)
                partition = rng.permutation(k)
                f = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(k)]) if freedom else None
                zeros = np.zeros((n - k, d, d))
                padded = compile_tree(validate([*p.elements, *zeros]), None if f is None else [*f, *zeros],
                                      [*partition, *range(k, n)])
                for mine, theirs in zip(all_pairs(compile_tree(p, f, partition)), all_pairs(padded), strict=True):
                    assert mine.tobytes() == theirs[: len(mine)].tobytes()


class TestVerify:
    @pytest.mark.parametrize("d, n, built", [(2, 4096, 16), (32, 64, 32), (64, 256, 255)])
    def test_builds_the_pairs_of_its_walk_once(self, d, n, built, monkeypatch):
        # verify checks completeness on the pairs its walk builds, so it builds
        # each run's pairs once, as propagate does: it built 39 / 95 / 510 when
        # it built each block's pairs again for its check
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        calls, pairs = [], tree_module._pairs
        monkeypatch.setattr(tree_module, "_pairs", lambda *args: calls.append(None) or pairs(*args))
        verify(tree)
        during_verify = len(calls)
        propagate(tree, state)
        assert (during_verify, len(calls) - during_verify) == (built, built)

    def test_detects_injected_fault(self, tetrad_povm, tmp_path):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        # perturb one second-stage operator by 1e-3: b of node "10", measured at "1"
        level = tree.pairs(1).copy()
        level[1, 0, 0, 0] += 1e-3
        tampered = with_pairs(tree, 1, level)
        with pytest.raises(VerificationError) as err:
            verify(tampered)
        assert (err.value.what, err.value.path) == ("completeness", "1")  # the parent measuring it
        good = verify(tree)
        assert good.passed

        # the same fault in a tree file is caught on load
        path = tmp_path / "tampered.tree"
        treeio.save_tree(tree, path)
        header, order, (elements, root, kraus) = read_tree_file(path)
        kraus[1, 0, 0, 0] += 1e-3
        write_tree_file(path, header, order, [elements, root, kraus])
        with pytest.raises(VerificationError) as err:
            treeio.load_tree(path)
        assert err.value.path == "1"
        assert err.value.what == "completeness"

    def test_a_mixed_pair_fails_at_its_first_leaf(self):
        # a probe rotation mixes node '1''s pair into (c b0 + s b1, c b1 - s b0):
        # as complete as before, but every operator below it moves, and the
        # first leaf walked below it, '1000', no longer gives its element
        tree = compile_tree(random_povm(13, 4, np.random.default_rng(0), [1] * 13))
        c, s = np.cos(0.3), np.sin(0.3)
        level = tree.pairs(1).copy()
        b0, b1 = level[1].copy()
        level[1] = c * b0 + s * b1, c * b1 - s * b0
        assert completeness_residuals(level).max() <= linalg.TOL_CHECK
        with pytest.raises(VerificationError) as err:
            verify(with_pairs(tree, 1, level))
        assert (err.value.what, err.value.path) == ("leaf reconstruction", "1000")

    def test_rows_are_a_sequence(self):
        # 5 outcomes padded to 8: 7 internal nodes, breadth first, and 5 real leaves
        tree = compile_tree(random_rank_one_povm(5, 2, np.random.default_rng(3)),
                            partition=[4, 0, 3, 1, 2])
        report = verify(tree)
        rows, n = report.nodes, 7
        assert [c.path for c in rows] == ["", "0", "1", "00", "01", "10", "11"]
        # leaf i's residual is that of outcome order[i]; the padding leaves have none
        assert tree.order.tolist() == [4, 0, 3, 1, 2]
        assert len(report.leaf_columns["residual"]) == 5
        assert len(rows) == n
        listed = list(rows)
        assert listed == [rows[i] for i in range(n)]
        assert rows[-1] == listed[-1] and rows[-n] == listed[0]
        assert rows[1:3] == tuple(listed[1:3])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[i]
        assert [type(v) for v in vars(rows[0]).values()] == [str, float, int, bool]
        again = verify(tree)
        assert rows == again.nodes and report.max_residual == again.max_residual
        for mine, theirs in ((report.node_columns, again.node_columns),
                             (report.leaf_columns, again.leaf_columns)):
            assert mine.keys() == theirs.keys()
            assert all(np.array_equal(mine[name], theirs[name]) for name in mine)

    def test_completeness_judged_once_at_tol_check(self, tetrad_povm, tmp_path):
        # Scaling the root pair by 1 + eps makes b0^dag b0 + b1^dag b1 = (1 + eps)^2 I,
        # a completeness residual of about 2 eps sqrt(2) = 5e-10: inside TOL_CHECK,
        # though above TOL_UNITARY.  That residual is the [b0; b1] Gram block of
        # U^dag U - I, so the coupling's own check must not judge it a second time.
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        root = tree.levels[0] * (1 + 5e-10 / (2 * np.sqrt(2)))  # the root's blocks' real parameters
        root.setflags(write=False)
        scaled = replace(tree, levels=(root, tree.levels[1]))
        report = verify(scaled)
        assert report.nodes[0].completeness_residual == pytest.approx(5e-10, rel=0.05)
        assert report.passed
        u = scaled.dilation("")
        defect = u.conj().T @ u - np.eye(4)
        defect[:2, :2] = 0.0
        assert np.linalg.norm(defect) <= 1e-10
        path = tmp_path / "scaled.tree.json"
        treeio.save_tree(scaled, path)
        assert treeio.load_tree(path).levels[0].tobytes() == root.tobytes()

    def test_corrupted_completion_fails_where_it_is_built(self, tetrad_povm, monkeypatch):
        # The cross and completion blocks are judged at TOL_UNITARY by the
        # completion itself, so every build site raises, and verify, which
        # builds no coupling, still passes.
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        qr = np.linalg.qr

        def corrupted(a, mode="reduced"):
            q, r = qr(a, mode=mode)
            q[..., -1] *= 1 + 1e-8
            return q, r

        monkeypatch.setattr(np.linalg, "qr", corrupted)
        # a tree's coupling names its node; a pair's, the one block completed
        for build, index, path in ((lambda: tree.dilation(""), None, ""),
                                   *((partial(dilate_binary, pair), 0, None) for pair in tree.pairs(1))):
            with pytest.raises(VerificationError) as err:
                build()
            assert (err.value.what, err.value.index, err.value.path) == ("dilation unitarity", index, path)
            assert err.value.residual > linalg.TOL_UNITARY
        assert verify(tree).passed

        # a QR that moves the first block column is overwritten by the pair, bit for bit
        def nudged(a, mode="reduced"):
            q, r = qr(a, mode=mode)
            q[..., 0, 0] = np.nextafter(q[..., 0, 0].real, np.inf) + 1j * q[..., 0, 0].imag
            return q, r

        monkeypatch.setattr(np.linalg, "qr", nudged)
        u = np.stack([dilate_binary(pair) for pair in tree.pairs(1)])
        assert np.array_equal(u[:, :, :2], tree.pairs(1).reshape(2, 4, 2))

    def test_reports_rank_and_corrections(self, rng):
        p = random_rank_one_povm(4, 3, rng)
        report = verify(compile_tree(p))
        by_path = {c.path: c for c in report.nodes}
        assert by_path[""].parent_rank == 3
        assert by_path["0"].parent_rank == 2 and by_path["0"].uses_null_correction

    def test_summary_text(self, tetrad_povm):
        report = verify(compile_tree(tetrad_povm))
        text = report.summary()
        assert "PASS" in text and "completeness" in text


class TestMemory:
    @pytest.mark.parametrize("d, n", [(2, 4096), (32, 64)])
    def test_compiled_tree_holds_only_its_kraus_pairs(self, d, n):
        # The Kraus pairs take 16 * 2 * (N - 1) * d * d bytes; a compiled tree
        # may keep at most twice that, plus 256 KiB for the outcome order and
        # the Python objects.
        rng = np.random.default_rng([d, n])
        povm = random_rank_one_povm(n, d, rng)
        gc.collect()
        tracemalloc.start()
        try:
            tree = compile_tree(povm)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 2 * 16 * 2 * (n - 1) * d * d + 256 * 1024
        assert verify(tree).passed
        state = random_density(d, rng)
        probs = np.array([o.probability for o in propagate(tree, state)])
        assert np.max(np.abs(probs - direct_probabilities(tree.povm, state))) <= 1e-8

    @staticmethod
    def arrays_of(tree):
        return (tree.povm.elements.nbytes + sum(a.nbytes for a in tree.levels)
                + tree.order.nbytes)

    def test_compiled_tree_keeps_only_its_arrays(self):
        # its elements, Kraus pairs and order array, 832 KiB at (2, 4096); one
        # str per label and one int per leaf took 380 KiB more
        d, n = 2, 4096
        elements = np.array(random_rank_one_povm(n, d, np.random.default_rng([d, n])).elements)
        gc.collect()
        tracemalloc.start()
        try:
            tree = compile_tree(validate(elements))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= self.arrays_of(tree) + 64 * 1024

    def test_loaded_tree_keeps_only_its_arrays(self, tmp_path):
        # the same bound for a tree read from a file saved with default labels
        d, n = 2, 4096
        path = tmp_path / "wide.tree"
        treeio.save_tree(compile_tree(random_rank_one_povm(n, d, np.random.default_rng([d, n]))),
                         path)
        gc.collect()
        tracemalloc.start()
        try:
            tree = treeio.load_tree(path)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= self.arrays_of(tree) + 64 * 1024

    @pytest.mark.parametrize("source", ["compiled", "loaded"])
    def test_tree_keeps_its_elements_as_parameters(self, source, tmp_path):
        # d^2 float64 parameters per element, 8 N d^2 bytes, besides the
        # 32 d^2 (N - 1) bytes of Kraus pairs and the 8 N of the order: the
        # (N, d, d) complex elements took 8 N d^2 bytes more
        d, n = 32, 64
        elements = np.array(random_rank_one_povm(n, d, np.random.default_rng([d, n])).elements)
        path = tmp_path / "large.tree"
        treeio.save_tree(compile_tree(validate(elements)), path)
        make = {"compiled": lambda: compile_tree(validate(elements)),
                "loaded": lambda: treeio.load_tree(path)}[source]
        gc.collect()
        tracemalloc.start()
        try:
            tree = make()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tree.povm.params.nbytes == 8 * n * d * d
        # and the words of its levels, as a file stores them: 8 W bytes with the parameters
        assert kept <= 8 * stored_words(d, n) + 8 * n + 64 * 1024

    @pytest.mark.parametrize("d, n, held", [(16, 64, 520_192), (32, 32, 1_032_192), (32, 64, 2_080_768)])
    def test_a_tree_holds_the_words_its_file_stores(self, d, n, held, tmp_path):
        # store-large-d's rank-one trees, compiled and loaded: the elements'
        # parameters and each level's words, 8 W bytes.  Holding each level as
        # complex pairs took 647,168 / 1,277,952 / 2,588,672 bytes
        tree = compile_tree(random_rank_one_povm(n, d, np.random.default_rng([d, n])))
        treeio.save_tree(tree, tmp_path / "t.tree")
        for t in (tree, treeio.load_tree(tmp_path / "t.tree")):
            assert t.povm.params.nbytes + sum(a.nbytes for a in t.levels) == held == 8 * stored_words(d, n)

    def test_verify_peak(self):
        # verify walks the tree depth first, one block of cumulative
        # operators per level, and checks each block in parts of a quarter
        # budget, unpacking only a leaf part's elements, so at (32, 64)
        # its peak stays at or below 0.40 MB.
        d, n = 32, 64
        tree = compile_tree(random_rank_one_povm(n, d, np.random.default_rng([d, n])))
        gc.collect()
        tracemalloc.start()
        try:
            report = verify(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 0.40e6

    def test_verify_and_propagate_peaks_at_large_n(self, tmp_path):
        # verify holds one entry per node in each column and propagate one
        # probability per leaf, besides one block per level of the walk;
        # neither builds an object per node or leaf until a row is read.
        # At (2, 4096) each stays within 64 KiB of what it took when
        # measured: 0.384 MB for verify unpacking one part of a block's sums
        # at a time, 1.31 MB for load_tree when it held whole levels, and
        # 0.24 MB for propagate on the walk of verify.
        d, n = 2, 4096
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        path = tmp_path / "wide.tree"
        treeio.save_tree(tree, path)
        assert self.peak(lambda: verify(tree)) <= 0.384e6 + 64 * 1024
        assert self.peak(lambda: propagate(tree, state)) <= 0.24e6 + 64 * 1024
        assert self.peak(lambda: treeio.load_tree(path)) <= 1.31e6 + 64 * 1024

    @staticmethod
    def peak(fn):
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def large(self):
        d, n = 32, 64
        rng = np.random.default_rng([d, n])
        povm = random_rank_one_povm(n, d, rng)
        return povm, compile_tree(povm), random_density(d, rng)

    def test_validate_peak(self, large):
        # the checked 1 MB copy that the POVM keeps, plus blocks of 64 KiB
        elements = np.array(large[0].elements)
        assert self.peak(lambda: validate(elements)) <= 1.6e6

    def test_compile_peak(self, large):
        # the 2.1 MB of Kraus pairs returned, written in place, and at most
        # half a block of factors per level of the walk
        assert self.peak(lambda: compile_tree(large[0])) <= 3.0e6

    def test_dilation_builds_only_its_own_pair(self):
        # node "000000" at (16, 256) holds the first of a level's 64
        # triangular pairs: its coupling took 0.09 MB from its one pair, and
        # 0.61 MB when it built the level's pairs from its index on
        d, n = 16, 256
        tree = compile_tree(random_rank_one_povm(n, d, np.random.default_rng([d, n])))
        assert self.peak(lambda: tree.dilation("000000")) <= 0.15e6
        assert np.array_equal(tree.dilation("000000"), dilate_binary(tree.pairs(6)[0]))

    def test_compile_peak_at_large_n(self):
        # the 0.52 MB of Kraus pairs returned, half a block of factors per
        # level of the walk and one run's temporaries: no buffer sized by N
        povm = random_rank_one_povm(4096, 2, np.random.default_rng([2, 4096]))
        assert self.peak(lambda: compile_tree(povm)) <= 1.25e6

    def test_load_peak(self, large, tmp_path):
        # the 3.1 MB tree read from the file, plus the peak of verify
        path = tmp_path / "large.tree"
        treeio.save_tree(large[1], path)
        assert self.peak(lambda: treeio.load_tree(path)) <= 3.8e6

    def test_propagate_peak(self, large):
        # one block per level of the walk of the state's d eigenvectors, a
        # d x d matrix a node as the cumulative operators were: no leaf state
        # is formed.  It measured 0.28 MB when the walk carried the
        # operators, and 0.32 MB since.
        _, tree, state = large
        assert self.peak(lambda: propagate(tree, state)) <= 0.28e6 + 64 * 1024

    def test_propagate_peak_on_a_pure_state(self, large):
        # a pure state's walk carries its amplitudes, one column a node: no
        # eigh, no density and no d x d block but each level's pairs.  It
        # measured 0.14 MB, and 0.33 MB when the walk carried the operators.
        _, tree, _ = large
        d = tree.povm.dim
        state = QuantumState.pure(np.random.default_rng(d).standard_normal(d))
        assert self.peak(lambda: propagate(tree, state)) <= 0.14e6 + 64 * 1024

    @staticmethod
    def walk(tree, state):
        """The depth-first walk of the cumulative operators, to the leaf probabilities."""
        simulator._leaf_probabilities(tree, state)

    @pytest.mark.parametrize("d, n", [(2, 4096), (32, 64)])
    def test_level_pass_peak(self, d, n):
        # one block per level, of at most 64 KiB and of no more nodes than
        # the level has, plus 64 KiB for the state's eigenvectors and one
        # leaf block's norms: never a whole level.  It measured 0.24 MB at (2, 4096) and
        # 0.28 MB at (32, 64), both below the blocks alone.
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        step = linalg._BLOCK_BYTES // (16 * d * d)
        held = sum(min(1 << level, step) for level in range(tree.depth + 1))
        assert self.peak(lambda: self.walk(tree, state)) <= 16 * d * d * held + 64 * 1024

    @pytest.mark.parametrize("d, n", [(2, 4096), (32, 64)])
    def test_no_cyclic_garbage(self, d, n, tmp_path):
        # Each call frees what it made by reference counting alone: a
        # function that refers to itself through a closure cell would keep
        # its frames' arrays until the cyclic collector ran.
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        path = tmp_path / "tree.json"
        treeio.save_tree(tree, path)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            compile_tree(tree.povm)
            propagate(tree, state)
            sample(tree, state, 10_000, seed=1)
            verify(tree)
            treeio.load_tree(path)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("d, n", [(2, 4096), (4, 1024)])
    def test_sample_memory_does_not_grow_with_shots(self, d, n):
        # The sampler draws one binomial per node whatever the shots, so 1e6
        # shots may take at most 256 KiB more than 1e4 shots; at (2, 4096)
        # the whole call stays within 0.75 MB, as it drops the leaf stack
        # once it has the leaf probabilities.
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        peaks = {}
        gc.collect()
        tracemalloc.start()
        try:
            for shots in (10_000, 1_000_000):
                tracemalloc.reset_peak()
                sample(tree, state, shots, seed=1)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[1_000_000] <= peaks[10_000] + 256 * 1024
        if (d, n) == (2, 4096):
            assert peaks[1_000_000] <= 0.75e6

    def test_sample_peak_is_the_level_pass(self):
        # sample keeps the leaf probabilities of the walk, their pairwise
        # sums and nothing of its states, so it stays within 64 KiB of the
        # walk (it measured the walk's own peak).
        d, n = 32, 64
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for run in (lambda: self.walk(tree, state),
                        lambda: sample(tree, state, 10_000, seed=1)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024


class TestBlockInvariance:
    """Every stage gives the same bits when each block holds a single matrix, or a whole stack."""

    @staticmethod
    def pipeline(elements, tmp_path, unitaries=None, partition=None):
        povm = validate(elements)
        factorization = None
        if unitaries is not None:
            factorization = apply_freedom(default_kraus(povm), unitaries)
        tree = compile_tree(povm, factorization=factorization, partition=partition)
        report = verify(tree)
        state = random_density(povm.dim, np.random.default_rng(7))
        outcomes = propagate(tree, state)
        path = tmp_path / f"{linalg._BLOCK_BYTES}.tree"
        treeio.save_tree(tree, path)
        loaded = treeio.load_tree(path)
        return {
            "povm": povm.elements,
            "kraus": all_pairs(tree),
            "report": (report.passed, *report.node_columns.values(),
                       *report.leaf_columns.values(), report.max_residual),
            "probabilities": [o.probability for o in outcomes],
            "post_states": [None if o.post_state is None else o.post_state.density
                            for o in outcomes],
            "counts": sample(tree, state, 20_000, seed=3).counts,
            "loaded": (loaded.povm.elements, *all_pairs(loaded)),
            "isometry": full_neumark(povm).isometry,
        }

    @staticmethod
    def same(a, b):
        if isinstance(a, np.ndarray):
            return isinstance(b, np.ndarray) and a.shape == b.shape and bool((a == b).all())
        if isinstance(a, (tuple, list)):
            return len(a) == len(b) and all(map(TestBlockInvariance.same, a, b))
        return a == b

    @pytest.mark.parametrize("d, n, freedom", [(32, 64, False), (2, 4096, False), (3, 13, True)])
    def test_one_matrix_per_block(self, d, n, freedom, tmp_path, monkeypatch):
        rng = np.random.default_rng([d, n])
        if freedom:  # padded to 16, permuted, random ranks and Kraus freedom
            elements = random_povm(n, d, rng).elements
            unitaries = [random_unitary(d, rng) for _ in range(n)]
            partition = rng.permutation(n).tolist()
        else:
            elements, unitaries, partition = random_rank_one_povm(n, d, rng).elements, None, None
        default = self.pipeline(elements, tmp_path, unitaries, partition)
        assert default["report"][0]
        # one matrix a block, then one block a stack: the kernels take what they are handed
        for budget, cut in [(1, [slice(0, 1), slice(1, 2), slice(2, 3)]), (1 << 40, [slice(0, 3)])]:
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", budget)
            assert list(linalg.blocks(3, d)) == cut
            single = self.pipeline(elements, tmp_path, unitaries, partition)
            for key in default:
                assert self.same(default[key], single[key]), (budget, key)
