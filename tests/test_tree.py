import gc
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from povmtree import (
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
from povmtree import linalg, simulator, tree as tree_module
from povmtree.dilation import completeness_residuals, dilate_binary

from conftest import frob, read_tree_file, write_tree_file


def second_stage(tree):
    """Outcome -> the Kraus operator applied at the last level to reach its leaf."""
    # leaf i is outcome order[i], reached by b_(i % 2) of the pair at node i // 2
    return {j: tree.kraus[-1][i // 2, i % 2] for i, j in enumerate(tree.order)}


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
        assert [level.shape for level in tree.kraus] == [(1, 2, 2, 2), (2, 2, 2, 2)]
        assert all(not level.flags.writeable for level in tree.kraus)

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
        for pairs in tree.kraus:
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
        b0, b1 = tree.kraus[0][0]
        assert np.allclose(b0, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(b1, np.diag([0.0, 1.0]), atol=1e-12)

    def test_single_outcome_degenerate(self):
        tree = compile_tree(validate([np.eye(2)]))
        assert tree.depth == 0 and tree.kraus == () and tree.order == (0,)
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
        assert all(np.array_equal(a, b) for a, b in zip(tree.kraus, same.kraus))

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
            # a list is stacked; identities do not factor the tetrad's elements
            "list of identities": ([np.eye(2)] * 4, VerificationError, "children sum", "0"),
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
        listed = compile_tree(p, list(kraus)).kraus
        assert all(a.tobytes() == b.tobytes() for a, b in zip(listed, compile_tree(p, kraus).kraus))

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
        # cross term (m @ pinv(parent))^dag g vanishes at every compiled node
        for _ in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 13))
            p = random_rank_one_povm(n, d, rng)
            tree = compile_tree(p)
            for level in range(tree.depth):
                parents = tree.cumulative_kraus(level)
                children = tree.cumulative_kraus(level + 1)
                for i, parent in enumerate(parents):
                    g = null_space_isometry(parent)
                    if not g.any():
                        continue
                    pinv = pseudo_inverse(parent)
                    for m in children[2 * i : 2 * i + 2]:
                        assert frob((m @ pinv).conj().T @ g) <= 1e-10


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
        try:
            tree = compile_tree(p)
        except VerificationError:
            return  # the construction's own completeness post-check, not input validation
        assert verify(tree).passed
        state = random_density(p.dim, rng)
        deviation = propagate(tree, state).probabilities[: p.n_outcomes] - direct_probabilities(p, state)
        assert np.abs(deviation).max() <= 1e-8

    def test_eigenvalue_just_below_zero(self):
        # once accepted by validate and then rejected as not positive by default_kraus
        p = validate([np.diag([0.1, -5e-10]), np.diag([0.9, 1 + 5e-10])])
        assert np.array_equal(default_kraus(p)[0], np.diag([np.sqrt(0.1), 0.0]))
        assert verify(compile_tree(p)).passed


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


# The near-cutoff seeds whose compile raises VerificationError(completeness) at
# eps = 1e-9: the open defect of ROADMAP item 1, which no seed may join.
NEAR_CUTOFF_FAILURES = {4, 6, 20, 21, 24, 28, 39, 40, 42, 44, 47}


class TestFromPartialSums:
    """Compile builds each pair from the partial sums: b_c = R_c R_x^+, plus g if R_x is singular."""

    @staticmethod
    def check_construction(tree):
        """Every internal node against R_c R_x^+, as one eigh per partial sum gives it."""
        d, k, n = tree.povm.dim, tree.povm.n_outcomes, 1 << tree.depth
        corrected = verify(tree).node_columns["uses_null_correction"]
        params, order = tree_module._leaf_params(tree.povm, n), np.concatenate([tree.order, np.arange(k, n)])

        def sums(span):
            return linalg.hermitian_from_parameters(tree_module._ordered_sums(params, order, 0, n, span))

        for level, pairs in enumerate(tree.kraus):
            k, row = len(pairs), (1 << level) - 1  # the level's real prefix, from its first row
            # each held node's operator m^dag m is the sum of the elements below it
            below = tree.cumulative_operators(level)[:k] - sums(n >> level)[:k]
            assert np.linalg.norm(below, axis=(-2, -1)).max() <= linalg.TOL_CHECK
            v, w = np.eye(d, dtype=complex)[None], np.ones((1, d))  # the root's sum is I
            if level:
                v, w = np.empty((k, d, d), dtype=complex), np.empty((k, d))
                linalg.psd_sqrt_stack(sums(n >> level)[:k], (v, w))
            root, pinv, _ = linalg.psd_parts(v, w)
            targets = linalg.psd_sqrt_stack(sums(n >> (level + 1))[: 2 * k])
            correction = np.sqrt(2) * (pairs - targets.reshape(k, 2, d, d) @ pinv[:, None])
            deficient = (w <= 0).any(axis=1)
            assert np.array_equal(corrected[row : row + k], deficient)
            assert corrected[row + k : 2 * row + 1].all()  # all-padding nodes report rank 0
            for i in range(k):
                if not deficient[i]:
                    assert not correction[i].any()
                    continue
                for g in correction[i]:  # the same kernel projector for both children
                    assert frob(g - g.conj().T) <= linalg.TOL_CHECK
                    assert frob(g @ g - g) <= linalg.TOL_CHECK
                    assert frob(g @ root[i]) <= linalg.TOL_CHECK
        return int(corrected.sum())

    def test_acceptance_suite(self):
        from test_acceptance import _random_suite

        corrected = sum(self.check_construction(tree) for _, tree in _random_suite())
        assert corrected > 0

    @pytest.mark.parametrize("n, d", [(5, 2), (9, 3), (13, 4), (17, 2)])
    def test_padded_with_all_padding_subtrees(self, n, d):
        rng = np.random.default_rng([n, d])
        tree = compile_tree(random_povm(n, d, rng, [1] * n))
        assert self.check_construction(tree) > 0

    def test_near_cutoff_probe(self):
        failed = set()
        for seed in range(60):
            try:
                tree = compile_tree(validate(near_cutoff_povm_elements(seed, 1e-9)))
            except VerificationError as err:
                assert err.what == "completeness"
                failed.add(seed)
                continue
            self.check_construction(tree)
        assert failed <= NEAR_CUTOFF_FAILURES


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

    def test_freedom_on_deficient_parents_takes_the_polar_path(self, monkeypatch):
        # the one SVD left in compile: the polar factor of supplied Kraus
        # operators below a rank-deficient parent
        rng = np.random.default_rng(4)
        p = random_rank_one_povm(4, 3, rng)
        f = apply_freedom(default_kraus(p), [random_unitary(3, rng) for _ in range(4)])
        assert verify(compile_tree(p, f)).passed

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(AssertionError, match="svd called"):
            compile_tree(p, f)
        assert verify(compile_tree(p)).passed


class TestPadding:
    """A node whose leaves are all padding costs no decomposition and is not held."""

    @staticmethod
    def decompositions(monkeypatch, build, name="eigh"):
        """How many matrices ``build()`` hands to ``np.linalg.<name>``, and how many of them are zero."""
        counts = [0, 0]
        decompose = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            counts[0] += len(a.reshape(-1, *a.shape[-2:]))
            counts[1] += int((~a.reshape(-1, a.shape[-1] ** 2).any(axis=1)).sum())
            return decompose(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        build()
        return counts

    def test_one_outcome_past_a_power_of_two(self, monkeypatch):
        # decomposing every sum, padding's too, took 4,094 matrices at (2, 1025), 2,036 of them zero
        trees = {n: random_rank_one_povm(n, 2, np.random.default_rng([2, n])) for n in (1024, 1025)}
        full, _ = self.decompositions(monkeypatch, lambda: compile_tree(trees[1024]))
        padded, zero = self.decompositions(monkeypatch, lambda: compile_tree(trees[1025]))
        assert (full, padded, zero) == (2046, 2058, 0)
        assert padded <= 1.02 * full

    def test_no_walk_enters_an_all_padding_subtree(self, monkeypatch):
        # Padding is the tail of the leaf order, so the walk yields the real
        # prefix of each level and nothing else: at (2, 1025) a root and,
        # below it, one node more a level than (2, 1024) has.  Walking every
        # node formed 4,095, and with each level's boundary child 2,069.
        trees = {n: compile_tree(random_rank_one_povm(n, 2, np.random.default_rng([2, n])))
                 for n in (1024, 1025)}
        formed = {n: sum(len(block) for _, _, block in tree._operators(tree.depth))
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
        # leaf, as a tree file stores them; an all-padding node's pair, the
        # constant one, is derived by dilation and counted by verify's report
        rng = np.random.default_rng([n, d])
        p = random_povm(n, d, rng)
        factorization = None
        if freedom:
            factorization = apply_freedom(default_kraus(p), [random_unitary(d, rng) for _ in range(n)])
        compiled = compile_tree(p, factorization)
        treeio.save_tree(compiled, tmp_path / "t.tree")
        pad = tree_module.padding_pair(d)
        coupling, residual = dilate_binary(pad).tobytes(), completeness_residuals(pad[None])[0]
        for tree in (compiled, treeio.load_tree(tmp_path / "t.tree")):
            real = tree_module.real_counts(tree.depth, n)
            assert [len(k) for k in tree.kraus] == real[:-1]
            columns = verify(tree).node_columns
            assert columns.keys() == {"completeness_residual", "parent_rank", "uses_null_correction"}
            for level, k in enumerate(real[:-1]):
                rows = slice((1 << level) - 1 + k, (2 << level) - 1)
                assert (columns["completeness_residual"][rows] == residual).all()
                assert not columns["parent_rank"][rows].any()
                for i in range(k, 1 << level):
                    assert tree.dilation(tree_module.node_path(level, i)).tobytes() == coupling
            # the old layout, each level whole with the constant pair as its tail, is refused
            whole = tuple(np.concatenate([pairs, np.broadcast_to(pad, ((1 << level) - len(pairs), 2, d, d))])
                          for level, pairs in enumerate(tree.kraus))
            with pytest.raises(ValidationError) as err:
                replace(tree, kraus=whole)
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
        (lambda t: {"kraus": t.kraus[:-1]}, "shape"),
        (lambda t: {"kraus": (*t.kraus, t.kraus[-1])}, "shape"),
        (lambda t: {"kraus": (np.zeros((1, 2, 3, 3)), *t.kraus[1:])}, "shape"),
        (lambda t: {"kraus": (t.kraus[0], t.kraus[2], t.kraus[1])}, "shape"),
        (lambda t: {"kraus": tuple(level.tolist() for level in t.kraus)}, "shape"),
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

    def test_padding_operators_of_a_factorization_must_be_zero(self, rng):
        # the padding leaves take no operator: a factorization holds one per
        # outcome, and one with the padding's operators, zero or not, is refused
        p = random_povm(5, 2, rng)
        f = default_kraus(p)
        tree = compile_tree(p, f)
        assert all(np.array_equal(a, b) for a, b in zip(tree.kraus, compile_tree(p).kraus))
        padded = np.concatenate([f, np.zeros((3, 2, 2))])
        for operators in (padded, np.concatenate([f, 1e-3 * np.eye(2)[None], np.zeros((2, 2, 2))])):
            with pytest.raises(ValidationError) as err:
                compile_tree(p, operators)
            assert err.value.what == "shape"


class TestVerify:
    def test_detects_injected_fault(self, tetrad_povm, tmp_path):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        # perturb one second-stage operator by 1e-3: b of node "10", measured at "1"
        level = tree.kraus[1].copy()
        level[1, 0, 0, 0] += 1e-3
        tampered = replace(tree, kraus=(tree.kraus[0], level))
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
        level = tree.kraus[1].copy()
        b0, b1 = level[1].copy()
        level[1] = c * b0 + s * b1, c * b1 - s * b0
        assert completeness_residuals(level).max() <= linalg.TOL_CHECK
        with pytest.raises(VerificationError) as err:
            verify(replace(tree, kraus=(tree.kraus[0], level, *tree.kraus[2:])))
        assert (err.value.what, err.value.path) == ("leaf reconstruction", "1000")

    def test_only_compile_adds_partial_sums(self, monkeypatch, tmp_path):
        # verify reads the root's sum and each leaf's element, never a sum below the root
        tree = compile_tree(random_povm(13, 4, np.random.default_rng(0), [1] * 13))
        treeio.save_tree(tree, tmp_path / "t.tree")

        def refuse(*args, **kwargs):
            raise AssertionError("_ordered_sums called")

        monkeypatch.setattr(tree_module, "_ordered_sums", refuse)
        assert verify(tree).passed
        assert verify(treeio.load_tree(tmp_path / "t.tree")).passed
        with pytest.raises(AssertionError, match="_ordered_sums called"):
            compile_tree(tree.povm)

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
        root = tree.kraus[0] * (1 + 5e-10 / (2 * np.sqrt(2)))
        root.setflags(write=False)
        scaled = replace(tree, kraus=(root, tree.kraus[1]))
        report = verify(scaled)
        assert report.nodes[0].completeness_residual == pytest.approx(5e-10, rel=0.05)
        assert report.passed
        u = scaled.dilation("")
        defect = u.conj().T @ u - np.eye(4)
        defect[:2, :2] = 0.0
        assert np.linalg.norm(defect) <= 1e-10
        path = tmp_path / "scaled.tree.json"
        treeio.save_tree(scaled, path)
        assert treeio.load_tree(path).kraus[0].tobytes() == root.tobytes()

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
                                   *((partial(dilate_binary, pair), 0, None) for pair in tree.kraus[1])):
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
        u = np.stack([dilate_binary(pair) for pair in tree.kraus[1]])
        assert np.array_equal(u[:, :, :2], tree.kraus[1].reshape(2, 4, 2))

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
        return (tree.povm.elements.nbytes + sum(a.nbytes for a in tree.kraus)
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
        assert kept <= 8 * n * d * d + 32 * d * d * (n - 1) + 8 * n + 64 * 1024

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
        # the 2.1 MB of Kraus pairs returned, written in place, and one
        # block of decompositions per level of the walk
        assert self.peak(lambda: compile_tree(large[0])) <= 3.0e6

    def test_compile_peak_at_large_n(self):
        # the 0.52 MB of Kraus pairs returned, one block of decompositions
        # per level of the walk and one run's temporaries: no buffer sized by N
        povm = random_rank_one_povm(4096, 2, np.random.default_rng([2, 4096]))
        assert self.peak(lambda: compile_tree(povm)) <= 1.25e6

    def test_load_peak(self, large, tmp_path):
        # the 3.1 MB tree read from the file, plus the peak of verify
        path = tmp_path / "large.tree"
        treeio.save_tree(large[1], path)
        assert self.peak(lambda: treeio.load_tree(path)) <= 3.8e6

    def test_propagate_peak(self, large):
        # one block of cumulative operators per level of the walk and one
        # leaf block's product with the state: no leaf state is formed.
        # It measured 0.28 MB.
        _, tree, state = large
        assert self.peak(lambda: propagate(tree, state)) <= 0.28e6 + 64 * 1024

    @staticmethod
    def walk(tree, state):
        """The depth-first walk of the cumulative operators, to the leaf probabilities."""
        simulator._leaf_probabilities(tree, state)

    @pytest.mark.parametrize("d, n", [(2, 4096), (32, 64)])
    def test_level_pass_peak(self, d, n):
        # one block per level, of at most 64 KiB and of no more nodes than
        # the level has, plus 64 KiB for one leaf block's product with the
        # state: never a whole level.  It measured 0.24 MB at (2, 4096) and
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
    """Every stage gives the same bits when each block holds a single matrix."""

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
            "kraus": tree.kraus,
            "report": (report.passed, *report.node_columns.values(),
                       *report.leaf_columns.values(), report.max_residual),
            "probabilities": [o.probability for o in outcomes],
            "post_states": [None if o.post_state is None else o.post_state.density
                            for o in outcomes],
            "counts": sample(tree, state, 20_000, seed=3).counts,
            "loaded": (loaded.povm.elements, *loaded.kraus),
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
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1)
        assert list(linalg.blocks(3, d)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        single = self.pipeline(elements, tmp_path, unitaries, partition)
        assert default["report"][0]
        for key in default:
            assert self.same(default[key], single[key]), key
