import json
from dataclasses import replace

import numpy as np
import pytest

from povmtree import (
    CompletenessViolationError,
    InconsistentChildrenError,
    KrausPair,
    SplitCoefficients,
    TreeVerificationError,
    apply_freedom,
    compile_tree,
    default_kraus,
    io as treeio,
    null_space_isometry,
    pseudo_inverse,
    psd_sqrt,
    random_povm,
    random_rank_one_povm,
    random_unitary,
    split_node,
    tetrad,
    validate,
    verify,
)

from conftest import frob


class TestSplitCoefficients:
    def test_default_normalized(self):
        c = SplitCoefficients()
        assert abs(abs(c.a0) ** 2 + abs(c.a1) ** 2 - 1) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SplitCoefficients(1.0, 1.0)


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
        pair = split_node((f.kraus[0], f.kraus[1]), np.eye(2))
        assert np.allclose(pair.b0, f.kraus[0], atol=1e-14)
        assert np.allclose(pair.b1, f.kraus[1], atol=1e-14)

    def test_rank_deficient_parent_oracle(self):
        # hand-derived: parent diag(1,0) split into equal halves diag(1/2,0)
        parent = np.diag([1.0, 0.0]).astype(complex)
        child = np.diag([1 / np.sqrt(2), 0.0]).astype(complex)
        coeffs = SplitCoefficients(0.6, 0.8)
        pair = split_node((child, child), parent, coeffs)
        assert np.allclose(pair.b0, np.diag([1 / np.sqrt(2), 0.6]), atol=1e-12)
        assert np.allclose(pair.b1, np.diag([1 / np.sqrt(2), 0.8]), atol=1e-12)
        assert pair.completeness_residual() <= 1e-12

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
        with pytest.raises(InconsistentChildrenError):
            split_node((np.eye(2), np.eye(2)), np.eye(2))

    def test_factorization_postcondition(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        m01 = psd_sqrt(p.elements[0] + p.elements[1])
        pair = split_node((default_kraus(p).kraus[0], default_kraus(p).kraus[1]), m01)
        assert frob(pair.b0 @ m01 - default_kraus(p).kraus[0]) <= 1e-9
        assert frob(pair.b1 @ m01 - default_kraus(p).kraus[1]) <= 1e-9


class TestTetradTree:
    @pytest.fixture
    def tree(self, tetrad_povm):
        return compile_tree(tetrad_povm, partition=[0, 3, 1, 2])

    def test_depth_and_layout(self, tree):
        assert tree.depth == 2
        assert tree.root.outcome_set == (0, 3, 1, 2)
        assert [leaf.outcome for leaf in tree.leaves()] == [0, 3, 1, 2]

    def test_leaves_reconstruct_elements(self, tree, tetrad_povm):
        for j in range(4):
            leaf = tree.leaf_for_outcome(j)
            assert frob(leaf.cumulative_operator - tetrad_povm.elements[j]) <= 1e-9

    def test_second_stage_is_projective(self, tree):
        # the four second-stage operators are rank-one projectors
        for j in range(4):
            b = tree.leaf_for_outcome(j).node_kraus
            op = b.conj().T @ b
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-9)
            assert frob(op @ op - op) <= 1e-9

    def test_printed_second_stage_operator(self, tree):
        b1 = tree.leaf_for_outcome(1).node_kraus
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert frob(b1.conj().T @ b1 - expected) <= 1e-9

    def test_stage_closures(self, tree):
        for node in tree.internal_nodes():
            assert node.kraus_pair.completeness_residual() <= 1e-9

    def test_verify_passes(self, tree):
        report = verify(tree)
        assert report.passed
        assert report.max_residual <= 1e-9


class TestCompile:
    def test_projective_depth_one(self):
        p = validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        tree = compile_tree(p)
        assert tree.depth == 1
        pair = tree.root.kraus_pair
        assert np.allclose(pair.b0, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(pair.b1, np.diag([0.0, 1.0]), atol=1e-12)

    def test_single_outcome_degenerate(self):
        tree = compile_tree(validate([np.eye(2)]))
        assert tree.depth == 0 and tree.root.is_leaf

    def test_random_octet_qutrit(self, rng):
        p = random_rank_one_povm(8, 3, rng)
        tree = compile_tree(p)
        assert tree.depth == 3
        for leaf in tree.leaves():
            assert frob(leaf.cumulative_operator - p.elements[leaf.outcome]) <= 1e-8
        report = verify(tree)
        assert report.passed
        # pairs of rank-one elements have rank 2 < 3: corrections must appear
        assert any(c.uses_null_correction for c in report.nodes)

    def test_padded_three_outcomes(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p)
        assert tree.povm.n_outcomes == 4
        report = verify(tree)
        assert report.passed
        pad_leaf = tree.leaf_for_outcome(3)
        assert frob(pad_leaf.cumulative_operator) <= 1e-9
        assert tree.povm.is_padding(3)

    def test_partition_invariance(self, rng):
        p = random_rank_one_povm(8, 2, rng)
        base = compile_tree(p)
        perm = list(rng.permutation(8))
        permuted = compile_tree(p, partition=perm)
        for j in range(8):
            a = base.leaf_for_outcome(j).cumulative_operator
            b = permuted.leaf_for_outcome(j).cumulative_operator
            assert frob(a - b) <= 1e-9

    def test_partition_validation(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        with pytest.raises(ValueError):
            compile_tree(p, partition=[0, 1, 2])
        with pytest.raises(ValueError):
            compile_tree(p, partition=[0, 0, 1, 2])

    def test_partition_over_unpadded_outcomes(self, rng):
        p = random_rank_one_povm(3, 2, rng)
        tree = compile_tree(p, partition=[2, 0, 1])
        assert tree.root.outcome_set == (2, 0, 1, 3)

    def test_factorization_length_check(self, rng):
        p = random_rank_one_povm(4, 2, rng)
        f = default_kraus(random_rank_one_povm(3, 2, rng))
        with pytest.raises(ValueError):
            compile_tree(p, f)

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
            for node in tree.internal_nodes():
                parent = node.cumulative_kraus
                g = null_space_isometry(parent)
                if not g.any():
                    continue
                pinv = pseudo_inverse(parent)
                for child in node.children:
                    m = child.cumulative_kraus
                    assert frob((m @ pinv).conj().T @ g) <= 1e-10


class TestVerify:
    def test_detects_injected_fault(self, tetrad_povm, tmp_path):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        # perturb one second-stage operator by 1e-3: b of node "10", measured at "1"
        node = tree.root.children[1]
        b0 = node.kraus_pair.b0.copy()
        b0[0, 0] += 1e-3
        leaf = replace(node.children[0], node_kraus=b0)
        node = replace(
            node,
            kraus_pair=KrausPair(b0=b0, b1=node.kraus_pair.b1),
            children=(leaf, node.children[1]),
        )
        root = replace(tree.root, children=(tree.root.children[0], node))
        tampered = replace(tree, root=root)
        report = verify(tampered)
        assert not report.passed
        bad_nodes = {c.path for c in report.nodes if not c.ok}
        assert bad_nodes == {"1"}  # the parent measuring that operator
        good = verify(tree)
        assert good.passed

        # the same fault in a tree file is caught on load
        data = treeio.tree_to_dict(tree)
        kraus = treeio.decode_array(data["kraus"][1], (2, 2, 2, 2), "kraus[1]").copy()
        kraus[1, 0, 0, 0] += 1e-3
        data["kraus"][1] = treeio.encode_array(kraus)
        path = tmp_path / "tampered.tree.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TreeVerificationError) as err:
            treeio.load_tree(path)
        assert err.value.path == "1"

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
