import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from povmtree import (
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
from povmtree.dilation import completeness_residuals

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
        assert tree.order == (0, 3, 1, 2)
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
        assert tree.povm.n_outcomes == 4
        report = verify(tree)
        assert report.passed
        pad_leaf = tree.cumulative_operators(2)[tree.order.index(3)]
        assert frob(pad_leaf) <= 1e-9
        assert tree.povm.is_padding(3)

    def test_partition_invariance(self, rng):
        p = random_rank_one_povm(8, 2, rng)
        base = compile_tree(p)
        perm = list(rng.permutation(8))
        permuted = compile_tree(p, partition=perm)
        leaves_a, leaves_b = base.cumulative_operators(3), permuted.cumulative_operators(3)
        for j in range(8):
            a = leaves_a[base.order.index(j)]
            b = leaves_b[permuted.order.index(j)]
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
        assert tree.order == (2, 0, 1, 3)

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


class TestVerify:
    def test_detects_injected_fault(self, tetrad_povm, tmp_path):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        # perturb one second-stage operator by 1e-3: b of node "10", measured at "1"
        level = tree.kraus[1].copy()
        level[1, 0, 0, 0] += 1e-3
        tampered = replace(tree, kraus=(tree.kraus[0], level))
        report = verify(tampered)
        assert not report.passed
        bad_nodes = {c.path for c in report.nodes if not c.ok}
        assert bad_nodes == {"1"}  # the parent measuring that operator
        good = verify(tree)
        assert good.passed

        # the same fault in a tree file is caught on load
        path = tmp_path / "tampered.tree"
        treeio.save_tree(tree, path)
        header, (elements, root, kraus) = read_tree_file(path)
        kraus[1, 0, 0, 0] += 1e-3
        write_tree_file(path, header, [elements, root, kraus])
        with pytest.raises(VerificationError) as err:
            treeio.load_tree(path)
        assert err.value.path == "1"
        assert err.value.what == "completeness"

    def test_rows_are_a_sequence(self):
        # 5 outcomes padded to 8: 7 internal nodes, breadth first, and 8 leaves
        tree = compile_tree(random_rank_one_povm(5, 2, np.random.default_rng(3)),
                            partition=[4, 0, 3, 1, 2])
        report = verify(tree)
        assert [c.path for c in report.nodes] == ["", "0", "1", "00", "01", "10", "11"]
        assert [c.outcome_index for c in report.leaves] == [4, 0, 3, 1, 2, 5, 6, 7]
        assert [c.is_padding for c in report.leaves] == [False] * 5 + [True] * 3
        for rows, n in ((report.nodes, 7), (report.leaves, 8)):
            assert len(rows) == n
            listed = list(rows)
            assert listed == [rows[i] for i in range(n)]
            assert rows[-1] == listed[-1] and rows[-n] == listed[0]
            assert rows[1:3] == tuple(listed[1:3])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    rows[i]
        node, leaf = report.nodes[0], report.leaves[0]
        assert [type(v) for v in vars(node).values()] == [str, float, float, float, float,
                                                         bool, int, bool, bool]
        assert [type(v) for v in vars(leaf).values()] == [int, str, float, bool, bool]
        assert report == verify(tree)

    def test_failing_rows_in_summary(self, tetrad_povm):
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        level = tree.kraus[1].copy()
        level[1, 0, 0, 0] += 1e-3
        report = verify(replace(tree, kraus=(tree.kraus[0], level)))
        assert report != verify(tree)
        assert report.summary().endswith("  failing: ['1', 'leaf:1']")

    def test_completeness_judged_once_at_tol_check(self, tetrad_povm, tmp_path, monkeypatch):
        # Scaling the root pair by 1 + eps makes b0^dag b0 + b1^dag b1 = (1 + eps)^2 I,
        # a completeness residual of about 2 eps sqrt(2) = 5e-10: inside tol_check,
        # though above tol_unitary.  That residual is the [b0; b1] Gram block of
        # U^dag U - I, so the dilation check must not judge it a second time.
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        root = tree.kraus[0] * (1 + 5e-10 / (2 * np.sqrt(2)))
        root.setflags(write=False)
        scaled = replace(tree, kraus=(root, tree.kraus[1]))
        report = verify(scaled)
        assert report.nodes[0].completeness_residual == pytest.approx(5e-10, rel=0.05)
        assert report.nodes[0].dilation_unitarity <= 1e-10
        assert report.passed
        path = tmp_path / "scaled.tree.json"
        treeio.save_tree(scaled, path)
        assert treeio.load_tree(path).kraus[0].tobytes() == root.tobytes()

        # the cross and completion blocks are still judged at tol_unitary
        build = tree_module.dilate_level

        def corrupted(pairs, tol):
            u = build(pairs, tol)
            u[:, :, -1] *= 1 + 1e-8
            return u

        monkeypatch.setattr(tree_module, "dilate_level", corrupted)
        report = verify(tree)
        assert not report.passed
        assert all(not c.ok and c.dilation_unitarity > 1e-10 for c in report.nodes)

    def test_inexact_blocks_alone_fail_a_node(self, tetrad_povm, monkeypatch):
        # Moving entry [0, 0, 0] of each built stack by one ulp breaks the exact
        # embedding of the first pair of each level's block, and nothing else.
        tree = compile_tree(tetrad_povm, partition=[0, 3, 1, 2])
        build = tree_module.dilate_level

        def nudged(pairs, tol):
            u = build(pairs, tol)
            u[0, 0, 0] = complex(np.nextafter(u[0, 0, 0].real, np.inf), u[0, 0, 0].imag)
            return u

        monkeypatch.setattr(tree_module, "dilate_level", nudged)
        report = verify(tree)
        failing = {c.path: c for c in report.nodes if not c.ok}
        assert set(failing) == {"", "0"} and not report.passed
        for c in failing.values():
            assert not c.blocks_exact
            assert c.dilation_unitarity <= tree.tolerances.tol_unitary

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

    def test_verify_peak(self):
        # verify walks each level in blocks of at most 64 KiB of dilations
        # and checks the leaves per block of the last level, so at (32, 64)
        # its peak stays at or below 1.5 MB.
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
        assert peak <= 1.5e6

    def test_verify_and_propagate_peaks_at_large_n(self):
        # verify holds one entry per node in each column and propagate one leaf
        # stack; neither builds an object per node or leaf until a row is
        # read, so at (2, 4096) each stays within 1 MB.
        d, n = 2, 4096
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        assert self.peak(lambda: verify(tree)) <= 1.0e6
        assert self.peak(lambda: propagate(tree, state)) <= 1.0e6

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
        # the 2.1 MB of Kraus pairs returned, two levels of cumulative
        # operators and one block of targets at a time
        assert self.peak(lambda: compile_tree(large[0])) <= 4.0e6

    def test_load_peak(self, large, tmp_path):
        # the 3.1 MB tree read from the file, plus the peak of verify
        path = tmp_path / "large.tree"
        treeio.save_tree(large[1], path)
        assert self.peak(lambda: treeio.load_tree(path)) <= 4.6e6

    def test_propagate_peak(self, large):
        # one leaf stack, symmetrised and normalised in place, and the level above it
        _, tree, state = large
        assert self.peak(lambda: propagate(tree, state)) <= 2.0e6

    @pytest.mark.parametrize("d, n", [(2, 4096), (4, 1024)])
    def test_sample_memory_does_not_grow_with_shots(self, d, n):
        # The sampler holds one block of rows at a time, so 1e6 shots may
        # take at most 256 KiB more than 1e4 shots; at (2, 4096) the whole
        # call stays within 2 MiB.
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
            assert peaks[1_000_000] <= 2 * 1024 * 1024

    def test_sample_peak_is_the_level_pass(self):
        # Reading the leaf probabilities and checking positivity copies the
        # reached leaves once, which stays under the level pass's own peak.
        d, n = 32, 64
        rng = np.random.default_rng([d, n])
        tree = compile_tree(random_rank_one_povm(n, d, rng))
        state = random_density(d, rng)
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for run in (lambda: simulator._level_pass(tree, state),
                        lambda: sample(tree, state, 10_000, seed=1)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 256 * 1024


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
            "rows": (report.nodes, report.leaves, report.passed, report.max_residual),
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
        assert default["rows"][2]
        for key in default:
            assert self.same(default[key], single[key]), key
