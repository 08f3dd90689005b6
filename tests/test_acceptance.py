"""Acceptance suite: one check per shipped correctness criterion.

Each criterion prints a PASS/FAIL line with its measured figure.  Runnable
standalone (``python tests/test_acceptance.py``) or under pytest, where each
criterion is one test.
"""

import sys
import time
from functools import lru_cache

import numpy as np

import povmtree as pt
from povmtree.cost import compare


def _report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})")
    return ok


# ---------------------------------------------------------------- criterion 1


def criterion_1_tetrad_end_to_end():
    start = time.perf_counter()
    povm = pt.tetrad()
    tree = pt.compile_tree(povm, partition=[0, 3, 1, 2])
    leaf_operators = tree.cumulative_operators(tree.depth)  # leaf i is outcome order[i]
    leaf_worst = max(
        float(np.linalg.norm(leaf_operators[i] - povm.elements[j]))
        for i, j in enumerate(tree.order)
    )
    state = pt.QuantumState.basis(2, 0)
    probs = np.array([o.probability for o in pt.propagate(tree, state)])
    prob_worst = float(np.max(np.abs(probs - np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))))
    elapsed = time.perf_counter() - start
    ok = leaf_worst <= 1e-9 and prob_worst <= 1e-9 and elapsed < 1.0
    detail = f"leaf residual {leaf_worst:.2e}, prob residual {prob_worst:.2e}, {elapsed:.2f}s"
    return ok, detail


# ------------------------------------------------------- criteria 2, 3, 4 data


@lru_cache(maxsize=1)
def _random_suite():
    """200 random POVMs with their compiled trees, mixed dims/sizes/ranks."""
    rng = np.random.default_rng(424242)
    suite = []
    for index in range(200):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(max(dim, 2), 17))
        if index % 2 == 0:
            povm = pt.random_rank_one_povm(n, dim, rng)
        else:
            povm = pt.random_povm(n, dim, rng)
        suite.append((povm, pt.compile_tree(povm)))
    return suite


def criterion_2_oracle_triangle():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for povm, tree in _random_suite():
        extension = pt.full_neumark(tree.povm)
        for _ in range(50):
            state = pt.random_density(tree.povm.dim, rng)
            tree_probs = pt.propagate(tree, state).probabilities
            direct = pt.direct_probabilities(tree.povm, state)
            neumark = extension.probabilities(state.density)
            worst = max(
                worst,
                float(np.max(np.abs(tree_probs - direct))),
                float(np.max(np.abs(tree_probs - neumark))),
                float(np.max(np.abs(direct - neumark))),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    return ok, f"200 POVMs x 50 states, max pairwise deviation {worst:.2e}, {elapsed:.1f}s"


def criterion_3_node_completeness():
    worst = 0.0
    corrected = 0
    for _, tree in _random_suite():
        report = pt.verify(tree)
        for check in report.nodes:
            worst = max(worst, check.completeness_residual)
            if check.uses_null_correction:
                corrected += 1
    ok = worst <= 1e-9 and corrected >= 20
    return ok, f"max residual {worst:.2e}, {corrected} rank-deficient parents"


def criterion_4_dilation_validity():
    worst = 0.0
    exact = True
    for _, tree in _random_suite():
        for level in range(tree.depth):
            for index, pair in enumerate(tree.pairs(level)):
                u = tree.dilation(pt.node_path(level, index))
                d = u.shape[0] // 2
                worst = max(worst, float(np.linalg.norm(u.conj().T @ u - np.eye(2 * d))))
                exact = exact and np.array_equal(u[:d, :d], pair[0])
                exact = exact and np.array_equal(u[d:, :d], pair[1])
    ok = worst <= 1e-10 and exact
    return ok, f"max |U^dag U - I|_F = {worst:.2e}, block extraction exact: {exact}"


# ---------------------------------------------------------------- criterion 5


def criterion_5_cost_table():
    expected = {
        4: (6, 6, 12),
        16: (120, 42, 24),
        256: (32640, 762, 48),
        1024: (523776, 3066, 60),
    }
    ok = True
    for n, triple in expected.items():
        report = compare(n, 2)
        ok = ok and (
            report.neumark_ops,
            report.single_extra_dim_ops,
            report.binary_tree_ops,
        ) == triple
    for d in (2, 3, 4):
        n = 1 << max(2, d - 1).bit_length()
        for _ in range(10):
            ok = ok and (
                compare(2 * n, d).binary_tree_ops - compare(n, d).binary_tree_ops
                == d * (2 * d - 1)
            )
            n *= 2
    return ok, "N in {4,16,256,1024} at d=2; doubling adds d(2d-1) for d in {2,3,4}"


# ---------------------------------------------------------------- criterion 6


def criterion_6_statistical_soundness():
    tree = pt.compile_tree(pt.tetrad(), partition=[0, 3, 1, 2])
    state = pt.QuantumState.maximally_mixed(2)
    shots = 1_000_000
    report = pt.sample(tree, state, shots, seed=20171217)
    rerun = pt.sample(tree, state, shots, seed=20171217)
    sigma = np.sqrt(shots * 0.25 * 0.75)
    deviations = [abs(c - shots * 0.25) / sigma for c in report.counts]
    ok = max(deviations) <= 5.0 and report == rerun
    return ok, f"counts {report.counts}, max {max(deviations):.2f} sigma, rerun identical: {report == rerun}"


# ---------------------------------------------------------------- criterion 7


def criterion_7_unitary_freedom_invariance():
    rng = np.random.default_rng(777)
    worst = 0.0
    for case in range(20):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(max(dim, 2), 9))
        povm = pt.random_rank_one_povm(n, dim, rng)
        base = pt.default_kraus(povm)
        rotated = pt.apply_freedom(base, [pt.random_unitary(dim, rng) for _ in range(n)])
        state = pt.random_density(dim, rng)
        probs_base = np.array(
            [o.probability for o in pt.propagate(pt.compile_tree(povm, base), state)]
        )
        probs_rot = np.array(
            [o.probability for o in pt.propagate(pt.compile_tree(povm, rotated), state)]
        )
        worst = max(worst, float(np.max(np.abs(probs_base - probs_rot))))
    ok = worst <= 1e-9
    return ok, f"20 POVM/state pairs, max probability shift {worst:.2e}"


# ---------------------------------------------------------------- criterion 8


def criterion_8_pseudoinverse_axioms():
    rng = np.random.default_rng(4141)
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        else:
            inner = int(rng.integers(1, min(rows, cols) + 1))
            x = rng.standard_normal((rows, inner)) + 1j * rng.standard_normal((rows, inner))
            y = rng.standard_normal((inner, cols)) + 1j * rng.standard_normal((inner, cols))
            a = x @ y
        pinv = pt.pseudo_inverse(a)
        residuals = (
            np.linalg.norm(a @ pinv @ a - a),
            np.linalg.norm(pinv @ a @ pinv - pinv),
            np.linalg.norm(a @ pinv - (a @ pinv).conj().T),
            np.linalg.norm(pinv @ a - (pinv @ a).conj().T),
        )
        worst = max(worst, float(max(residuals)))
    ok = worst <= 1e-9
    return ok, f"1000 matrices, max axiom residual {worst:.2e}"


CRITERIA = (
    (1, "tetrad end-to-end", criterion_1_tetrad_end_to_end),
    (2, "oracle triangle (tree / extension / direct)", criterion_2_oracle_triangle),
    (3, "per-node completeness", criterion_3_node_completeness),
    (4, "dilation validity", criterion_4_dilation_validity),
    (5, "operation-count table", criterion_5_cost_table),
    (6, "statistical soundness", criterion_6_statistical_soundness),
    (7, "unitary-freedom invariance", criterion_7_unitary_freedom_invariance),
    (8, "pseudoinverse axioms", criterion_8_pseudoinverse_axioms),
)


def test_criterion_1_tetrad_end_to_end():
    ok, detail = criterion_1_tetrad_end_to_end()
    assert _report(1, "tetrad end-to-end", ok, detail)


def test_criterion_2_oracle_triangle():
    ok, detail = criterion_2_oracle_triangle()
    assert _report(2, "oracle triangle", ok, detail)


def test_criterion_3_node_completeness():
    ok, detail = criterion_3_node_completeness()
    assert _report(3, "per-node completeness", ok, detail)


def test_criterion_4_dilation_validity():
    ok, detail = criterion_4_dilation_validity()
    assert _report(4, "dilation validity", ok, detail)


def test_criterion_5_cost_table():
    ok, detail = criterion_5_cost_table()
    assert _report(5, "operation-count table", ok, detail)


def test_criterion_6_statistical_soundness():
    ok, detail = criterion_6_statistical_soundness()
    assert _report(6, "statistical soundness", ok, detail)


def test_criterion_7_unitary_freedom_invariance():
    ok, detail = criterion_7_unitary_freedom_invariance()
    assert _report(7, "unitary-freedom invariance", ok, detail)


def test_criterion_8_pseudoinverse_axioms():
    ok, detail = criterion_8_pseudoinverse_axioms()
    assert _report(8, "pseudoinverse axioms", ok, detail)


def test_random_suite_full_verification():
    # every tree of the acceptance suite passes the complete audit, including
    # leaf reconstruction |m_leaf^dag m_leaf - M_j|_F within tolerance
    for povm, tree in _random_suite():
        report = pt.verify(tree)
        assert report.passed, report.summary()
        assert (report.leaf_columns["residual"] <= 1e-8).all()


def main() -> int:
    failures = 0
    for number, name, fn in CRITERIA:
        ok, detail = fn()
        _report(number, name, ok, detail)
        if not ok:
            failures += 1
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
