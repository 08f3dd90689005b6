"""Command-line frontend.

Subcommands: validate, compile, simulate, cost, example-tetrad.
Exit codes: 0 success, 1 validation failure, 2 parse/usage error,
3 internal verification failure.  A :class:`povmtree.errors.PovmTreeError`
exits with its class's ``exit_code`` (see :mod:`povmtree.errors`) and an
``OSError`` with 2; any other exception is a bug, and is not caught.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cost as cost_model
from . import io as treeio
from .errors import ParseError, PovmTreeError
from .linalg import _asymmetry, adjoint, as_stack, hermitian_eig
from .povm import tetrad
from .simulator import QuantumState, direct_probabilities, propagate, sample
from .tree import _resolve_partition, compile_tree, verify

_PREFIXES = {1: "invalid", 2: "error", 3: "verification error"}
# tree-vs-direct probability deviation allowed: a verified tree's is at most its
# largest leaf residual, at most TOL_CHECK, plus rounding
_AGREEMENT = 1e-8


def _parse_grouping(text: str, n: int) -> np.ndarray:
    """Turn '0,3|1,2' into the leaf order [0, 3, 1, 2], by the rule ``compile_tree`` takes a partition by."""
    try:
        order = [int(piece) for group in text.split("|") for piece in group.split(",")]
        return _resolve_partition(order, n)
    except ValueError as err:  # not integers, or not a partition (a ValidationError)
        raise ParseError(f"invalid grouping string {text!r}: {err}") from err


def _at_least_zero(text: str) -> int:
    """``int(text)`` if it is >= 0; else a usage error naming the flag (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite int >= 0, got {text!r}")
    return value


def _parse_state(spec: str, dim: int) -> QuantumState:
    if spec.startswith("pure:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError as err:
            raise ParseError(f"invalid state spec {spec!r}: {err}") from err
        return QuantumState.basis(dim, index)
    if spec == "mixed:max":
        return QuantumState.maximally_mixed(dim)
    return treeio.load_state(spec)


def _format_matrix(m: np.ndarray) -> str:
    # rounded to the printed decimals; adding 0 turns each -0.0 into 0.0, so no sign of zero shows
    return np.array2string(np.round(np.asarray(m), 6) + 0, precision=6, suppress_small=True)


def cmd_validate(args) -> int:
    # the residuals validate judged: of the matrices as stored, not their Hermitian parts
    elements, povm = treeio.povm_record(treeio.load_json(args.path))
    stack = as_stack(elements)
    stack_dag = adjoint(stack)
    min_eig = np.linalg.eigvalsh((stack + stack_dag) / 2)[:, 0]
    print(f"POVM: {povm.n_outcomes} outcomes on dimension {povm.dim}")
    for label, herm, least in zip(povm.labels, _asymmetry(stack, stack_dag), min_eig):
        print(f"  element {label!r}: hermiticity residual {herm:.3e}, min eigenvalue {least:+.3e}")
    print(f"  completeness residual |sum - I|_F = {np.linalg.norm(stack.sum(axis=0) - np.eye(povm.dim)):.3e}")
    print("valid")
    return 0


def cmd_compile(args) -> int:
    povm = treeio.load_povm(args.path)
    partition = None
    if args.grouping is not None:
        partition = _parse_grouping(args.grouping, povm.n_outcomes)  # exit 2
    tree = compile_tree(povm, partition=partition)
    leaves = 1 << tree.depth
    if leaves != povm.n_outcomes:
        print(f"note: {povm.n_outcomes} outcomes on a tree of {leaves} leaves, "
              f"{leaves - povm.n_outcomes} of them padding")
    report = verify(tree)
    print(report.summary())

    if 2 <= povm.dim <= povm.n_outcomes:  # the cost model's range
        costs = cost_model.compare(povm.n_outcomes, povm.dim)
        print(
            f"operation counts for N={costs.n_outcomes}, d={costs.dim}: "
            f"one-shot extension {costs.neumark_ops}, "
            f"single-extra-dimension {costs.single_extra_dim_ops}, "
            f"binary tree {costs.binary_tree_ops} ({costs.binary_tree_depth} levels)"
        )

    out_path = args.out or str(Path(args.path).with_suffix("")) + ".tree"
    treeio.save_tree(tree, out_path)
    print(f"tree written to {out_path}")
    return 0


def cmd_simulate(args) -> int:
    tree = treeio.load_tree(args.tree)
    state = _parse_state(args.state, tree.povm.dim)
    outcomes = propagate(tree, state)
    direct = direct_probabilities(tree.povm, state)
    print(f"state: {args.state}; tree: {tree.povm.n_outcomes} outcomes, depth {tree.depth}")
    print("leaf probabilities (tree | direct):")
    for o, p, reached in zip(outcomes, direct, outcomes.reached):
        reached = "" if reached else "  [unreached]"
        print(f"  {o.leaf_label:>8}  path {o.path or '-':>6}  "
              f"{o.probability:.10f} | {p:.10f}{reached}")
    deviation = float(np.max(np.abs(outcomes.probabilities - direct)))
    print(f"max tree-vs-direct deviation: {deviation:.3e}")
    if args.shots > 0:
        report = sample(tree, state, args.shots, args.seed)
        print(f"sampling: {report.shots} shots, seed {report.seed}")
        for label, count, p in zip(report.labels, report.counts, report.expected):
            print(f"  {label:>8}  count {count:>10}  frequency {count / report.shots:.6f}  "
                  f"expected {p:.6f}")
        print(f"max deviation: {report.max_sigma_deviation:.3f} sigma")
    if deviation > _AGREEMENT:
        print("tree and direct probabilities disagree", file=sys.stderr)
        return 3
    return 0


def cmd_cost(args) -> int:
    report = cost_model.compare(args.n, args.d)
    print(f"N = {report.n_outcomes}, d = {report.dim}")
    print(f"  one-shot projective extension : {report.neumark_ops}")
    line = f"  single extra dimension        : {report.single_extra_dim_ops}"
    if args.average:
        line += f" (average {report.single_extra_dim_ops_average:g} if outcomes equally likely)"
    print(line)
    print(
        f"  binary measurement tree       : {report.binary_tree_ops} "
        f"({report.binary_tree_depth} levels)"
    )
    if args.crossover:
        n_star = cost_model.crossover(args.d)
        print(f"  tree strictly cheapest from N = {n_star}")
    return 0


def cmd_example_tetrad(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    povm = tetrad()
    povm_path = out_dir / "tetrad.povm.json"
    treeio.save_povm(povm, povm_path)

    tree = compile_tree(povm, partition=[0, 3, 1, 2])
    report = verify(tree)
    tree_path = out_dir / "tetrad.tree"
    treeio.save_tree(tree, tree_path)

    lines = []
    lines.append("Tetrad measurement walkthrough")
    lines.append("==============================")
    lines.append("")
    lines.append("Four rank-one outcome operators M_0..M_3 on a qubit; the tree groups")
    lines.append("outcomes {0,3} versus {1,2} at the first level.")
    lines.append("")
    m03, m12 = tree.cumulative_operators(1)
    lines.append("First-level grouped operators:")
    lines.append(f"M03 =\n{_format_matrix(m03)}")
    lines.append(f"M12 =\n{_format_matrix(m12)}")
    w, v = hermitian_eig(m03)
    lines.append("")
    lines.append(f"eigenvalues of M03: {w[0]:.12f}, {w[1]:.12f}")
    lines.append(f"eigenvectors (columns):\n{_format_matrix(v)}")
    lines.append("")
    lines.append("Probe coupling unitary at the root (first block column = [F03; F12], F03^dag F03 = M03"
                 " and F12^dag F12 = M12):")
    lines.append(_format_matrix(tree.dilation("")))
    lines.append("")
    lines.append("Second-stage measurement operators B_j = b_j^dag b_j:")
    # leaf i is outcome order[i], reached by b_(i % 2) of the pair at node i // 2: B_j by outcome j
    second = [b.conj().T @ b for b in tree.pairs(1).reshape(4, 2, 2)[np.argsort(tree.order)]]
    lines += [f"B{j} =\n{_format_matrix(b)}" for j, b in enumerate(second)]
    closure = np.linalg.norm(second[0] + second[3] - np.eye(2))
    lines.append("")
    lines.append(f"completeness |B0 + B3 - I|_F = {closure:.3e}")
    lines.append(report.summary())
    state = QuantumState.basis(2, 0)
    probs = propagate(tree, state).probabilities
    lines.append("")
    lines.append(f"leaf probabilities for |0><0|: {probs[0]:.6f}, {probs[1]:.6f}, "
                 f"{probs[2]:.6f}, {probs[3]:.6f}  (exact: 1/2, 1/6, 1/6, 1/6)")
    walkthrough = out_dir / "walkthrough.txt"
    walkthrough.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {povm_path}")
    print(f"wrote {tree_path}")
    print(f"wrote {walkthrough}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmtree",
        description="Compile POVMs into binary trees of two-outcome probe measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a POVM file")
    p_validate.add_argument("path", help="POVM JSON file")
    p_validate.set_defaults(func=cmd_validate)

    p_compile = sub.add_parser("compile", help="compile a POVM file into a tree file")
    p_compile.add_argument("path", help="POVM JSON file")
    p_compile.add_argument(
        "--grouping",
        default=None,
        help="pipe-separated outcome groups, e.g. '0,3|1,2', read left to right",
    )
    p_compile.add_argument("--out", default=None, help="output tree file")
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate", help="run a compiled tree on a state")
    p_sim.add_argument("tree", help="tree file")
    p_sim.add_argument(
        "--state",
        default="mixed:max",
        help="state spec: 'pure:<k>', 'mixed:max', or a state JSON file",
    )
    p_sim.add_argument("--shots", type=_at_least_zero, default=0, help="number of sampled shots")
    p_sim.add_argument("--seed", type=_at_least_zero, default=0, help="sampling seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_cost = sub.add_parser("cost", help="operation-count comparison")
    p_cost.add_argument("n", type=int, help="number of outcomes N")
    p_cost.add_argument("d", type=int, help="system dimension d")
    p_cost.add_argument("--average", action="store_true",
                        help="also report the equal-likelihood average for the iterated method")
    p_cost.add_argument("--crossover", action="store_true",
                        help="report the N from which the tree is strictly cheapest")
    p_cost.set_defaults(func=cmd_cost)

    p_ex = sub.add_parser("example-tetrad", help="emit and compile the bundled tetrad POVM")
    p_ex.add_argument("--out", default="tetrad-example", help="output directory")
    p_ex.set_defaults(func=cmd_example_tetrad)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PovmTreeError as err:
        print(f"{_PREFIXES[err.exit_code]}: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
