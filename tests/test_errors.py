"""The package's error types: one base and one class per command-line exit code."""

import ast
import builtins
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import povmtree
from povmtree import ParseError, PovmTreeError, ValidationError, VerificationError
from povmtree.linalg import complete_to_unitary_stack

PACKAGE = Path(povmtree.__file__).parent
ERROR_CLASSES = {"PovmTreeError", "ValidationError", "ParseError", "VerificationError"}
FIELDS = ("what", "residual", "index", "path", "field")


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes() -> dict[str, set[str]]:
    """Per module file name, the classes it defines that derive from an exception type.

    A class counts when one of its bases is a builtin exception or a class
    that counts, judged over every module's syntax tree until nothing changes.
    """
    classes = {
        path.name: [node for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef)]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = {module: set() for module in classes}
    changed = True
    while changed:
        changed = False
        for module, nodes in classes.items():
            for node in nodes:
                if node.name not in found[module] and known & {_base_name(b) for b in node.bases}:
                    found[module].add(node.name)
                    known.add(node.name)
                    changed = True
    return found


def test_only_the_errors_module_defines_exceptions():
    found = exception_classes()
    assert {module: names for module, names in found.items() if names} == {
        "errors.py": ERROR_CLASSES}


def test_the_errors_module_defines_exactly_four_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert defined == ERROR_CLASSES


def test_exports_no_other_exception_type():
    exported = {name for name in povmtree.__all__
                if isinstance(getattr(povmtree, name), type)
                and issubclass(getattr(povmtree, name), BaseException)}
    assert exported == ERROR_CLASSES


@pytest.mark.parametrize("cls, code", [(PovmTreeError, 1), (ValidationError, 1),
                                       (ParseError, 2), (VerificationError, 3)])
def test_every_error_carries_the_same_fields(cls, code):
    err = cls("failed")
    assert err.exit_code == code
    assert [getattr(err, name) for name in FIELDS] == [None] * len(FIELDS)
    assert str(err) == "failed"


def test_the_base_names_where_the_check_failed():
    assert str(ValidationError("bad", index=3)) == "element 3: bad"
    assert str(VerificationError("bad", path="01")) == "node '01': bad"
    assert str(ParseError("bad", field="order")) == "bad (field 'order')"
    err = VerificationError("bad", what="completeness", residual=2, path="")
    assert (err.what, err.residual, err.path, str(err)) == ("completeness", 2.0, "", "node '': bad")


def test_the_library_raises_no_bare_value_or_type_error():
    # the command line turns a ValueError into a usage error, so only cli.py raises one
    raised = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _base_name(exc) in {"ValueError", "TypeError"}:
                    raised.append(f"{path.name}:{node.lineno}")
    assert raised == []


def _tetrad_tree():
    return povmtree.compile_tree(povmtree.tetrad())


NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])

# Calls on caller input that each raised a plain ValueError, TypeError or
# IndexError, with no ``what``, or gave a wrong result (a bool basis index
# selected every entry, a string of labels was split into one label per
# character, a float rank was truncated), and the ``what`` of the
# ValidationError they raise now.
FORMERLY_BARE = {
    "validate ragged rows": (lambda: povmtree.validate([[[1.0, 0.0], [0.0]]]), "shape"),
    "hermitian_eig non-finite": (lambda: povmtree.hermitian_eig(NAN), "finiteness"),
    "psd_sqrt vector": (lambda: povmtree.psd_sqrt(np.zeros(3)), "shape"),
    "pseudo_inverse non-finite": (lambda: povmtree.pseudo_inverse(NAN[:1]), "finiteness"),
    "complete_to_unitary non-finite": (lambda: povmtree.complete_to_unitary(NAN[:, :1]),
                                       "finiteness"),
    "complete_to_unitary_stack matrix": (lambda: complete_to_unitary_stack(np.eye(2)), "shape"),
    "null_space_isometry not square": (lambda: povmtree.null_space_isometry(np.zeros((2, 3))),
                                       "shape"),
    "split_node mismatch": (lambda: povmtree.split_node((np.eye(2), np.eye(3)), np.eye(2)),
                            "shape"),
    "neumark probabilities non-finite": (
        lambda: povmtree.full_neumark(povmtree.tetrad()).probabilities(NAN), "finiteness"),
    "QuantumState non-finite": (lambda: povmtree.QuantumState(np.eye(2) * np.nan), "finiteness"),
    "compile_tree partition": (
        lambda: povmtree.compile_tree(povmtree.tetrad(), partition=[0, 0, 1, 2]), "partition"),
    "pure zero vector": (lambda: povmtree.QuantumState.pure([0.0, 0.0]), "trace"),
    "basis index": (lambda: povmtree.QuantumState.basis(2, 9), "range"),
    "basis index bool": (lambda: povmtree.QuantumState.basis(2, True), "range"),
    "basis index float": (lambda: povmtree.QuantumState.basis(2, 1.0), "range"),
    "basis dimension zero": (lambda: povmtree.QuantumState.basis(0, 0), "range"),
    "basis dimension float": (lambda: povmtree.QuantumState.basis(2.0, 0), "range"),
    "sample no shots": (lambda: povmtree.sample(_tetrad_tree(), povmtree.QuantumState.basis(2, 0),
                                                0, 1), "range"),
    "random_povm rank": (lambda: povmtree.random_povm(3, 2, np.random.default_rng(0), [0, 1, 1]),
                         "range"),
    "random_povm total rank": (
        lambda: povmtree.random_povm(2, 3, np.random.default_rng(0), [1, 1]), "completeness"),
    "validate labels not iterable": (lambda: povmtree.validate([np.eye(2)], labels=5), "shape"),
    "validate labels a string": (
        lambda: povmtree.validate([np.eye(2) / 4] * 4, labels="abcd"), "shape"),
    "validate labels bytes": (lambda: povmtree.validate([np.eye(2) / 2] * 2, labels=b"ab"), "shape"),
    "random_rank_one_povm float outcomes": (
        lambda: povmtree.random_rank_one_povm(2.5, 2, np.random.default_rng(0)), "range"),
    "random_rank_one_povm float dimension": (
        lambda: povmtree.random_rank_one_povm(4, 2.0, np.random.default_rng(0)), "range"),
    "random_rank_one_povm bool outcomes": (
        lambda: povmtree.random_rank_one_povm(True, 1, np.random.default_rng(0)), "range"),
    "random_povm float outcomes": (
        lambda: povmtree.random_povm(2.5, 2, np.random.default_rng(0)), "range"),
    "random_povm dimension zero": (
        lambda: povmtree.random_povm(2, 0, np.random.default_rng(0)), "range"),
    "random_povm float rank": (
        lambda: povmtree.random_povm(3, 2, np.random.default_rng(0), [1.7, 1, 1]), "range"),
    "random_unitary float dimension": (
        lambda: povmtree.random_unitary(2.5, np.random.default_rng(0)), "range"),
    "random_povm ranks not iterable": (
        lambda: povmtree.random_povm(2, 1, np.random.default_rng(0), ranks=5), "shape"),
    "random_povm ranks a string": (
        lambda: povmtree.random_povm(2, 1, np.random.default_rng(0), ranks="11"), "shape"),
    "random_povm negative outcomes": (
        lambda: povmtree.random_povm(-1, 2, np.random.default_rng(0)), "range"),
    "random_rank_one_povm no outcomes": (
        lambda: povmtree.random_rank_one_povm(0, 1, np.random.default_rng(0)), "range"),
}


@pytest.mark.parametrize("case", FORMERLY_BARE)
def test_caller_input_errors_are_typed(case):
    call, what = FORMERLY_BARE[case]
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.what == what


def _rank_deficient_leaf_split():
    # the leaf targets below node '0' sum to its operator diag(1, 1e-8) within
    # TOL_CHECK, but the parent's singular value 1e-4 amplifies the 5e-10 gap
    # into a completeness residual of 0.05
    sqrt = np.sqrt
    factorization = [np.diag([sqrt(0.5), sqrt(1e-8 / 2 + 5e-10)]), np.diag([sqrt(0.5), 1e-4 / sqrt(2)]),
                     np.diag([0.0, sqrt((1 - 1e-8) / 2)]), np.diag([0.0, sqrt((1 - 1e-8) / 2)])]
    elements = [m.conj().T @ m for m in factorization]
    elements[1] = np.diag([0.5, 1e-8 / 2 - 5e-10])
    return povmtree.compile_tree(povmtree.validate(elements), factorization=factorization)


def _verify_edited(shift=0.0, order=(0, 1, 2, 3)):
    """``verify`` on the tetrad's tree, ``shift`` added to an entry of pair '1', leaves in ``order``."""
    tree = _tetrad_tree()
    level = tree.kraus[1].copy()
    level[1, 0, 0, 0] += shift
    return povmtree.verify(replace(tree, kraus=(tree.kraus[0], level), order=np.array(order)))


# Checks of a construction that fail, each raised for the first residual above
# its limit: the ``what``, the field naming the failure (``index`` in a stack,
# ``path`` in a tree), the message and the residual.
FAILED_CHECKS = {
    "complete_to_unitary_stack completeness": (
        lambda: complete_to_unitary_stack(np.stack([np.eye(2)[:, :1], 2 * np.eye(2)[:, :1]])),
        "completeness", {"index": 1}, "element 1: columns are not orthonormal (residual 3.000e+00)",
        3.0),
    "compile_tree completeness post-check": (
        _rank_deficient_leaf_split, "completeness", {"path": "0"},
        "node '0': completeness post-check failed, residual 5.000e-02", 0.05),
    "verify completeness": (
        lambda: _verify_edited(shift=1e-3), "completeness", {"path": "1"},
        "node '1': completeness check failed, residual 9.697e-04", 9.697368043896786e-04),
    "verify operator sum": (  # elements 0 and 2 swapped across the root's children
        lambda: _verify_edited(order=(2, 1, 0, 3)), "operator sum", {"path": "0"},
        "node '0': operator sum check failed, residual 5.774e-01", 3 ** -0.5),
    "verify leaf reconstruction": (  # elements 0 and 1 swapped within pair '0'
        lambda: _verify_edited(order=(1, 0, 2, 3)), "leaf reconstruction", {"path": "00"},
        "node '00': leaf reconstruction check failed, residual 5.774e-01", 3 ** -0.5),
    "verify non-finite Kraus entry": (
        lambda: _verify_edited(shift=np.nan), "completeness", {"path": "1"},
        "node '1': completeness check failed, residual nan", np.nan),
}


@pytest.mark.parametrize("case", FAILED_CHECKS)
def test_failed_checks_name_the_first_failure(case):
    call, what, where, message, residual = FAILED_CHECKS[case]
    with pytest.raises(VerificationError) as err:
        call()
    named = {"index": err.value.index, "path": err.value.path}
    assert (err.value.what, str(err.value)) == (what, message)
    assert named == {"index": None, "path": None, **where}
    assert err.value.residual == pytest.approx(residual, rel=1e-12, nan_ok=True)
