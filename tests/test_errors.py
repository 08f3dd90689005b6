"""The package's error types: one base and one class per command-line exit code."""

import ast
import builtins
from pathlib import Path

import pytest

import povmtree
from povmtree import ParseError, PovmTreeError, ValidationError, VerificationError

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
