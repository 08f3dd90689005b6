"""One fixed set of tolerances: the constants of ``povmtree.linalg``, never a parameter."""

import ast
from pathlib import Path

import povmtree
from povmtree import linalg

PACKAGE = Path(povmtree.__file__).parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _nodes(kinds):
    return [(module, node) for module, tree in MODULES.items() for node in ast.walk(tree)
            if isinstance(node, kinds)]


def test_the_constants():
    assert (linalg.TOL_RANK, linalg.TOL_CHECK, linalg.TOL_UNITARY) == (1e-10, 1e-9, 1e-10)


def test_no_function_takes_a_tol_parameter():
    found = []
    for module, node in _nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        if "tol" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
            found.append(f"{module}:{node.lineno}")
    assert found == []


def test_no_module_defines_a_tolerances_type_or_field():
    defined = {(module, node.name) for module, node in _nodes(ast.ClassDef)}
    # assignments, dataclass fields such as a tree's ``tolerances`` among them
    defined |= {(module, node.id) for module, node in _nodes(ast.Name)
                if isinstance(node.ctx, ast.Store)}
    defined |= {(module, alias.asname or alias.name) for module, node in _nodes(ast.ImportFrom)
                for alias in node.names}
    names = {"Tolerances", "DEFAULT_TOLERANCES", "tolerances"}
    assert {(module, name) for module, name in defined if name in names} == set()


def test_one_rank_rule():
    # TOL_RANK is read only inside linalg, by rank_mask and is_dust, so every
    # rank decision (roots, the one-matrix SVD, verify, Neumark) goes through one rule
    outside = [f"{path.name}:{number}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "linalg.py"
               for number, line in enumerate(path.read_text().splitlines(), 1)
               if "TOL_RANK" in line]
    assert outside == []
    reads = [node for node in ast.walk(MODULES["linalg.py"]) if isinstance(node, ast.Name)
             and node.id == "TOL_RANK" and isinstance(node.ctx, ast.Load)]
    assert len(reads) == 2
