"""The library has one LP path: no name `linprog` or `milp` (a call, an
attribute, an import, a plain name or a string equal to it) appears in `src/lpfraisse` outside the
body of `geometry._linprog`."""

import ast
from pathlib import Path

import lpfraisse

SRC = Path(lpfraisse.__file__).parent
SOLVERS = {"linprog", "milp"}


def solver_names(tree: ast.AST) -> list[int]:
    """Lines of the nodes of tree that name an LP solver."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # getattr(scipy.optimize, "linprog")
        else:
            continue
        if name in SOLVERS:
            lines.append(node.lineno)
    return lines


def test_only_linprog_entry_point_names_a_solver():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        entry = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_linprog"]
        for line in solver_names(tree):
            if not (path.stem == "geometry" and entry
                    and entry[0].lineno <= line <= entry[0].end_lineno):
                outside.append(f"{path.name}:{line}")
    assert outside == []


def test_entry_point_calls_the_solver():
    # the scan is not vacuous: the entry point itself names its solver
    tree = ast.parse((SRC / "geometry.py").read_text())
    entry = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_linprog")
    assert solver_names(entry)
