"""Every top-level function, class and method of the library has a use in
the library itself: its name appears outside its own definition, as a name,
an attribute or an import.  A name that several definitions share counts as
used for all of them, so the scan can miss dead code but never flags live
code.  Dunder methods are called implicitly and are not scanned."""

import ast
from pathlib import Path

import lpfraisse

SRC = Path(lpfraisse.__file__).parent

# definitions kept without a caller in the library, each with its reason
ALLOWED = {
    "geometry.dist_to_unit_ball": "benchmark/tracing.py rebinds it, and the benchmark's files "
                                  "stay fixed until its tracer reads library counters instead "
                                  "(ROADMAP item 6)",
}


def _definitions_and_uses():
    """{qualified name: (module, identifier, first line, last line)} of the
    definitions, and {identifier: [(module, line)]} of the uses."""
    defs, uses = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node.name, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defs[f"{mod}.{node.name}.{sub.name}"] = (mod, sub.name, sub.lineno, sub.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            uses.setdefault(name, []).append((mod, getattr(node, "lineno", 0)))
    return defs, uses


def test_every_definition_has_a_caller_in_src():
    defs, uses = _definitions_and_uses()
    # unused: every use of the identifier lies inside the definition itself
    unused = sorted(
        qual for qual, (mod, name, first, last) in defs.items()
        if all(m == mod and first <= line <= last for m, line in uses.get(name, ()))
    )
    # also fails when an allowed name gains a caller or is deleted
    assert unused == sorted(ALLOWED)
