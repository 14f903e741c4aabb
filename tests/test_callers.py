"""Every top-level function, class and method of the library has a use in
the library itself: its name appears outside its own definition, as a name,
an attribute or an import.  A name that several definitions share counts as
used for all of them, so the scan can miss dead code but never flags live
code.  Dunder methods are called implicitly and are not scanned, nor are
the functions that a registering decorator (REGISTRARS) files under a name,
as `suite._check` files the battery's checks in `suite.ALL_CHECKS`.

Every field of every dataclass of the library is read, as an attribute,
somewhere in the library or in the benchmark's files.  Reads in the
class's own methods count; the scan is by identifier, so a field that
shares its name with a read attribute counts as read."""

import ast
from pathlib import Path

import lpfraisse

SRC = Path(lpfraisse.__file__).parent
BENCHMARK = SRC.parents[1] / "benchmark"
REGISTRARS = {"_check"}

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
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(d, ast.Call) and getattr(d.func, "id", None) in REGISTRARS
                    for d in node.decorator_list):
                continue
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _fields_and_reads():
    """{qualified name: identifier} of the dataclass fields of the library,
    and the identifiers read as attributes in the library or the benchmark."""
    fields, reads = {}, set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.parent == SRC:
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    for sub in node.body:
                        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                            fields[f"{path.stem}.{node.name}.{sub.target.id}"] = sub.target.id
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return fields, reads


def test_every_dataclass_field_is_read():
    fields, reads = _fields_and_reads()
    assert fields
    assert sorted(qual for qual, name in fields.items() if name not in reads) == []
