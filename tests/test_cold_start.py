"""Importing the library loads no SciPy: `geometry` imports scipy.optimize,
scipy.sparse and scipy.spatial, and `equi` scipy.special, inside the
functions that call them.  The two process tests run in a fresh process:
this one has SciPy loaded already (test_geometry imports it at module
level), so here no function-local import ever runs in a process without
SciPy.  A scan of the source checks what a process cannot: `import
scipy.optimize` loads scipy.sparse too, so a function that uses scipy.sparse
without importing it still runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lpfraisse

# the child imports the package from where this process found it, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(lpfraisse.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# one call through each function-local SciPy import; sets `results`
CALLS = """
from lpfraisse import equi, geometry
from lpfraisse.core import PIndex, rng_from_seed

rng = rng_from_seed(5)
X1, Y1, Y3 = (geometry.Subspace(4, PIndex.of(p), rng.standard_normal((4, 2))) for p in (1, 1, 3))
gap = geometry.gap_estimate(X1, Y1, budget=8, seed=2)  # milp, the sparse matrix, cKDTree
d3, y3 = geometry._dists_to_unit_ball(rng.standard_normal((3, 4)), Y3)  # SLSQP
results = {
    "gap_estimate": [gap.lower, gap.upper],
    "_dists_to_unit_ball": [d3.tolist(), y3.tolist()],
    "count_fraction_log": equi.count_fraction_log(60, 3, 0.3),
    "_log_window_fraction_dp": equi._log_window_fraction_dp(20, 3, 0.3),
}
"""


def run_child(code: str) -> dict:
    r = subprocess.run([sys.executable, "-c", "import json, sys\nimport lpfraisse.cli\n" + code],
                       capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_cli_import_loads_no_scipy():
    # lpfraisse.cli imports every library module
    loaded = run_child(f"print(json.dumps({LOADED_SCIPY}))")
    for name in ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special"):
        assert name not in loaded


def test_function_local_imports_match_in_process_calls():
    child = run_child(f"before = {LOADED_SCIPY}\n{CALLS}\n"
                      "print(json.dumps({'before': before, 'results': results}))")
    assert child["before"] == []
    namespace = {}
    exec(CALLS, namespace)
    assert namespace["results"]["_log_window_fraction_dp"] is not None  # the enumerating branch
    assert child["results"] == json.loads(json.dumps(namespace["results"]))


def scipy_uses(func: ast.FunctionDef) -> tuple[set[str], set[str]]:
    """The submodules `scipy.X` that func uses as attributes, and those it imports."""
    used = {f"scipy.{node.attr}" for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "scipy"}
    imported = {alias.name for node in ast.walk(func) if isinstance(node, ast.Import) for alias in node.names}
    return used, imported


def library_functions():
    for path in sorted(Path(lpfraisse.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for func in (node.body if isinstance(node, ast.ClassDef) else [node]):
                if isinstance(func, ast.FunctionDef):
                    yield f"{path.stem}.{func.name}", func


def test_each_function_imports_the_scipy_modules_it_uses():
    missing = {}
    for name, func in library_functions():
        used, imported = scipy_uses(func)
        if used - imported:
            missing[name] = sorted(used - imported)
    assert missing == {}
    # the scan is not vacuous: the LP entry point uses two submodules
    assert scipy_uses(dict(library_functions())["geometry._linprog"])[0] == {"scipy.optimize", "scipy.sparse"}
