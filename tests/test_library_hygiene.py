"""The library must not rely on checks that ``python -O`` strips, must hold
no dead private helpers nor a public name that nothing references, exports
or allowlists, and importing it must stay light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cubemax

SRC = Path(cubemax.__file__).parent


def _stripped_checks(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_no_assert_statements_or_assertion_errors():
    found = {p.name: _stripped_checks(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_finds_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('no')\nraise AssertionError\n")
    assert _stripped_checks(tree) == [1, 2, 3]


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level def, class or plain assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unreferenced_defs(trees: list[ast.Module], public: bool = False) -> list[str]:
    """Module-level names that no other top-level statement of any of the
    modules names (a self-reference does not count): the ``_private``
    functions and classes, or with ``public`` every public function, class
    and assigned name."""
    stmts = [node for tree in trees for node in tree.body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, (ast.Name, ast.Attribute))} for stmt in stmts]
    found = []
    for i, stmt in enumerate(stmts):
        if public:
            bound = [name for name in _bound_names(stmt) if not name.startswith("_")]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and stmt.name.startswith("_") and not stmt.name.startswith("__"):
            bound = [stmt.name]
        else:
            bound = []
        found += [name for name in bound
                  if not any(name in used for j, used in enumerate(names) if j != i)]
    return sorted(found)


def _package_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]


def test_every_private_helper_is_used():
    assert _unreferenced_defs(_package_trees()) == []


def test_private_scan_finds_unused_helpers():
    trees = [ast.parse("def _a():\n    return _a()\ndef _b(): pass\nclass _C: pass\n"),
             ast.parse("def c():\n    return m._b()\ndef __d(): pass\n")]
    assert _unreferenced_defs(trees) == ["_C", "_a"]


_LEMMA_CHECK = "lemma check that no report states yet (ROADMAP item 8, the lemma audit)"
_FILE_IO = "grid or family file format with no reader in a run yet (ROADMAP item 11, replay)"
_TRACED = "traced by name in perfbench/spans.py TARGETS, which reports its calls"
_GEOM_ORACLE = "geometry check that only tests call (ROADMAP item 7, closed forms)"

# Public names that no top-level statement of the package references and
# that ``__all__`` does not export, each with why it stays for now.  The test
# fails on a stale entry as on a new name, so the list can only shrink.
UNREFERENCED_PUBLIC = {
    "sparse_mass_estimate": _LEMMA_CHECK,
    "covering_middensity": _LEMMA_CHECK,
    "contract_density_check": _LEMMA_CHECK,
    "poincare_ratio": _LEMMA_CHECK,
    "isoperimetric_significant": _LEMMA_CHECK,
    "significant_mass_bound": _LEMMA_CHECK,
    "boundary_of_union_check": _LEMMA_CHECK,
    "write_grid_csv": _FILE_IO,
    "read_grid_csv": _FILE_IO,
    "write_grid_binary": _FILE_IO,
    "read_grid_binary": _FILE_IO,
    "family_to_json": _FILE_IO,
    "family_from_json": _FILE_IO,
    "partition_at": _TRACED,
    "boundary_faces_outside": _TRACED,
    "min_angle_check": _GEOM_ORACLE,
    "boundary_length_in_disk": _GEOM_ORACLE,
}


def test_every_public_name_is_referenced_exported_or_allowlisted():
    unreferenced = set(_unreferenced_defs(_package_trees(), public=True)) - set(cubemax.__all__)
    assert sorted(unreferenced) == sorted(UNREFERENCED_PUBLIC)


def test_public_scan_finds_unreferenced_names():
    trees = [ast.parse("A = 1\nB: int = A\ndef f():\n    return f()\nclass C: pass\n"),
             ast.parse("def g():\n    return m.C\n_x = 2\nx, y = 3, 4\n")]
    assert _unreferenced_defs(trees, public=True) == ["B", "f", "g"]


def _loaded_modules(code: str, package: str = "scipy") -> str:
    code += (f"; print(sorted(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return out.stdout.strip()


def test_package_import_loads_no_scipy_submodules():
    # scipy.ndimage and scipy.spatial cost about 37 MB and 0.5 s to import
    assert _loaded_modules("import cubemax.cli, cubemax.geom") == "[]"


def test_cli_import_loads_no_thread_pool():
    # runs are serial; concurrent.futures and its queue are not needed
    assert _loaded_modules("import cubemax.cli", "concurrent") == "[]"


def test_geom_run_loads_no_scipy():
    # the runtime is numpy only: a whole geom suite, including the Lipschitz
    # blow-up search in d = 2, imports no scipy module
    code = ("from cubemax.experiments import ExperimentConfig, run_geom_suite; "
            "run_geom_suite(ExperimentConfig(geom_samples=2000))")
    assert _loaded_modules(code) == "[]"
