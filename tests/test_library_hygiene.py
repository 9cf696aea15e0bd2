"""The library must not rely on checks that ``python -O`` strips, must hold
no dead private helpers, and importing it must stay light."""

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


def _unreferenced_private_defs(trees: list[ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes that no other top-level
    statement of any of the modules names (a self-reference does not count)."""
    stmts = [node for tree in trees for node in tree.body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, (ast.Name, ast.Attribute))} for stmt in stmts]
    return sorted(stmt.name for i, stmt in enumerate(stmts)
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and stmt.name.startswith("_") and not stmt.name.startswith("__")
                  and not any(stmt.name in used for j, used in enumerate(names) if j != i))


def test_every_private_helper_is_used():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    assert _unreferenced_private_defs(trees) == []


def test_private_scan_finds_unused_helpers():
    trees = [ast.parse("def _a():\n    return _a()\ndef _b(): pass\nclass _C: pass\n"),
             ast.parse("def c():\n    return m._b()\ndef __d(): pass\n")]
    assert _unreferenced_private_defs(trees) == ["_C", "_a"]


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
