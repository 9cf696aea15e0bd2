"""The library must not rely on checks that ``python -O`` strips, and
importing it must stay light."""

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


def _loaded_scipy_modules(code: str) -> str:
    code += "; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return out.stdout.strip()


def test_package_import_loads_no_scipy_submodules():
    # scipy.ndimage and scipy.spatial cost about 37 MB and 0.5 s to import
    assert _loaded_scipy_modules("import cubemax.cli, cubemax.geom") == "[]"


def test_geom_run_loads_no_scipy():
    # the runtime is numpy only: a whole geom suite, including the Lipschitz
    # blow-up search in d = 2, imports no scipy module
    code = ("from cubemax.experiments import ExperimentConfig, run_geom_suite; "
            "run_geom_suite(ExperimentConfig(geom_samples=2000))")
    assert _loaded_scipy_modules(code) == "[]"
