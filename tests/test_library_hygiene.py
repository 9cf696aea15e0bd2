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


def test_package_import_loads_no_scipy_submodules():
    # scipy.ndimage and scipy.spatial cost about 37 MB and 0.5 s to import;
    # only geom.lipschitz_blowup_check needs one, and imports it itself
    code = ("import sys, cubemax.cli, cubemax.geom; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.ndimage', 'scipy.spatial'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
