"""The library must not rely on checks that ``python -O`` strips."""

import ast
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
