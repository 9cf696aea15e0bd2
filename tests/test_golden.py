"""Every output file of every CLI command, at the default config and the golden
seeds, is byte-identical to the recorded one under ``tests/golden/``.

A mismatch lists the JSON path of each moved report field with its old and new
value, and the first differing line of each table.  ``geom`` draws normals
and exponentials from numpy ``Generator`` streams, which numpy may change
between releases, so the failure names a numpy version other than the
recorded one.  Re-record with ``PYTHONPATH=src python tests/record_golden.py``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from record_golden import CASES, GOLDEN, UNPINNED, case_dir, run_case

MAX_FIELDS = 20


def _moved_fields(old, new, path: str = ""):
    """(path, old, new) for each leaf that differs between two parsed bodies."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                yield sub, old.get(key, "<absent>"), new.get(key, "<absent>")
            else:
                yield from _moved_fields(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved_fields(a, b, f"{path}[{i}]")
    elif not (old == new and type(old) is type(new)
              or isinstance(old, float) and isinstance(new, float)
              and math.isnan(old) and math.isnan(new)):
        yield path, old, new


def _first_line_diff(old: bytes, new: bytes) -> str:
    a, b = old.decode().splitlines(), new.decode().splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return f"{len(a)} lines -> {len(b)} lines"


def describe(name: str, old: bytes, new: bytes) -> list[str]:
    if not name.endswith(".json"):
        return [f"  {name}: {_first_line_diff(old, new)}"]
    moved = list(_moved_fields(json.loads(old), json.loads(new)))
    if not moved:
        return [f"  {name}: same values, other bytes; {_first_line_diff(old, new)}"]
    lines = [f"  {name}: {len(moved)} moved field(s)"]
    lines += [f"    {path}: {a!r} -> {b!r}" for path, a, b in moved[:MAX_FIELDS]]
    if len(moved) > MAX_FIELDS:
        lines.append(f"    ... and {len(moved) - MAX_FIELDS} more")
    return lines


def _recorded_numpy() -> str:
    return (GOLDEN / "numpy_version.txt").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("command, seed", CASES, ids=[f"{c}-seed{s}" for c, s in CASES])
def test_outputs_match_golden(command, seed, tmp_path):
    want = {p.name: p.read_bytes() for p in sorted(case_dir(command, seed).iterdir())}
    got = run_case(command, seed, tmp_path / "out")
    if got == want:
        return
    lines = [f"{command} --seed {seed} output differs from {case_dir(command, seed)}:"]
    for name in sorted(set(want) | set(got)):
        if name not in got:
            lines.append(f"  {name}: recorded, not written")
        elif name not in want:
            lines.append(f"  {name}: written, not recorded")
        elif got[name] != want[name]:
            lines += describe(name, want[name], got[name])
    if _recorded_numpy() != np.__version__:
        lines.append(f"numpy is {np.__version__}, the files were recorded with "
                     f"{_recorded_numpy()}; its Generator streams may differ")
    pytest.fail("\n".join(lines))


def test_golden_files_cover_every_case():
    recorded = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
    assert recorded == sorted(case_dir(c, s).name for c, s in CASES)
    assert not any((case_dir(c, s) / name).exists() for c, s in CASES for name in UNPINNED)


class TestDiff:
    def test_names_moved_json_fields(self):
        old = b'{"a": {"b": [1, 2.5]}, "c": NaN, "d": 1}'
        new = b'{"a": {"b": [1, 2.5000000000000004]}, "c": NaN, "e": 1}'
        assert describe("report.json", old, new) == [
            "  report.json: 3 moved field(s)",
            "    a.b[1]: 2.5 -> 2.5000000000000004",
            "    d: 1 -> '<absent>'",
            "    e: '<absent>' -> 1",
        ]

    def test_names_first_differing_table_line(self):
        assert describe("ratios.csv", b"x,y\n0,1\n1,2\n", b"x,y\n0,1\n1,3\n") == [
            "  ratios.csv: line 3: '1,2' -> '1,3'"]

    def test_int_and_float_of_equal_value_differ(self):
        assert list(_moved_fields({"a": 1}, {"a": 1.0})) == [("a", 1, 1.0)]
