"""The benchmark's tracer wraps cubemax functions by name and counts from
their arguments and results; every name it lists must exist, and the
selection counters must read the types the library returns, or a traced
benchmark run stops."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cubemax import CubeFamily, GridCube, dyadic_descendants, grid_from_array
from cubemax.sparse import default_contraction, disjoint_select, greedy_sparse

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    missing = []
    for module, attr, _ in spans.TARGETS:
        obj = importlib.import_module(f"cubemax.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert spans.TARGETS and not missing


def test_selection_counters_read_real_calls(spans):
    # one spike on an 8x8 grid: the greedy selection keeps some of the
    # dyadic cubes, and the first of them keys its own descendants
    f = grid_from_array(np.eye(1, 64, 27).reshape(8, 8))
    fam = dyadic_descendants(GridCube((0, 0), 8)).with_averages(f)
    sp = greedy_sparse(f, fam)
    assert spans._greedy((f, fam), {}, sp) == {"cubes_in": len(fam), "kept": len(sp)}

    q0 = sp.cubes[0]
    d_map = {q0: dyadic_descendants(q0)}
    args = (CubeFamily([q0]), d_map, default_contraction(2), f)
    out = disjoint_select(*args)
    counts = spans._disjoint_select(args, {}, out)
    assert counts == {"cubes_in": len(d_map[q0]), "kept": len(out.cubes)}
    assert 0 < counts["kept"] < counts["cubes_in"]
