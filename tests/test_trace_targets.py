"""The benchmark's tracer wraps cubemax functions by name; every name it
lists must exist, or a traced benchmark run stops with AttributeError."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, _ in spans.TARGETS:
        obj = importlib.import_module(f"cubemax.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert spans.TARGETS and not missing
