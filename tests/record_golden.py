"""Record the golden output files that ``test_golden.py`` compares against.

Runs every CLI command at the default config and the golden seeds, and writes
each output file except ``timings.json`` to ``tests/golden/<command>-seed<N>/``,
with the numpy version in ``tests/golden/numpy_version.txt``.  Re-record only
when a change moves report values on purpose, and list the fields it moved:

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from cubemax.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (0, 3)
CASES = [(command, seed) for command in COMMANDS for seed in SEEDS]
# wall-clock seconds, the only output that differs between runs
UNPINNED = {"timings.json"}


def case_dir(command: str, seed: int) -> Path:
    return GOLDEN / f"{command}-seed{seed}"


def run_case(command: str, seed: int, out: Path) -> dict[str, bytes]:
    """Exit code check plus the bytes of every pinned output file, by name."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{command} --seed {seed} exited {code}")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name not in UNPINNED}


def record() -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command, seed in CASES:
            target = case_dir(command, seed)
            target.mkdir()
            for name, data in run_case(command, seed, Path(tmp) / target.name).items():
                (target / name).write_bytes(data)
                count += 1
    (GOLDEN / "numpy_version.txt").write_text(np.__version__ + "\n", encoding="utf-8")
    print(f"wrote {count} files for {len(CASES)} runs under {GOLDEN} (numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(record())
