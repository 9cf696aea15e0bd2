"""File formats: grid CSV and binary, family JSON, canonical report JSON,
and numeric column tables (CSV and gnuplot-ready data)."""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .cubes import CubeFamily
from .errors import GridFormatError
from .grid import GridFunction

MAGIC = b"CUBEMAX1"


def write_grid_csv(f: GridFunction, path) -> None:
    """One row per grid line (d = 1 or 2); the cell width and the dimension
    ride in comments."""
    if f.d > 2:
        raise ValueError("CSV grids support d <= 2; use the binary format")
    arr = f.array if f.d == 2 else f.array.reshape(1, -1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# h={f.h!r}\n# d={f.d}\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid_csv(path) -> GridFunction:
    """The grid of a CSV file; without a ``# d=`` comment one row reads as 1-d.

    Ragged rows, a non-numeric cell or a malformed ``h``/``d`` comment raise
    :class:`GridFormatError`.
    """
    meta = {}
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, eq, value = line[1:].partition("=")
                    if eq:
                        meta[key.strip()] = value
                elif line:
                    rows.append([float(x) for x in line.split(",")])
        h = float(meta.get("h", 1.0))
        d = int(meta.get("d", 1 if len(rows) == 1 else 2))
    except ValueError as exc:
        raise GridFormatError(f"grid CSV: {exc}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise GridFormatError(f"grid CSV needs rows of one common width, got widths {sorted(widths)}")
    if d not in (1, 2) or d == 1 and len(rows) != 1:
        raise GridFormatError(f"grid CSV of {len(rows)} rows cannot hold a grid of d={d}")
    arr = np.array(rows, dtype=np.float64)
    return GridFunction(arr.shape if d == 2 else arr.shape[1:], h, arr.ravel())


def write_grid_binary(f: GridFunction, path) -> None:
    """Little-endian: magic, u32 d, u32 dims[d], f64 h, f64 values."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", f.d))
        fh.write(struct.pack(f"<{f.d}I", *f.dims))
        fh.write(struct.pack("<d", f.h))
        fh.write(f.values.astype("<f8").tobytes())


def read_grid_binary(path) -> GridFunction:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise GridFormatError("bad magic; not a cubemax grid file")
    try:
        (d,) = struct.unpack_from("<I", raw, 8)
        dims = struct.unpack_from(f"<{d}I", raw, 12)
        (h,) = struct.unpack_from("<d", raw, 12 + 4 * d)
    except struct.error as exc:
        raise GridFormatError(f"grid file header cut short: {exc}") from None
    off = 20 + 4 * d
    n = int(np.prod(dims))
    if len(raw) != off + 8 * n:
        raise GridFormatError(
            f"grid file holds {len(raw) - off} value bytes, dims {dims} need {8 * n}")
    values = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
    return GridFunction(dims, h, values.copy())


def family_to_json(fam: CubeFamily, dims, h: float) -> dict:
    return {
        "dims": list(dims),
        "h": h,
        "cubes": [{"anchor": a, "side": s} for a, s in zip(fam.anchors.tolist(), fam.sides.tolist())],
    }


def _ints(values) -> bool:
    return isinstance(values, list) and all(type(v) is int for v in values)


def family_from_json(obj: dict) -> tuple[CubeFamily, tuple[int, ...], float]:
    """(family, dims, h) of a family file body.

    A missing key, a non-integer anchor or side, an anchor whose length is
    not ``len(dims)``, an ``h`` that is not finite and positive, a ``dims``
    entry below 1, a side below 1 or a cube outside ``dims`` raise
    :class:`GridFormatError`.
    """
    try:
        dims, h, rows = obj["dims"], float(obj["h"]), obj["cubes"]
        anchors, sides = [c["anchor"] for c in rows], [c["side"] for c in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise GridFormatError(f"family JSON needs dims, h and cubes with anchor and side: {exc!r}") from None
    if not (_ints(dims) and _ints(sides) and all(_ints(a) and len(a) == len(dims) for a in anchors)):
        raise GridFormatError("family JSON needs integer dims, sides and anchors of length len(dims)")
    if not (math.isfinite(h) and h > 0) or any(n < 1 for n in dims):
        raise GridFormatError(f"family JSON needs a finite positive h and dims of at least 1, "
                              f"got h={h!r}, dims={dims}")
    a = np.array(anchors, dtype=np.int64).reshape(len(sides), len(dims))
    s = np.array(sides, dtype=np.int64)
    if np.any(s < 1) or np.any(a < 0) or np.any(a + s[:, None] > dims):
        raise GridFormatError(f"family JSON has a side below 1 or a cube outside dims {dims}")
    return CubeFamily.from_arrays(a, s), tuple(dims), h


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(f'{pad}  "{k}": {canonical_json(obj[k], indent + 2).lstrip()}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 2).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_report(report: dict, out_dir) -> Path:
    """``report.json`` in the existing directory ``out_dir``, as canonical JSON."""
    path = Path(out_dir) / "report.json"
    path.write_text(canonical_json(report) + "\n", encoding="utf-8")
    return path


def write_columns(path, columns, sep: str, first_line: str) -> None:
    """``first_line``, then one line per row of the numeric columns joined by
    ``sep``: integers as ``str`` prints them, floats at 17 significant digits."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        for row in zip(*cols):
            fh.write(sep.join(_fmt_float(float(v)) if isinstance(v, np.floating)
                              else str(v) for v in row) + "\n")
