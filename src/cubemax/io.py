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


def _require_width(h: float, what: str) -> float:
    """``h`` as a float, or :class:`GridFormatError` unless it is finite and positive."""
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise GridFormatError(f"{what} needs a finite positive h, got h={h!r}")
    return h


def write_grid_csv(f: GridFunction, h: float, path) -> None:
    """One row per grid line (d = 1 or 2); the cell width ``h`` and the
    dimension ride in comments."""
    if f.d > 2:
        raise ValueError("CSV grids support d <= 2; use the binary format")
    h = _require_width(h, "grid CSV")
    arr = f.array if f.d == 2 else f.array.reshape(1, -1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# h={h!r}\n# d={f.d}\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid_csv(path) -> tuple[GridFunction, float]:
    """(grid, cell width h) of a CSV file; without a ``# d=`` comment one row
    reads as 1-d, and without a ``# h=`` comment h is 1.

    Ragged rows, a non-numeric cell, a malformed ``h``/``d`` comment or an
    ``h`` that is not finite and positive raise :class:`GridFormatError`.
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
    return GridFunction(arr.shape if d == 2 else arr.shape[1:], arr.ravel()), \
        _require_width(h, "grid CSV")


def write_grid_binary(f: GridFunction, h: float, path) -> None:
    """Little-endian: magic, u32 d, u32 dims[d], f64 h, f64 values."""
    h = _require_width(h, "grid file")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", f.d))
        fh.write(struct.pack(f"<{f.d}I", *f.dims))
        fh.write(struct.pack("<d", h))
        fh.write(f.values.astype("<f8").tobytes())


def read_grid_binary(path) -> tuple[GridFunction, float]:
    """(grid, cell width h) of a binary grid file; a bad magic, a cut or long
    body or an ``h`` that is not finite and positive raise :class:`GridFormatError`."""
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
    return GridFunction(dims, values.copy()), _require_width(h, "grid file")


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
        dims, h, rows = obj["dims"], _require_width(obj["h"], "family JSON"), obj["cubes"]
        anchors, sides = [c["anchor"] for c in rows], [c["side"] for c in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise GridFormatError(f"family JSON needs dims, a finite positive h and cubes with "
                              f"anchor and side: {exc!r}") from None
    if not (_ints(dims) and _ints(sides) and all(_ints(a) and len(a) == len(dims) for a in anchors)):
        raise GridFormatError("family JSON needs integer dims, sides and anchors of length len(dims)")
    if any(n < 1 for n in dims):
        raise GridFormatError(f"family JSON needs dims of at least 1, got dims={dims}")
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


def format_column(column) -> list[str]:
    """A numeric column as text: floats at 17 significant digits (``NaN``,
    ``Infinity``, ``-Infinity`` if not finite), other dtypes as ``str`` prints them."""
    arr = np.asarray(column)
    values = arr.tolist()
    if arr.dtype.kind != "f":
        return list(map(str, values))
    texts = list(map("%.17g".__mod__, values))  # the digits of format(x, ".17g")
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        texts[i] = _fmt_float(values[i])
    return texts


def write_columns(path, columns, sep: str, first_line: str, memo: dict | None = None) -> None:
    """``first_line``, then one line per row of the numeric columns joined by
    ``sep``, each column formatted whole by :func:`format_column`.  Columns of
    unequal lengths raise ``ValueError``.  A column object already formatted
    under the same ``memo`` dict is not formatted again."""
    memo = {} if memo is None else memo
    for c in columns:  # an entry holds its column, so no other object takes its id
        memo[id(c)] = memo.get(id(c)) or (c, format_column(c))
    texts = [memo[id(c)][1] for c in columns]
    if len({len(t) for t in texts}) > 1:
        raise ValueError(f"columns need one common length, got lengths {[len(t) for t in texts]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([first_line, *map(sep.join, zip(*texts))]) + "\n")
