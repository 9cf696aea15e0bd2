"""Grid functions, pixel sets, and exact perimeter / variation arithmetic.

Conventions used throughout the package:

* A grid function samples one real value per cell of a d-dimensional box,
  d in {1, 2, 3}.  Values are stored flat, row-major.
* Lengths are in cells, so cube corners are integers and every measure
  below is a count or a plain sum.  Averages and ratios do not depend on
  the cell width; :mod:`cubemax.experiments` takes each (d-1)-measure of a
  report to it by one factor, after every ratio is taken.
* The domain is the *open* interior of the box (or of an explicit mask), so
  boundary faces against the outside of the domain are never counted.
* The discrete perimeter of a pixel set is the anisotropic face count: the
  number of unit faces separating an inside cell from an outside cell, both
  lying in the domain.
* The variation is the gradient sum ``sum |f(x) - f(y)|`` over adjacent
  in-domain cell pairs.  With the face-count perimeter the coarea
  identity ``var f = sum over level gaps of gap * perimeter(superlevel)``
  holds up to float summation order; the tests check it against per-level
  perimeters within rel 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension


def _as_dims(dims: Sequence[int]) -> tuple[int, ...]:
    t = tuple(int(n) for n in dims)
    if not 1 <= len(t) <= 3:
        raise UnsupportedDimension(f"d={len(t)} not in {{1,2,3}}")
    if any(n <= 0 for n in t):
        raise ValueError(f"dims must be positive, got {t}")
    return t


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on a d-dimensional cell grid."""

    dims: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        vals = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if vals.size != int(np.prod(dims)):
            raise ValueError(f"{vals.size} values for dims {dims}")
        if np.any(np.isinf(vals)):
            raise ValueError("grid values must be finite (NaN marks masked cells)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def array(self) -> np.ndarray:
        """Values reshaped to the grid box (read-only view)."""
        return self.values.reshape(self.dims)

    @property
    def cell_count(self) -> int:
        return self.values.size


def grid_from_array(arr: np.ndarray) -> GridFunction:
    arr = np.asarray(arr, dtype=np.float64)
    return GridFunction(arr.shape, arr.ravel())


@dataclass(frozen=True)
class PixelSet:
    """An exact subset of grid cells, stored as a boolean array."""

    dims: tuple[int, ...]
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        m = np.ascontiguousarray(self.mask, dtype=bool).reshape(dims)
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @classmethod
    def empty(cls, dims: Sequence[int]) -> "PixelSet":
        dims = _as_dims(dims)
        return cls(dims, np.zeros(dims, dtype=bool))

    @classmethod
    def full(cls, dims: Sequence[int]) -> "PixelSet":
        dims = _as_dims(dims)
        return cls(dims, np.ones(dims, dtype=bool))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __or__(self, other: "PixelSet") -> "PixelSet":
        self._check(other)
        return PixelSet(self.dims, self.mask | other.mask)

    def __and__(self, other: "PixelSet") -> "PixelSet":
        self._check(other)
        return PixelSet(self.dims, self.mask & other.mask)

    def __sub__(self, other: "PixelSet") -> "PixelSet":
        self._check(other)
        return PixelSet(self.dims, self.mask & ~other.mask)

    def equals(self, other: "PixelSet") -> bool:
        self._check(other)
        return bool(np.array_equal(self.mask, other.mask))

    def _check(self, other: "PixelSet") -> None:
        if self.dims != other.dims:
            raise DimensionMismatch(f"{self.dims} vs {other.dims}")


def superlevel(f: GridFunction, lam: float) -> PixelSet:
    """Cells where ``f >= lam``.  Sentinel (NaN) cells always compare False."""
    return PixelSet(f.dims, f.array >= lam)


def _directed_face_count(src: np.ndarray, dst: np.ndarray) -> int:
    """Faces with a ``src`` cell on one side and an adjacent ``dst`` cell on the other."""
    total = 0
    for ax in range(src.ndim):
        a = np.moveaxis(src, ax, 0)
        b = np.moveaxis(dst, ax, 0)
        total += int(np.count_nonzero(a[:-1] & b[1:]))
        total += int(np.count_nonzero(a[1:] & b[:-1]))
    return total


def perimeter(E: PixelSet, mask: PixelSet | None = None) -> int:
    """Face count of the boundary of ``E`` inside the open domain.

    Counts faces between a cell in ``E & mask`` and an adjacent cell in
    ``mask - E``.  Without a mask the domain is the open grid box, so faces
    on the outer box boundary are not counted.
    """
    if mask is not None and mask.dims != E.dims:
        raise DimensionMismatch(f"{E.dims} vs {mask.dims}")
    dom = mask.mask if mask is not None else np.ones(E.dims, dtype=bool)
    return _directed_face_count(E.mask & dom, dom & ~E.mask)


def boundary_faces_outside(E: PixelSet, closed: PixelSet,
                           mask: PixelSet | None = None) -> int:
    """Face count of ``boundary(E)`` minus the closure of ``closed``.

    A boundary face is the interface between an inside and an outside cell;
    it lies in the closure of a pixel set iff either adjacent cell belongs
    to the set, so surviving faces are those of ``E`` in the domain with
    ``closed`` removed.
    """
    dom = ~closed.mask if mask is None else mask.mask & ~closed.mask
    return perimeter(E, PixelSet(E.dims, dom))


def variation(f: GridFunction, mask: PixelSet | None = None) -> float:
    """Total variation as the gradient sum over the domain.

    Sums ``|f(x) - f(y)|`` over adjacent cells ``x, y`` that both
    lie in the mask (the whole box without one).  By the coarea identity this
    equals the sum over consecutive distinct values of the gap times the
    perimeter of the upper superlevel set.  Per axis the differences are summed
    in C order of the array with that axis first (a copy for the later axes);
    a mask only drops entries from that sequence, and none is built without one.
    """
    if mask is not None and mask.dims != f.dims:
        raise DimensionMismatch(f"{f.dims} vs {mask.dims}")
    arr, dom = f.array, None if mask is None else mask.mask
    if not np.all(np.isfinite(arr if dom is None else arr[dom])):
        raise ValueError("variation requires finite values on the domain")
    total = 0.0
    for ax in range(f.d):
        v = np.moveaxis(arr, ax, 0)
        step = v[1:] - v[:-1]
        np.abs(step, out=step)
        if dom is not None:
            m = np.moveaxis(dom, ax, 0)
            step = step[m[1:] & m[:-1]]
        total += float(np.sum(step.ravel()))
    return total


def lambda_breakpoints(f: GridFunction, extra: np.ndarray | Sequence[float] = ()) -> np.ndarray:
    """Sorted, deduplicated union of all cell values and the given extras.

    Every level-set quantity in the package is constant on each open interval
    between consecutive breakpoints, so integrals over the level parameter
    reduce to exact finite sums (see :func:`integrate_breakpoints`).
    """
    extra = np.asarray(extra, dtype=np.float64)
    vals = f.values[np.isfinite(f.values)]
    return np.unique(np.concatenate((vals, extra)))


def integrate_breakpoints(breakpoints: np.ndarray, values_at: np.ndarray,
                          lower: float | None = None) -> float:
    """Exact integral of a step function over the level parameter.

    ``values_at[i]`` is the integrand on the interval
    ``(breakpoints[i-1], breakpoints[i]]``; the integrand vanishes outside
    the breakpoint hull.  When ``lower`` is given, only intervals starting
    at or above it contribute (``lower`` must itself be a breakpoint).
    """
    b = np.asarray(breakpoints, dtype=np.float64)
    g = np.asarray(values_at, dtype=np.float64)
    if b.size != g.size:
        raise ValueError("breakpoints and values must align")
    if b.size < 2:
        return 0.0
    gaps = np.diff(b)
    contrib = gaps * g[1:]
    if lower is not None:
        contrib = contrib[b[:-1] >= lower]
    return float(np.sum(contrib))
