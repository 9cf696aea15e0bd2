"""Uncentered maximal operators over grid cubes: global, family, and masked-local.

The global operator is computed per side length: a prefix-sum table yields the
average map over anchors, and d separable trailing-window maxima spread each
average to every cell the cube covers.  Each window max is taken in place by
doubling shifts, so the cost is O(cells * d * log side) per side length.
All candidate averages come from one shared table, so a brute-force
enumeration over cubes reproduces the result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubes import CubeFamily, family_averages
from .errors import EmptyDomain, ZeroVariationInput
from .grid import GridFunction, PixelSet, variation
from .sat import SummedAreaTable

NEG_INF = -np.inf


@dataclass(frozen=True)
class MaxFunction:
    """A computed maximal function with its provenance.

    ``domain`` is set for masked-local results; cells outside it hold NaN
    sentinels and must never enter variation sums.
    """

    func: GridFunction
    source: str  # "global" | "family" | "local-masked"
    domain: PixelSet | None = None

    @property
    def values(self) -> np.ndarray:
        return self.func.values

    @property
    def array(self) -> np.ndarray:
        return self.func.array


def _spread_anchor_max(avg: np.ndarray, side: int, dims: tuple[int, ...]) -> np.ndarray:
    """From an anchor-indexed average map, the per-cell max over covering anchors.

    Along each axis the trailing window of ``side`` cells grows in place by
    doubling: a window of ``span`` cells and its copy shifted by
    ``s <= span`` make a window of ``span + s``.  numpy reads overlapping
    ufunc operands as they were before the call, so each shift is exact.
    """
    full = np.full(dims, NEG_INF)
    full[tuple(slice(0, n) for n in avg.shape)] = avg
    for ax in range(len(dims)):
        line = np.moveaxis(full, ax, 0)
        span = 1
        while span < side:
            s = min(span, side - span)
            np.maximum(line[s:], line[:-s], out=line[s:])
            span += s
    return full


def maximal_global(f: GridFunction) -> MaxFunction:
    """max(f(x), sup of averages over every grid cube containing x)."""
    dims = f.dims
    sat = SummedAreaTable(f.array)
    out = f.array.copy()
    for side in range(1, min(dims) + 1):
        avg = sat.box_avg_grid(side)
        np.maximum(out, _spread_anchor_max(avg, side, dims), out=out)
    return MaxFunction(GridFunction(dims, f.h, out.ravel()), "global")


def maximal_family(f: GridFunction, fam: CubeFamily, include_f: bool = True) -> MaxFunction:
    """Maximal function over an explicit cube family.

    With ``include_f`` (the default) the value at x is
    max(f(x), max of f_Q over family cubes containing x); without it the
    family must cover the whole box and only cube averages compete.
    """
    avgs = fam.averages if fam.averages is not None else family_averages(f, fam)
    out = fam.max_paint(avgs, f.dims)
    if include_f:
        out = np.maximum(f.array, out)
    elif not np.all(np.isfinite(out)):
        raise ValueError("family does not cover the grid box; no value at some cells")
    return MaxFunction(GridFunction(f.dims, f.h, out.ravel()), "family")


def maximal_local(f: GridFunction, omega: PixelSet) -> MaxFunction:
    """Maximal function over cubes whose cells all lie inside ``omega``.

    Single cells are admissible cubes, so on omega the result dominates f.
    Cells outside omega carry NaN and are excluded from any variation sum.
    """
    if omega.count == 0:
        raise EmptyDomain("omega has no cells")
    dims = f.dims
    satf = SummedAreaTable(f.array)
    satm = SummedAreaTable(omega.mask.astype(np.int64))
    # a single cell is an admissible cube at every omega cell and its average
    # is the exact cell value, free of prefix-sum roundoff
    acc = np.where(omega.mask, f.array, NEG_INF)
    for side in range(1, min(dims) + 1):
        counts = satm.box_sum_grid(side)
        admissible = counts == side ** len(dims)
        if not admissible.any():
            break  # an inadmissible side stays inadmissible at larger sides
        avg = np.where(admissible, satf.box_avg_grid(side), NEG_INF)
        np.maximum(acc, _spread_anchor_max(avg, side, dims), out=acc)
    out = np.where(omega.mask, acc, np.nan)
    return MaxFunction(GridFunction(dims, f.h, out.ravel()), "local-masked", omega)


def variation_ratio(f: GridFunction, mf: MaxFunction, mask: PixelSet | None = None) -> float:
    """variation(M f) / variation(f) over a common domain."""
    if mask is None:
        mask = mf.domain
    var_f = variation(f, mask)
    if var_f == 0.0:
        raise ZeroVariationInput("input function is constant on the domain")
    return variation(mf.func, mask) / var_f
