"""Uncentered maximal operators over grid cubes: global, family, and masked-local.

The global and masked-local operators share one descent over side lengths.
Let A_s be the map of side-``s`` cube averages over anchors and T_s the max
of A over every cube of side at least s that contains the side-``s`` cube at
each anchor.  A cube of side s' > s that contains (a, s) contains one of the
at most 2^d cubes of side s + 1 anchored in {a - 1, a}^d, and each of those
contains (a, s); so T_s = max(A_s, T_{s+1} widened by one cell per axis),
where widening takes the max of two neighbours.  The descent starts with
T_S = A_S at the largest side S that has a candidate cube (min(dims) for the
global operator, the largest admissible side for the masked-local one), and
the maximal function is T_1 with A_1 = f: a single cell is a cube whose
average is the cell value, read from f rather than from the table.
Max is exact and order-free, so the result is bit for bit the brute-force
max over all cubes when every larger average comes from the one shared
table, and a NaN average reaches exactly the cells its cube covers.  Each
side costs O(cells * d) on arrays that shrink as the side grows.
"""

from __future__ import annotations

import numpy as np

from .cubes import CubeFamily, family_averages
from .errors import EmptyDomain, ZeroVariationInput
from .grid import GridFunction, PixelSet, variation
from .sat import SummedAreaTable

NEG_INF = -np.inf


def _widen(t: np.ndarray, ax: int) -> np.ndarray:
    """One cell longer along ``ax``: each inner entry is the max of its two
    neighbours in ``t`` and the two end rows are copied."""
    shape = list(t.shape)
    shape[ax] += 1
    w = np.empty(shape)
    src, dst = np.moveaxis(t, ax, 0), np.moveaxis(w, ax, 0)
    np.maximum(src[:-1], src[1:], out=dst[1:-1])
    dst[0] = src[0]
    dst[-1] = src[-1]
    return w


def _max_over_containing_cubes(avg_at, top: int) -> np.ndarray:
    """Per cell, the max of the side-``s`` anchor maps ``avg_at(s)`` over every
    cube of side ``1 <= s <= top`` that covers it, by descent from ``top``.

    ``avg_at(s)`` returns a fresh array of shape dims - s + 1, which the
    descent overwrites; the widening of the last axis is folded into it by
    two in-place maxima.
    """
    t = avg_at(top)
    for side in range(top - 1, 0, -1):
        a = avg_at(side)
        for ax in range(a.ndim - 1):
            t = _widen(t, ax)
        np.maximum(a[..., :-1], t, out=a[..., :-1])
        np.maximum(a[..., 1:], t, out=a[..., 1:])
        t = a
    return t


def maximal_global(f: GridFunction) -> GridFunction:
    """The sup of averages over every grid cube containing x, the cell x
    itself (average f(x)) included."""
    sat = SummedAreaTable(f.array)
    out = _max_over_containing_cubes(
        lambda side: f.array.copy() if side == 1 else sat.box_avg_grid(side), min(f.dims))
    return GridFunction(f.dims, f.h, out.ravel())


def maximal_family(f: GridFunction, fam: CubeFamily, include_f: bool = True) -> GridFunction:
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
    return GridFunction(f.dims, f.h, out.ravel())


def maximal_local(f: GridFunction, omega: PixelSet) -> GridFunction:
    """Maximal function over cubes whose cells all lie inside ``omega``.

    Single cells are admissible cubes, so on omega the result dominates f.
    Cells outside omega carry NaN and are excluded from any variation sum.
    """
    if omega.count == 0:
        raise EmptyDomain("omega has no cells")
    dims = f.dims
    satf = SummedAreaTable(f.array)
    satm = SummedAreaTable(omega.mask.astype(np.int64))

    def admissible(side: int) -> np.ndarray:
        return satm.box_sum_grid(side) == side ** len(dims)

    # the sub-cubes of an admissible cube are admissible, so the sides with an
    # admissible anchor are 1..top; bisect for top
    top, hi = 1, min(dims)
    while top < hi:
        mid = (top + hi + 1) // 2
        if admissible(mid).any():
            top = mid
        else:
            hi = mid - 1
    # the admissible single cells are the omega cells, each with average f
    acc = _max_over_containing_cubes(
        lambda side: (np.where(omega.mask, f.array, NEG_INF) if side == 1 else
                      np.where(admissible(side), satf.box_avg_grid(side), NEG_INF)), top)
    out = np.where(omega.mask, acc, np.nan)
    return GridFunction(dims, f.h, out.ravel())


def nonzero_variation(f: GridFunction, mask: PixelSet | None = None) -> float:
    """variation(f) as the denominator of a ratio: a constant input raises."""
    var_f = variation(f, mask)
    if var_f == 0.0:
        raise ZeroVariationInput("input function is constant on the domain")
    return var_f
