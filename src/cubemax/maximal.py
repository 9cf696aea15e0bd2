"""Uncentered maximal operators over grid cubes: global, family, and masked-local.

A NaN cell lies outside the domain: a cube that holds one has no average and
competes nowhere.  The masked-local operator is the global one on f with NaN
off the domain.

The global operator is one descent over side lengths.  Let A_s be the map of
side-``s`` cube averages over anchors and T_s the max of A over every cube of
side at least s that contains the side-``s`` cube at each anchor.  A cube of
side s' > s that contains (a, s) contains one of the at most 2^d cubes of
side s + 1 anchored in {a - 1, a}^d, and each of those contains (a, s); so
T_s = max(A_s, T_{s+1} widened by one cell per axis), where widening takes
the max of two neighbours.  The descent starts with T_S = A_S at S = min(dims),
and the maximal function is T_1 with A_1 = f: a single cell is a cube whose
average is the cell value, read from f rather than from the table.  Every max
is ``np.fmax``, which passes over the NaN that the shared table gives exactly
the boxes holding a NaN cell, so a NaN cell stays NaN.  Max is exact and
order-free, so the result is bit for bit the brute-force max over all cubes
in the domain.  Each side costs O(cells * d) on arrays that
shrink as the side grows.
"""

from __future__ import annotations

import numpy as np

from .cubes import CubeFamily, require_finite_averages
from .errors import EmptyDomain, PremiseViolated, ZeroVariationInput
from .grid import GridFunction, PixelSet, variation
from .sat import SummedAreaTable


def _widen(t: np.ndarray, ax: int) -> np.ndarray:
    """One cell longer along ``ax``: each inner entry is the max of its two
    neighbours in ``t`` and the two end rows are copied."""
    shape = list(t.shape)
    shape[ax] += 1
    w = np.empty(shape)
    pre = (slice(None),) * ax
    np.fmax(t[pre + (slice(None, -1),)], t[pre + (slice(1, None),)], out=w[pre + (slice(1, -1),)])
    w[pre + (0,)] = t[pre + (0,)]
    w[pre + (-1,)] = t[pre + (-1,)]
    return w


def _max_over_containing_cubes(cells: np.ndarray, avg_at) -> np.ndarray:
    """Per cell, the max of the side-``s`` anchor maps over every cube of side
    ``1 <= s <= min(dims)`` that covers it, by descent from ``min(dims)``.

    ``cells`` is the side-1 map, of shape dims, and ``avg_at(s)`` returns a
    fresh side-``s`` map of shape dims - s + 1, which the descent overwrites;
    the widening of the last axis is folded into it by two in-place maxima.
    A NaN anchor holds no cube, and a cell that no cube covers is NaN.
    """
    top = min(cells.shape)
    t = avg_at(top) if top > 1 else cells.copy()
    for side in range(top - 1, 0, -1):
        a = avg_at(side) if side > 1 else cells.copy()
        for ax in range(a.ndim - 1):
            t = _widen(t, ax)
        np.fmax(a[..., :-1], t, out=a[..., :-1])
        np.fmax(a[..., 1:], t, out=a[..., 1:])
        t = a
    return t


def maximal_global(f: GridFunction) -> GridFunction:
    """The sup of averages over every grid cube containing x that holds no
    NaN cell, the cell x itself (average f(x)) included; NaN at NaN cells."""
    out = _max_over_containing_cubes(f.array, SummedAreaTable(f.array).box_avg_grid)
    return GridFunction(f.dims, f.h, out.ravel())


def maximal_family(f: GridFunction, fam: CubeFamily) -> GridFunction:
    """The max of f_Q over the family cubes Q containing x.

    Only family cubes compete, so the family must cover the grid box and
    every member must have a finite average; otherwise
    :class:`PremiseViolated` is raised.
    """
    if fam.averages is None:
        fam = fam.with_averages(f)
    require_finite_averages(fam)
    out = fam.max_paint(fam.averages, f.dims)
    uncovered = np.flatnonzero(np.isneginf(out))
    if uncovered.size:
        cell = np.unravel_index(uncovered[0], f.dims)
        raise PremiseViolated(f"no family cube covers cell {tuple(map(int, cell))}")
    return GridFunction(f.dims, f.h, out.ravel())


def maximal_local(f: GridFunction, omega: PixelSet) -> GridFunction:
    """Maximal function over cubes whose cells all lie inside ``omega``:
    :func:`maximal_global` on f with NaN off ``omega``.

    Single cells are cubes, so on omega the result dominates f; it reads no
    value of f off omega, where it is NaN.  A NaN cell of f inside omega
    lies outside the domain too.
    """
    if omega.count == 0:
        raise EmptyDomain("omega has no cells")
    return maximal_global(GridFunction(f.dims, f.h, np.where(omega.mask, f.array, np.nan).ravel()))


def nonzero_variation(f: GridFunction, mask: PixelSet | None = None) -> float:
    """variation(f) as the denominator of a ratio: a constant input raises."""
    var_f = variation(f, mask)
    if var_f == 0.0:
        raise ZeroVariationInput("input function is constant on the domain")
    return var_f
