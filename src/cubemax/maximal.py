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
order-free, apart from which of +0.0 and -0.0 it returns when both are the
max, so the result is the brute-force max over all cubes in the domain,
bit for bit up to that sign.  Each side costs O(cells * d) on arrays that
shrink as the side grows.

The descent is the path for d >= 2.  In one dimension it would pay Python
and ufunc dispatch once per side on arrays of about n/2 cells, so there
``maximal_global`` runs an anchor-tiled scan instead
(:func:`_max_over_intervals`): every cube is an interval, and the scan
visits the n^2/2 averages of sides 2 and up a tile of about
``SCAN_TILE_ENTRIES`` entries at a time, with a fixed number of numpy calls
per tile, then takes side 1 by the descent's own last step.  Its output is
the descent's bit for bit, zero signs included, and the tests use the
descent as its oracle.  The gain is in dispatch, not in order of growth:
both do O(n^2) work.  On a 2-core x86 VM the scan took 9-10 ms against
the descent's 19-29 ms at n = 2048, and was 1.2-1.6x faster at n = 16384.
The scan reads the table's corners directly, so it takes its NaN test not
from the table but from its own prefix count of NaN cells: a pair holds a
NaN cell exactly when the count grows across it.

Certified regime: on integer or half-integer cells with box sums below 2^52
in magnitude, table sums are exact and each average is rounded once, so every
cell of ``maximal_global`` and ``maximal_family`` is the exact maximum
correctly rounded, and ``variation`` is exact (tested cell by cell against a
``Fraction`` brute force in d = 1, 2 and 3).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        t = _step_down(avg_at(side) if side > 1 else cells.copy(), t)
    return t


def _step_down(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """T_s from the side-``s`` map ``a``, overwritten, and T_{s+1}."""
    for ax in range(a.ndim - 1):
        t = _widen(t, ax)
    np.fmax(a[..., :-1], t, out=a[..., :-1])
    np.fmax(a[..., 1:], t, out=a[..., 1:])
    return a


SCAN_TILE_ENTRIES = 2 ** 16


def _max_over_intervals(cells: np.ndarray, sat: SummedAreaTable) -> np.ndarray:
    """The descent's result on a 1-d ``cells`` array with its table ``sat``,
    bit for bit, by a scan over tiles of anchor rows.

    The pair (a, c) with a <= c stands for the interval [a, c + 2), of side
    at least 2, which holds the side-2 intervals anchored at a..c; so T_2[x]
    is the max of the pair averages over a <= x <= c.  A tile of r anchors
    [a0, a1) fills rows 1..r of a block whose columns are c >= a0:
    one broadcast ``np.subtract`` of table entries, then an in-place
    division by a sliding window of float sides, the same two IEEE
    operations as ``box_avg_grid``; pairs that hold a NaN cell are set to
    NaN, by a prefix count of the NaN cells that grows across exactly those
    pairs.  Row 0 holds, per column, the max over the anchors before the tile.
    Each row's tail c >= a1 covers the whole tile, so its max goes into
    column a1 - 1; a suffix max along the tile's columns and a prefix max
    down its rows then leave T_2[a0 + t] in row t + 1, column a0 + t, which
    they reach only from rows a <= a0 + t and columns c >= a0 + t, so the
    entries with c < a are never read.  The tail's column max over all rows
    is row 0 of the next tile.

    The max over a set does not depend on the order of the ``np.fmax``
    calls, except in which of +0.0 and -0.0 it returns when both are the
    max (NaN payloads aside).  No average of side 2 or more is -0.0: the
    table's entries P_k with k >= 2 are never -0.0 (the compensation adds a
    running error that is never -0.0), so P_b - P_a with b >= a + 2 is +0.0
    when it is zero (short of a negative sum that underflows in the
    division).  So T_2 is the descent's bit for bit.  A cell of f may be
    -0.0, and numpy's ``fmax`` returns either zero of a +0.0/-0.0 tie
    depending on the element's place in its vector loop, so side 1 is the
    descent's own last step, :func:`_step_down`, on arrays of the same
    shapes.

    A tile has r = ``SCAN_TILE_ENTRIES`` // (n - 1) rows, and costs a fixed
    number of numpy calls; all tiles together touch about n^2/2 entries.
    """
    n = cells.shape[0]
    if n == 1:
        return cells.copy()
    m = n - 1
    r = max(1, min(m, SCAN_TILE_ENTRIES // m))
    p = sat.table
    nan = np.isnan(cells)
    # prefix counts of NaN cells, aligned with the table's entries
    counts = np.concatenate(([0], np.cumsum(nan))) if nan.any() else None
    # window r - 1 - i, column k: k + 2 - i, the side of the pair (a0 + i, a0 + k);
    # below 2 (c < a) it is clamped to 1, for entries that are never read
    sides = sliding_window_view(np.maximum(np.arange(3 - r, m + 2, dtype=np.float64), 1.0), m)
    block = np.empty((r + 1, m))
    block[0] = np.nan
    t2 = np.empty(m)
    for a0 in range(0, m, r):
        a1 = min(a0 + r, m)
        k = a1 - a0
        rows = block[1:k + 1, a0:]
        np.subtract(p[a0 + 2:], p[a0:a1, None], out=rows)
        if counts is not None:
            # NaN counts never decrease, so a pair holds a NaN cell iff they grow
            np.copyto(rows, np.nan, where=counts[a0 + 2:] > counts[a0:a1, None])
        rows /= sides[r - k:r, :m - a0][::-1]
        live = block[:k + 1]
        tail = live[:, a1:]
        if tail.size:
            np.fmax(live[:, a1 - 1], np.fmax.reduce(tail, axis=1), out=live[:, a1 - 1])
            np.fmax.reduce(tail, axis=0, out=block[0, a1:])
        tri = live[:, a0:a1]
        np.fmax.accumulate(tri[:, ::-1], axis=1, out=tri[:, ::-1])
        np.fmax.accumulate(tri, axis=0, out=tri)
        t2[a0:a1] = tri[1:].diagonal()
    return _step_down(cells.copy(), t2)


def maximal_global(f: GridFunction) -> GridFunction:
    """The sup of averages over every grid cube containing x that holds no
    NaN cell, the cell x itself (average f(x)) included; NaN at NaN cells.
    By the tiled scan in one dimension and by the descent otherwise."""
    if f.d == 1:
        # the scan reads only the table's sums and counts NaN cells itself;
        # a NaN cell enters the table as 0 either way, but built from a
        # NaN-free copy the table skips its unread NaN windows
        out = _max_over_intervals(f.array, SummedAreaTable(np.nan_to_num(f.array, nan=0.0)))
    else:
        out = _max_over_containing_cubes(f.array, SummedAreaTable(f.array).box_avg_grid)
    return GridFunction(f.dims, out.ravel())


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
    return GridFunction(f.dims, out.ravel())


def maximal_local(f: GridFunction, omega: PixelSet) -> GridFunction:
    """Maximal function over cubes whose cells all lie inside ``omega``:
    :func:`maximal_global` on f with NaN off ``omega``.

    Single cells are cubes, so on omega the result dominates f; it reads no
    value of f off omega, where it is NaN.  A NaN cell of f inside omega
    lies outside the domain too.
    """
    if omega.count == 0:
        raise EmptyDomain("omega has no cells")
    return maximal_global(GridFunction(f.dims, np.where(omega.mask, f.array, np.nan).ravel()))


def nonzero_variation(f: GridFunction, mask: PixelSet | None = None) -> float:
    """variation(f) as the denominator of a ratio: a constant input raises."""
    var_f = variation(f, mask)
    if var_f == 0.0:
        raise ZeroVariationInput("input function is constant on the domain")
    return var_f
