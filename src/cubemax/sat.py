"""Summed-area tables for O(2^d) box sums and averages."""

from __future__ import annotations

import numpy as np


def _compensated_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    """Neumaier-compensated running sums along one axis.

    The running sums are ``np.cumsum`` (numpy accumulates left to right), the
    error of each step follows from the sums before and after it, and the
    running total of those errors, started at 0, corrects every sum after the
    first.  Two scratch arrays of the input's size hold the errors.
    """
    a = np.moveaxis(np.asarray(a, dtype=np.float64), axis, 0)
    s = np.cumsum(a, axis=0)
    prev, x, t = s[:-1], a[1:], s[1:]
    err = np.empty_like(s)
    err[0] = 0.0
    step, other = err[1:], np.empty_like(x)
    np.abs(prev, out=step)
    np.abs(x, out=other)
    swap = step >= other
    np.subtract(prev, t, out=step)
    step += x
    np.subtract(x, t, out=other)
    other += prev
    np.copyto(step, other, where=~swap)
    np.cumsum(err, axis=0, out=err)
    t += err[1:]
    return np.moveaxis(s, 0, axis)


class SummedAreaTable:
    """Prefix-sum table over a d-dimensional cell array.

    Integer inputs keep exact integer sums; float inputs are accumulated with
    compensated summation.  Both query paths share one corner-accumulation
    order, so a row of :meth:`box_sum_many` and the entry of
    :meth:`box_sum_grid` for the same cube are bit-identical.

    A NaN cell enters the float table as 0, and an integer table of NaN
    counts, kept only when there is a NaN cell, makes exactly the boxes that
    hold one sum to NaN; no other box sum depends on the NaN cells.
    """

    nan_counts: SummedAreaTable | None = None

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array)
        self.dims = arr.shape
        self.d = arr.ndim
        if np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool:
            table = np.zeros(tuple(n + 1 for n in arr.shape), dtype=np.int64)
            table[(slice(1, None),) * self.d] = arr
            for ax in range(self.d):
                np.cumsum(table, axis=ax, out=table)
        else:
            core = arr.astype(np.float64, copy=True)
            nan = np.isnan(core)
            if nan.any():
                self.nan_counts = SummedAreaTable(nan)
                core[nan] = 0.0
            for ax in range(self.d):
                core = _compensated_cumsum(core, ax)
            table = np.zeros(tuple(n + 1 for n in arr.shape), dtype=np.float64)
            table[(slice(1, None),) * self.d] = core
        self.table = table
        # corner order is fixed: ascending bitmask over axes
        self._corners = []
        for bits in range(2 ** self.d):
            ones = bin(bits).count("1")
            sign = 1 if (self.d - ones) % 2 == 0 else -1
            self._corners.append((sign, bits))

    def box_sum_grid(self, side: int) -> np.ndarray:
        """Sums for every anchor of a side-``side`` cube, shape dims - side + 1."""
        acc = None
        for sign, bits in self._corners:
            sl = tuple(slice(side, None) if (bits >> k) & 1 else slice(0, n + 1 - side)
                       for k, n in enumerate(self.dims))
            term = self.table[sl]
            acc = sign * term if acc is None else acc + sign * term
        if self.nan_counts is not None:
            acc[self.nan_counts.box_sum_grid(side) > 0] = np.nan
        return acc

    def box_sum_many(self, anchors: np.ndarray, sides) -> np.ndarray:
        """Sums for an (n, d) array of anchors with an (n,) array of sides.

        A scalar side is shared by every cube.  Each row adds the same corner
        terms in the same order as :meth:`box_sum_grid`, so it is bit-identical
        to that cube's entry there.
        """
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, self.d)
        sides = np.asarray(sides, dtype=np.int64)
        acc = None
        for sign, bits in self._corners:
            ix = tuple(anchors[:, k] + (sides if (bits >> k) & 1 else 0)
                       for k in range(self.d))
            term = self.table[ix]
            acc = sign * term if acc is None else acc + sign * term
        if self.nan_counts is not None:
            acc[self.nan_counts.box_sum_many(anchors, sides) > 0] = np.nan
        return acc

    def box_avg_grid(self, side: int) -> np.ndarray:
        return self.box_sum_grid(side) / float(side ** self.d)

    def box_avg_many(self, anchors: np.ndarray, sides) -> np.ndarray:
        sides = np.asarray(sides, dtype=np.int64)
        return self.box_sum_many(anchors, sides) / (sides ** self.d).astype(np.float64)
