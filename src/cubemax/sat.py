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
    compensated summation.  Both query paths add the 2^d signed corner terms
    through one helper, in ascending bitmask order over the axes and in one
    buffer: the first two corners, of opposite signs, enter as one
    subtraction, and each further corner is added or subtracted in place.
    (IEEE-754 makes ``(-x) + y`` and ``x + (-y)`` bit for bit ``y - x`` and
    ``x - y``, signed zeros included, so this equals the sum of the signed
    terms.)  A row of :meth:`box_sum_many` and the entry of
    :meth:`box_sum_grid` for the same cube are therefore bit-identical.
    Integer tables, the NaN counts below included, sum in int64; averages of
    a float table are divided in place.

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
        # corner order is fixed: ascending bitmask over axes; bit k of a corner
        # picks the high end on axis k, and its key lists those bits
        self._corners = [((-1) ** (self.d - bin(b).count("1")), tuple(b >> k & 1 for k in range(self.d)))
                         for b in range(2 ** self.d)]

    def _corner_sum(self, terms: np.ndarray) -> np.ndarray:
        """The signed sum of ``terms[key]`` over the corners, in one fresh buffer."""
        (s0, k0), (_, k1), *rest = self._corners
        acc = np.subtract(terms[k1], terms[k0]) if s0 < 0 else np.subtract(terms[k0], terms[k1])
        for sign, key in rest:
            (np.add if sign > 0 else np.subtract)(acc, terms[key], out=acc)
        return acc

    def box_sum_grid(self, side: int) -> np.ndarray:
        """Sums for every anchor of a side-``side`` cube, shape dims - side + 1.
        The corner terms are one strided view of the table whose entry at key
        (b_0, ..., b_{d-1}) is the table shifted by ``b_k * side`` on axis k."""
        t = self.table
        corners = np.ndarray((2,) * self.d + tuple(n + 1 - side for n in self.dims), t.dtype, t,
                             0, tuple(side * st for st in t.strides) + t.strides)
        acc = self._corner_sum(corners)
        if self.nan_counts is not None:
            np.copyto(acc, np.nan, where=self.nan_counts.box_sum_grid(side) > 0)
        return acc

    def box_sum_many(self, anchors: np.ndarray, sides) -> np.ndarray:
        """Sums for an (n, d) array of anchors with an (n,) array of sides.

        A scalar side is shared by every cube.  Each row adds the same corner
        terms in the same order as :meth:`box_sum_grid`, so it is bit-identical
        to that cube's entry there.
        """
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, self.d)
        sides = np.asarray(sides, dtype=np.int64)
        # one gather of shape (2,) * d + (n,): the index on axis k holds the
        # low and the high end of each cube along its own axis k
        ends = np.stack((anchors, anchors + sides[..., None]))
        acc = self._corner_sum(self.table[tuple(
            ends[:, :, k].reshape((1,) * k + (2,) + (1,) * (self.d - 1 - k) + (-1,)) for k in range(self.d))])
        if self.nan_counts is not None:
            np.copyto(acc, np.nan, where=self.nan_counts.box_sum_many(anchors, sides) > 0)
        return acc

    def box_avg_grid(self, side: int) -> np.ndarray:
        acc = self.box_sum_grid(side)
        if acc.dtype != np.float64:
            return acc / float(side ** self.d)
        acc /= float(side ** self.d)
        return acc

    def box_avg_many(self, anchors: np.ndarray, sides) -> np.ndarray:
        sides = np.asarray(sides, dtype=np.int64)
        return self.box_sum_many(anchors, sides) / (sides ** self.d).astype(np.float64)
