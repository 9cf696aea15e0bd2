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


def _and_over_shifts(t: np.ndarray, r: int, shape: tuple[int, ...]) -> np.ndarray:
    """Per entry of an array of ``shape``, the AND of ``t`` at that entry
    shifted by every offset in {0, r}^d, taken one axis at a time."""
    t = t[tuple(slice(0, m + r) for m in shape)]
    if r:
        for ax, m in enumerate(shape):
            pre = (slice(None),) * ax
            t = t[pre + (slice(0, m),)] & t[pre + (slice(r, r + m),)]
    return t


def _free_windows(free: np.ndarray) -> np.ndarray:
    """The levels ``free[k]`` for 2^k <= min(dims), stacked: level k at an
    anchor is whether the side-2^k window there holds only ``free`` cells."""
    dims = free.shape
    levels = np.zeros((min(dims).bit_length(),) + dims, dtype=bool)
    levels[0] = free
    for k in range(len(levels) - 1):
        w = 2 ** k
        shape = tuple(n - 2 * w + 1 for n in dims)
        levels[(k + 1,) + tuple(slice(0, m) for m in shape)] = _and_over_shifts(levels[k], w, shape)
    return levels


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
    Integer tables sum in int64; averages of a float table are divided in
    place.

    A NaN cell enters the float table as 0, and exactly the boxes that hold
    one sum to NaN; no other box sum depends on the NaN cells.  When there is
    a NaN cell, ``free[k]`` tells for every anchor whether the side-2^k
    window there holds no NaN cell: ``free[0]`` is the cells that are not
    NaN, and ``free[k + 1]`` is ``free[k]`` and-ed over the shifts
    {0, 2^k}^d, one axis at a time.  A box of side s, with 2^k <= s < 2^(k+1),
    is the union of the 2^d side-2^k windows at its anchor shifted by
    {0, s - 2^k}^d, so it holds no NaN cell exactly when ``free[k]`` holds at
    all of them (the sparse-table range query of Bender and Farach-Colton,
    "The LCA problem revisited", 2000).  Levels are stacked in one boolean
    array of shape (k_max + 1,) + dims; the entries of level k past
    dims - 2^k are never read.
    """

    free: np.ndarray | None = None

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
                self.free = _free_windows(~nan)
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
        if self.free is not None:
            k = int(side).bit_length() - 1
            np.copyto(acc, np.nan, where=~_and_over_shifts(self.free[k], side - 2 ** k, acc.shape))
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
        acc = self._corner_sum(self.table[self._corner_index(ends)])
        if self.free is not None:
            # the same gather on the level of each side, at the anchor
            # shifted by 0 and by s - 2^k on each axis
            k = np.frexp(sides)[1] - 1
            ends = np.stack((anchors, anchors + (sides - 2 ** k)[..., None]))
            np.copyto(acc, np.nan, where=~self.free[(k,) + self._corner_index(ends)].all(
                axis=tuple(range(self.d))))
        return acc

    def _corner_index(self, ends: np.ndarray) -> tuple[np.ndarray, ...]:
        """Index arrays of shape (2,) * d + (n,) from the (2, n, d) ``ends``:
        the index on axis k takes the low and the high end along axis k."""
        return tuple(ends[:, :, k].reshape((1,) * k + (2,) + (1,) * (self.d - 1 - k) + (-1,))
                     for k in range(self.d))

    def box_avg_grid(self, side: int) -> np.ndarray:
        acc = self.box_sum_grid(side)
        if acc.dtype != np.float64:
            return acc / float(side ** self.d)
        acc /= float(side ** self.d)
        return acc

    def box_avg_many(self, anchors: np.ndarray, sides) -> np.ndarray:
        sides = np.asarray(sides, dtype=np.int64)
        return self.box_sum_many(anchors, sides) / (sides ** self.d).astype(np.float64)
