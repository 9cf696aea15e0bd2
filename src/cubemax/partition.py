"""Density partition of a level family and the boundary-of-union face check.

At a level lam the cubes with average at least lam split into three classes:
high-density cubes q0 (their overlap with the superlevel set is at least the
2^{-d-1} volume fraction), cubes q1 dense against the q0 union, and the
remaining low-density cubes q2.

Every density test asks how many cells of a cube Q lie in a superlevel set.
With count(lam) = #{x in Q : g(x) >= lam} and v_k the k-th largest value of
g on Q (NaN as -inf), count(lam) >= k exactly when lam <= v_k: the k largest
values are at least v_k, and k cells at or above lam put v_k at or above lam.
So :func:`kth_largest` turns each integer threshold into a rank:

    test at level lam                  rank k                      holds when
    count * 2^{d+1} >= cells (dense)   ceil(cells / 2^{d+1})       lam <= v_k
    2 count < cells (below half)       ceil(cells / 2)             lam >  v_k
    2 count <= cells (at most half)    floor(cells / 2) + 1        lam >  v_k
    count * 2^{d+1} > cells (lam_Q)    floor(cells / 2^{d+1}) + 1  lam_Q = v_k

A cube is in the band [2^{-d-1}, 1/2) on one interval (:func:`density_band`).
The split is then closed form: with k the dense rank, Q is in q0 for
lam <= lam0(Q) = min(avg_Q, v_k(f|Q)).  The q0 union at lam is {P0 >= lam},
where P0 paints each cell with the largest lam0 of the cubes holding it, so
Q is in q1 for lam0 < lam <= lam1(Q) = min(avg_Q, v_k(P0|Q)), in q2 for
lam1 < lam <= avg_Q, and unselected above avg_Q.

:func:`density_levels` computes the triple (lam0, lam1, avg) once per
function and family; it is the one implementation of the split.  At each
level the class masks are comparisons against the triple, the q0+q1 union
and the full union are superlevel sets of the max-painted lam1 and averages,
and only the q2 union, which is not monotone in lam, is painted.  Over a
sorted breakpoint array a cube is in q2 for one run of indices, from the
insertion point of lam1 to that of avg, so
:meth:`DensityLevels.q2_boundary_faces` paints the q2 union only where a
run starts or ends and carries its face count in between.  The evaluator in
:mod:`cubemax.estimates` reads the triple and its paints as per-face level
intervals; the low-density accumulation in :mod:`cubemax.sparse` reads
``ever_q2`` and the q2 boundary column; :func:`partition_at` is the split
at a single level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cubes import CubeFamily
from .grid import GridFunction, PixelSet, perimeter, superlevel


@dataclass(frozen=True)
class LevelPartition:
    """The three-way split of the level family at one level value.

    The class masks index ``family`` in its canonical order; the class
    families themselves are built only when read.
    """

    lam: float
    level: PixelSet
    family: CubeFamily
    q0_mask: np.ndarray
    q1_mask: np.ndarray
    q2_mask: np.ndarray
    union_q01: PixelSet
    union_q2: PixelSet
    union_all: PixelSet

    @property
    def q0(self) -> CubeFamily:
        return self.family.select(self.q0_mask)

    @property
    def q1(self) -> CubeFamily:
        return self.family.select(self.q1_mask)

    @property
    def q2(self) -> CubeFamily:
        return self.family.select(self.q2_mask)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(int(np.count_nonzero(m)) for m in (self.q0_mask, self.q1_mask, self.q2_mask))


@dataclass(frozen=True)
class DensityLevels:
    """The per-cube triple (lam0, lam1, avg) of ``family`` over ``f``, with
    the per-cell max-paints of lam1 and avg that give the monotone unions."""

    f: GridFunction
    family: CubeFamily
    lam0: np.ndarray
    lam1: np.ndarray
    avg: np.ndarray
    paint01: np.ndarray
    paint_all: np.ndarray

    @property
    def ever_q2(self) -> np.ndarray:
        """Cubes in the low-density class at some level."""
        return self.lam1 < self.avg

    def q2_boundary_faces(self, bps: np.ndarray) -> np.ndarray:
        """Face count of the q2 union's boundary at every level ``bps[k]``.

        ``bps`` must be sorted ascending.  Cube i is in q2 at ``bps[k]``
        exactly for ``enter[i] <= k < leave[i]``, with ``enter`` and ``leave``
        the right insertion points of lam1 and avg, so the union changes only
        at those indices: it is painted there and its count carried forward.
        """
        enter = np.searchsorted(bps, self.lam1, "right")
        leave = np.searchsorted(bps, self.avg, "right")
        live = enter < leave
        points = np.unique(np.concatenate((enter[live], leave[live])))
        points = points[points < bps.size].tolist()
        out = np.zeros(bps.size, dtype=np.int64)
        for k, nxt in zip(points, points[1:] + [bps.size]):
            q2 = (enter <= k) & (k < leave)
            if q2.any():
                out[k:nxt] = perimeter(self.family.select(q2).union_pixels(self.f.dims))
        return out

    def at(self, lam: float) -> LevelPartition:
        """The three-way split at the finite level ``lam``."""
        q0 = self.lam0 >= lam
        q1 = (self.lam0 < lam) & (lam <= self.lam1)
        q2 = (self.lam1 < lam) & (lam <= self.avg)
        dims = self.f.dims
        return LevelPartition(
            lam=float(lam), level=superlevel(self.f, lam), family=self.family,
            q0_mask=q0, q1_mask=q1, q2_mask=q2,
            union_q01=PixelSet(dims, self.paint01 >= lam),
            union_q2=self.family.select(q2).union_pixels(dims),
            union_all=PixelSet(dims, self.paint_all >= lam),
        )


def density_levels(f: GridFunction, fam: CubeFamily) -> DensityLevels:
    """The density split of ``fam`` at every level, as one triple per cube.

    A NaN cell counts as -inf (it is in no superlevel set), and so does a
    NaN average (its cube is never selected).
    """
    fam = fam if fam.averages is not None else fam.with_averages(f)
    avg = np.nan_to_num(np.asarray(fam.averages, dtype=np.float64), nan=-np.inf)
    rank = _dense_rank(f.d)
    lam0 = np.minimum(avg, kth_largest(f.array, fam, rank))
    lam1 = np.minimum(avg, kth_largest(fam.max_paint(lam0, f.dims), fam, rank))
    return DensityLevels(f, fam, lam0, lam1, avg,
                         fam.max_paint(lam1, f.dims), fam.max_paint(avg, f.dims))


def kth_largest(values: np.ndarray, fam: CubeFamily, rank) -> np.ndarray:
    """Per cube, the k-th largest of ``values`` over its cells (NaN as -inf),
    k = ``rank(cells)`` in [1, cells]: the cube has at least k cells with
    ``values >= lam`` exactly when lam is at most this number.

    Per side, the cubes' windows are gathered from one strided view of the
    values whose entry at an anchor is the side-``side`` window there (the
    shape and strides ``sliding_window_view`` would give, built directly),
    and the gathered copy is partitioned in place at rank k.
    """
    values = np.nan_to_num(values, nan=-np.inf)
    out = np.empty(len(fam))
    for side in np.unique(fam.sides).tolist():
        rows = np.flatnonzero(fam.sides == side)
        cells = side ** values.ndim
        k = rank(cells)
        windows = np.ndarray(tuple(n + 1 - side for n in values.shape) + (side,) * values.ndim,
                             values.dtype, values, 0, values.strides * 2)
        gathered = windows[tuple(fam.anchors[rows].T)].reshape(rows.size, cells)
        gathered.partition(cells - k, axis=1)
        out[rows] = gathered[:, cells - k]
    return out


def _dense_rank(d: int):
    """The rank ceil(cells / 2^{d+1}) of the high-density test."""
    return lambda cells: -(-cells // 2 ** (d + 1))


def density_band(values: np.ndarray, fam: CubeFamily) -> tuple[np.ndarray, np.ndarray]:
    """Per cube, the levels (lo, hi) between which it is in the density band
    [2^{-d-1}, 1/2) of {values >= lam}: exactly for lo < lam <= hi."""
    below_half = kth_largest(values, fam, lambda cells: -(-cells // 2))
    return below_half, kth_largest(values, fam, _dense_rank(values.ndim))


def partition_at(f: GridFunction, fam: CubeFamily, lam: float) -> LevelPartition:
    """Classify every cube with average >= lam into the three density classes."""
    return density_levels(f, fam).at(lam)


class FaceWitness(NamedTuple):
    inside: tuple[int, ...]
    outside: tuple[int, ...]


def boundary_of_union_check(A: PixelSet, B: PixelSet) -> tuple[bool, FaceWitness | None]:
    """Verify boundary(A | B) is covered by (boundary(A) minus B) union boundary(B).

    Faces are (inside, outside) cell pairs; a face lies in the closure of B
    iff either cell is in B.  Returns a counterexample face on failure.
    """
    u = A | B
    for ax in range(len(A.dims)):
        um = np.moveaxis(u.mask, ax, 0)
        am = np.moveaxis(A.mask, ax, 0)
        bm = np.moveaxis(B.mask, ax, 0)
        for step, (lo, hi) in ((1, (slice(None, -1), slice(1, None))),
                               (-1, (slice(1, None), slice(None, -1)))):
            face_in = um[lo] & ~um[hi]
            covered_b = bm[lo]  # face of boundary(B): inside cell in B
            covered_a = am[lo] & ~bm[lo] & ~bm[hi]  # boundary(A) face avoiding closure(B)
            bad = face_in & ~covered_b & ~covered_a
            if bad.any():
                pos = [int(x) for x in np.argwhere(bad)[0]]
                if step == -1:
                    pos[0] += 1  # undo the lo-slice offset along the moved axis
                order = [ax] + [k for k in range(len(A.dims)) if k != ax]
                w_in = [0] * len(A.dims)
                for i, k in enumerate(order):
                    w_in[k] = pos[i]
                w_out = list(w_in)
                w_out[ax] += step
                return False, FaceWitness(tuple(w_in), tuple(w_out))
    return True, None
