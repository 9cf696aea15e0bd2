"""Density partition of a level family and exact boundary decompositions.

At a level lam the cubes with average at least lam split into three classes:
high-density cubes (their overlap with the superlevel set is at least the
2^{-d-1} volume fraction), cubes dense against the high-density union, and
the remainder.  All class predicates are exact integer cell-count tests.

:func:`level_sweep` is the one implementation of the split.  It walks the
levels from the top down and carries the monotone unions between levels;
the evaluator in :mod:`cubemax.estimates` and the low-density accumulation
in :mod:`cubemax.sparse` consume it, and :func:`partition_at` is the sweep
at a single level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .cubes import CubeFamily
from .grid import GridFunction, PixelSet, boundary_faces_outside, perimeter
from .sat import SummedAreaTable


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


def level_sweep(f: GridFunction, fam: CubeFamily,
                levels: Iterable[float]) -> Iterator[LevelPartition]:
    """The density split of ``fam`` at each of the non-increasing ``levels``.

    As the level falls, the level set and the selected cubes only grow, so a
    cube that is high-density, or dense against the high-density union,
    stays so.  The q0 and q0+q1 unions are therefore painted once per
    entering cube and carried between levels; the low-density union is not
    monotone and is repainted at each level.
    """
    fam = fam if fam.averages is not None else fam.with_averages(f)
    avgs = np.asarray(fam.averages)
    n = len(fam)
    anchors, sides = fam.anchors, fam.sides
    cells = sides ** f.d
    thr = 2 ** (f.d + 1)  # dense: overlap at least the 2^{-d-1} volume fraction
    u0 = np.zeros(f.dims, dtype=bool)
    u01 = np.zeros(f.dims, dtype=bool)
    in_q0 = np.zeros(n, dtype=bool)
    in_q01 = np.zeros(n, dtype=bool)
    prev = math.inf
    for lam in levels:
        if lam > prev:
            raise ValueError(f"levels must be non-increasing: {lam!r} follows {prev!r}")
        prev = lam
        level = f.array >= lam
        sel = avgs >= lam
        counts = np.zeros(n, dtype=np.int64)
        counts[sel] = SummedAreaTable(level).box_sum_many(anchors[sel], sides[sel])
        q0 = sel & (counts * thr >= cells)
        _paint(u0, fam, q0 & ~in_q0)
        in_q0 = q0

        rest = sel & ~q0
        counts0 = np.zeros(n, dtype=np.int64)
        counts0[rest] = SummedAreaTable(u0).box_sum_many(anchors[rest], sides[rest])
        q1 = rest & (counts0 * thr >= cells)
        q2 = rest & ~q1
        _paint(u01, fam, (q0 | q1) & ~in_q01)
        in_q01 = q0 | q1

        u2 = np.zeros(f.dims, dtype=bool)
        _paint(u2, fam, q2)
        yield LevelPartition(
            lam=float(lam), level=PixelSet(f.dims, level), family=fam,
            q0_mask=q0, q1_mask=q1, q2_mask=q2,
            union_q01=PixelSet(f.dims, u01.copy()), union_q2=PixelSet(f.dims, u2),
            union_all=PixelSet(f.dims, u01 | u2),
        )


def _paint(cells: np.ndarray, fam: CubeFamily, members: np.ndarray) -> None:
    """Add the union of the ``members`` of ``fam`` to the boolean ``cells``."""
    if members.any():
        cells |= fam.select(members).union_pixels(cells.shape).mask


def partition_at(f: GridFunction, fam: CubeFamily, lam: float) -> LevelPartition:
    """Classify every cube with average >= lam into the three density classes."""
    return next(level_sweep(f, fam, [lam]))


def boundary_decomposition_terms(p: LevelPartition, f: GridFunction) -> tuple[float, float]:
    """The two summands bounding the level-union boundary outside the level set.

    Returns (measure of boundary(q0-union + q1-union) minus the closure of
    the superlevel set, measure of boundary(q2-union)); their sum dominates
    the corresponding measure for the full level union, exactly in face
    counts.
    """
    term1 = boundary_faces_outside(p.union_q01, p.level, h=f.h).measure
    term2 = perimeter(p.union_q2, h=f.h).measure
    return term1, term2


def decomposition_lhs(p: LevelPartition, f: GridFunction) -> float:
    """Measure of the full level-union boundary outside the superlevel closure."""
    return boundary_faces_outside(p.union_all, p.level, h=f.h).measure


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


class HighDensityRatio(NamedTuple):
    ratio: float
    defined: bool
    lhs: float
    rhs: float


def high_density_ratio(p: LevelPartition, f: GridFunction) -> HighDensityRatio:
    """Boundary of the dense-union outside the level set, relative to the
    level-set boundary inside the level union.

    The suite records the supremum of this ratio over instances as the
    empirical constant of the dense-cube boundary bound.
    """
    lhs = boundary_faces_outside(p.union_q01, p.level, h=f.h).measure
    rhs = perimeter(p.level, mask=p.union_all, h=f.h).measure
    if rhs == 0.0:
        return HighDensityRatio(0.0 if lhs == 0.0 else float("inf"), False, lhs, rhs)
    return HighDensityRatio(lhs / rhs, True, lhs, rhs)
