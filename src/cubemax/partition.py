"""Density partition of a level family and exact boundary decompositions.

At a level lam the cubes with average at least lam split into three classes:
high-density cubes (their overlap with the superlevel set is at least the
2^{-d-1} volume fraction), cubes dense against the high-density union, and
the remainder.  All class predicates are exact integer cell-count tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cubes import CubeFamily, family_averages
from .grid import BoundaryMeasure, GridFunction, PixelSet, boundary_faces_outside, perimeter, superlevel
from .sat import SummedAreaTable

DENSITY_SHIFT = 1  # threshold is 2^{-d-1} = 1 / 2^(d+1)


def _counts_in_set(anchors: np.ndarray, sides: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """Cell counts of each cube's overlap with a boolean indicator set."""
    return SummedAreaTable(indicator.astype(np.int64)).box_sum_many(anchors, sides)


@dataclass(frozen=True)
class LevelPartition:
    """The three-way split of the level family at one level value."""

    lam: float
    q0: CubeFamily
    q1: CubeFamily
    q2: CubeFamily
    union_q0: PixelSet
    union_q01: PixelSet
    union_q2: PixelSet
    union_all: PixelSet
    boundary_q0: BoundaryMeasure
    boundary_q01: BoundaryMeasure
    boundary_q2: BoundaryMeasure

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.q0), len(self.q1), len(self.q2))


def partition_at(f: GridFunction, fam: CubeFamily, lam: float) -> LevelPartition:
    """Classify every cube with average >= lam into the three density classes."""
    d = f.d
    cubes = fam.cubes
    avgs = fam.averages if fam.averages is not None else family_averages(f, cubes)
    sel = np.asarray(avgs) >= lam
    level = superlevel(f, lam)

    sides = np.array([c.side for c in cubes], dtype=np.int64)
    anchors = np.array([c.anchor for c in cubes], dtype=np.int64).reshape(len(cubes), d)
    cells = sides ** d
    counts_level = _counts_in_set(anchors, sides, level.mask)
    q0_mask = sel & (counts_level * 2 ** (d + 1) >= cells)

    u0 = np.zeros(f.dims, dtype=bool)
    for i in np.flatnonzero(q0_mask):
        u0[cubes[i].slices()] = True
    counts_u0 = _counts_in_set(anchors, sides, u0)
    q1_mask = sel & ~q0_mask & (counts_u0 * 2 ** (d + 1) >= cells)
    q2_mask = sel & ~q0_mask & ~q1_mask

    u01 = u0.copy()
    for i in np.flatnonzero(q1_mask):
        u01[cubes[i].slices()] = True
    u2 = np.zeros(f.dims, dtype=bool)
    for i in np.flatnonzero(q2_mask):
        u2[cubes[i].slices()] = True
    uall = u01.copy()
    uall |= u2

    def fam_of(m):
        idx = np.flatnonzero(m)
        return CubeFamily([cubes[i] for i in idx], np.asarray(avgs)[idx])

    p0, p01, p2, pall = (PixelSet(f.dims, x) for x in (u0, u01, u2, uall))
    return LevelPartition(
        lam=float(lam), q0=fam_of(q0_mask), q1=fam_of(q1_mask), q2=fam_of(q2_mask),
        union_q0=p0, union_q01=p01, union_q2=p2, union_all=pall,
        boundary_q0=perimeter(p0, h=f.h),
        boundary_q01=perimeter(p01, h=f.h),
        boundary_q2=perimeter(p2, h=f.h),
    )


def boundary_decomposition_terms(p: LevelPartition, f: GridFunction) -> tuple[float, float]:
    """The two summands bounding the level-union boundary outside the level set.

    Returns (measure of boundary(q0-union + q1-union) minus the closure of
    the superlevel set, measure of boundary(q2-union)); their sum dominates
    the corresponding measure for the full level union, exactly in face
    counts.
    """
    level = superlevel(f, p.lam)
    term1 = boundary_faces_outside(p.union_q01, level, h=f.h).measure
    term2 = p.boundary_q2.measure
    return term1, term2


def decomposition_lhs(p: LevelPartition, f: GridFunction) -> float:
    """Measure of the full level-union boundary outside the superlevel closure."""
    level = superlevel(f, p.lam)
    return boundary_faces_outside(p.union_all, level, h=f.h).measure


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
    level = superlevel(f, p.lam)
    lhs = boundary_faces_outside(p.union_q01, level, h=f.h).measure
    rhs = perimeter(level, mask=p.union_all, h=f.h).measure
    if rhs == 0.0:
        return HighDensityRatio(0.0 if lhs == 0.0 else float("inf"), False, lhs, rhs)
    return HighDensityRatio(lhs / rhs, True, lhs, rhs)
