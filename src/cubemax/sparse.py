"""Constructive cube selections: the greedy sparse family and the
bounded-overlap family of slightly contracted dilates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cubes import (
    CubeFamily,
    GridCube,
    RealBox,
    dilate,
    family_averages,
    scale_index,
)
from .errors import PremiseViolated
from .grid import GridFunction, integrate_breakpoints, lambda_breakpoints, perimeter
from .partition import level_sweep


def default_contraction(d: int) -> float:
    """The contraction parameter 2^{-d-3} / d used by the volume-stability lemma."""
    return 2.0 ** (-d - 3) / d


def cube_surface_measure(c: GridCube, h: float) -> float:
    """Surface measure of the cube's topological boundary: 2d * (side*h)^(d-1)."""
    d = c.d
    return 2 * d * (c.side * h) ** (d - 1)


def lambda_q(f: GridFunction, q: GridCube) -> float:
    """Smallest level at which the cube's superlevel overlap drops to the
    2^{-d-1} volume fraction.

    Realized over the cell values of the cube: the largest value v whose
    superlevel count still exceeds the threshold; for every level above it
    the count is at or below the threshold.
    """
    d = f.d
    vals = f.array[q.slices()].ravel()
    u, first = np.unique(vals, return_index=True)
    # counts of cells >= each distinct value (suffix sums of group sizes)
    counts = vals.size - np.searchsorted(np.sort(vals), u, side="left")
    over = counts * 2 ** (d + 1) > q.cell_count
    # the minimum value always exceeds the threshold (count = all cells)
    return float(u[over][-1])


@dataclass(frozen=True)
class SparseFamily:
    """Greedy selection output, in selection order, with per-cube levels."""

    cubes: tuple[GridCube, ...]
    averages: np.ndarray
    lambdas: np.ndarray
    rhs_sum: float  # sum of (f_Q - lambda_Q) * surface(Q)

    def __len__(self) -> int:
        return len(self.cubes)

    def to_json(self) -> dict:
        return {
            "cubes": [{"anchor": list(c.anchor), "side": c.side} for c in self.cubes],
            "averages": [float(a) for a in self.averages],
            "lambdas": [float(l) for l in self.lambdas],
            "rhs_sum": float(self.rhs_sum),
        }


def greedy_sparse(f: GridFunction, q2_union: CubeFamily) -> SparseFamily:
    """Greedy thinning of the accumulated low-density cubes.

    Repeatedly take, among remaining cubes of the current top scale, the one
    with the largest average (ties by canonical order), then discard every
    remaining cube with no larger average that overlaps it in more than half
    of the smaller volume.  Surviving pairs either overlap weakly or are
    strictly scale-separated with increasing averages.
    """
    cubes = list(q2_union.cubes)
    n = len(cubes)
    if n == 0:
        return SparseFamily((), np.empty(0), np.empty(0), 0.0)
    avgs = (np.asarray(q2_union.averages, dtype=np.float64)
            if q2_union.averages is not None else family_averages(f, cubes))
    scales = np.array([scale_index(c, f.h) for c in cubes], dtype=np.int64)
    anchors, sides = q2_union.anchors(), q2_union.sides()
    cellcounts = sides ** f.d

    alive = np.ones(n, dtype=bool)
    order: list[int] = []
    while alive.any():
        top = scales == scales[alive].max()
        pool = np.flatnonzero(alive & top)
        pick = pool[int(np.argmax(avgs[pool]))]  # argmax keeps first = canonical order
        order.append(int(pick))
        lo = np.maximum(anchors, anchors[pick])
        hi = np.minimum(anchors + sides[:, None], anchors[pick] + sides[pick])
        ov = np.prod(np.maximum(0, hi - lo), axis=1)
        kill = (avgs <= avgs[pick]) & (2 * ov > np.minimum(cellcounts, cellcounts[pick]))
        alive &= ~kill

    sel = np.array(order, dtype=np.int64)
    sel_cubes = tuple(cubes[i] for i in sel)
    sel_avgs = avgs[sel]
    lambdas = np.array([lambda_q(f, c) for c in sel_cubes], dtype=np.float64)
    surf = np.array([cube_surface_measure(c, f.h) for c in sel_cubes])
    rhs = float(np.sum((sel_avgs - lambdas) * surf))
    return SparseFamily(sel_cubes, sel_avgs, lambdas, rhs)


def sparse_pairwise_violations(fam: SparseFamily, f: GridFunction) -> list[tuple[int, int]]:
    """Audit the selection postcondition over all pairs.

    For R, Q in the selection with side(R) <= side(Q), either the overlap is
    at most half the smaller volume, or R has strictly smaller scale and a
    strictly larger average.  (The greedy loop removes only on strict
    majority overlap, so the boundary case of exactly half overlap is
    admissible; the downstream bounded-overlap lemma assumes exactly this
    non-strict form.)
    """
    bad = []
    n = len(fam.cubes)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            R, Q = fam.cubes[i], fam.cubes[j]
            if R.side > Q.side:
                continue
            lo = [max(a, b) for a, b in zip(R.anchor, Q.anchor)]
            hi = [min(a + R.side, b + Q.side) for a, b in zip(R.anchor, Q.anchor)]
            ov = 1
            for a, b in zip(lo, hi):
                ov *= max(0, b - a)
            if 2 * ov <= R.cell_count:
                continue
            if scale_index(R, f.h) < scale_index(Q, f.h) and fam.averages[i] > fam.averages[j]:
                continue
            bad.append((i, j))
    return bad


def _q2_sweep(f: GridFunction, fam: CubeFamily) -> tuple[np.ndarray, np.ndarray, CubeFamily]:
    """(breakpoints, low-density union boundary measure at each breakpoint,
    union over all breakpoints of the low-density class)."""
    fam = fam if fam.averages is not None else fam.with_averages(f)
    bps = lambda_breakpoints(f, fam.averages)
    q2_terms = np.zeros(bps.size)
    ever = np.zeros(len(fam), dtype=bool)
    for k, p in zip(range(bps.size - 1, -1, -1), level_sweep(f, fam, bps[::-1])):
        q2_terms[k] = perimeter(p.union_q2, h=f.h).measure
        ever |= p.q2_mask
    return bps, q2_terms, fam.select(ever)


def accumulate_q2_cubes(f: GridFunction, fam: CubeFamily) -> CubeFamily:
    """Union over all breakpoint levels of the low-density class."""
    return _q2_sweep(f, fam)[2]


def significant_mass_bound(f: GridFunction, fam: CubeFamily) -> tuple[float, float]:
    """(exact level integral of the low-density union boundary, greedy rhs sum).

    The experiment suite records the ratio of the two as the empirical
    constant of the sparse reduction inequality.
    """
    bps, q2_terms, q2_fam = _q2_sweep(f, fam)
    lhs = integrate_breakpoints(bps, q2_terms)
    return lhs, greedy_sparse(f, q2_fam).rhs_sum


@dataclass(frozen=True)
class OverlapFamily:
    """Per-scale maximal family with disjoint contracted dilates."""

    cubes: tuple[GridCube, ...]
    eps: float
    overlap_constant: int       # max count of contracted dilates covering a grid point
    c1: float                   # dilation making every input cube fit in a selected one
    c2: float                   # dilation of the base cube containing the selected one

    def to_json(self) -> dict:
        return {
            "cubes": [{"anchor": list(c.anchor), "side": c.side} for c in self.cubes],
            "eps": self.eps,
            "C": self.overlap_constant,
            "C1": self.c1,
            "C2": self.c2,
        }


def _needed_dilation(inner: RealBox, outer: RealBox) -> float:
    """Smallest K with inner contained in the K-dilate of outer."""
    k = 0.0
    for lo_i, hi_i, lo_o, hi_o in zip(inner.lo, inner.hi, outer.lo, outer.hi):
        c = 0.5 * (lo_o + hi_o)
        r = 0.5 * (hi_o - lo_o)
        k = max(k, max(hi_i - c, c - lo_i) / r)
    return k


def dilate_overlap_count(cubes: Sequence[GridCube], K: float, dims, h: float) -> int:
    """Max over grid cell centers of how many K-dilates contain the center."""
    if not cubes:
        return 0
    counter = np.zeros(tuple(dims), dtype=np.int64)
    for c in cubes:
        box = dilate(c, K, h)
        sl = []
        for n, lo, hi in zip(dims, box.lo, box.hi):
            # cell center (i + 0.5) h lies in [lo, hi)
            i0 = max(0, math.ceil(lo / h - 0.5))
            i1 = min(n, math.ceil(hi / h - 0.5))
            sl.append(slice(i0, max(i0, i1)))
        counter[tuple(sl)] += 1
    return int(counter.max())


def disjoint_select(S: CubeFamily, D_per_Q0: Mapping[GridCube, Sequence[GridCube]],
                    eps: float, f: GridFunction) -> OverlapFamily:
    """Whitney-style thinning of per-base cube collections.

    Discards cubes swallowed by the (1-eps)-contraction of another, then
    greedily keeps, per scale, a maximal set whose (1-eps)^2-contractions are
    pairwise disjoint.  Verifies bounded pointwise overlap of the contracted
    dilates and that every input cube is captured by a selected cube of
    comparable size staying near its base cube; the observed constants are
    returned.
    """
    h = f.h
    d = f.d
    for q0, ds in D_per_Q0.items():
        for q in ds:
            if not q0.contains_cube(q):
                raise PremiseViolated(f"{q} not contained in its base cube {q0}")
    all_d: list[GridCube] = sorted({q for ds in D_per_Q0.values() for q in ds},
                                   key=lambda c: (-c.side, c.anchor))
    for s_cube in S.cubes:
        for q in all_d:
            if q.contains_cube(s_cube) and q != s_cube:
                raise PremiseViolated(f"selection cube {s_cube} strictly inside {q}")
    if not all_d:
        return OverlapFamily((), eps, 0, 1.0, 1.0)

    boxes = [c.extent(h) for c in all_d]
    contracted = [dilate(c, 1.0 - eps, h) for c in all_d]
    keep = []
    for i, q in enumerate(all_d):
        swallowed = any(j != i and contracted[j].contains_box(boxes[i]) for j in range(len(all_d)))
        if not swallowed:
            keep.append(i)

    # per-scale greedy maximal sets with disjoint (1-eps)^2 contractions
    factor = (1.0 - eps) ** 2
    chosen: list[int] = []
    by_scale: dict[int, list[int]] = {}
    for i in keep:
        by_scale.setdefault(scale_index(all_d[i], h), []).append(i)
    for n in sorted(by_scale, reverse=True):
        taken: list[int] = []
        for i in by_scale[n]:
            bi = dilate(all_d[i], factor, h)
            if all(bi.intersection_volume(dilate(all_d[j], factor, h)) == 0.0 for j in taken):
                taken.append(i)
        chosen.extend(taken)
    F = [all_d[i] for i in chosen]

    overlap_c = dilate_overlap_count(F, factor, f.dims, h)

    c1 = 1.0
    c2 = 1.0
    f_boxes = [c.extent(h) for c in F]
    for q0, ds in D_per_Q0.items():
        base = q0.extent(h)
        for q in ds:
            qb = q.extent(h)
            best = None
            for pb in f_boxes:
                need1 = _needed_dilation(qb, pb)
                need2 = _needed_dilation(pb, base)
                score = max(need1, need2)
                if best is None or score < best[0]:
                    best = (score, need1, need2)
            c1 = max(c1, best[1])
            c2 = max(c2, best[2])
    return OverlapFamily(tuple(F), eps, overlap_c, c1, c2)
