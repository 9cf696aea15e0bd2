"""Constructive cube selections: the greedy sparse family and the
bounded-overlap family of slightly contracted dilates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cubes import (
    CubeFamily,
    GridCube,
    cube_arrays,
    cube_bounds,
    cube_contains,
    dilate_bounds,
    require_finite_averages,
    row_blocks,
    scale_indices,
)
from .errors import PremiseViolated
from .grid import GridFunction, integrate_breakpoints, lambda_breakpoints
from .partition import density_levels, kth_largest


def default_contraction(d: int) -> float:
    """The contraction parameter 2^{-d-3} / d used by the volume-stability lemma."""
    return 2.0 ** (-d - 3) / d


def lambda_q(f: GridFunction, q: GridCube) -> float:
    """Largest level at which more than 2^{-d-1} of the cube lies in the
    superlevel set: its k-th largest cell value, k = floor(cells / 2^{d+1}) + 1.
    A NaN cell counts as -inf, in no superlevel set."""
    return float(_lambda_levels(f, CubeFamily([q]))[0])


def _lambda_levels(f: GridFunction, fam: CubeFamily) -> np.ndarray:
    """:func:`lambda_q` of every cube of ``fam``."""
    return kth_largest(f.array, fam, lambda cells: cells // 2 ** (f.d + 1) + 1)


@dataclass(frozen=True)
class SparseFamily:
    """Greedy selection output: the selected cubes in selection order, with
    their averages, and per-cube levels."""

    cubes: CubeFamily
    lambdas: np.ndarray
    rhs_sum: float  # sum of (f_Q - lambda_Q) * surface(Q)

    def __len__(self) -> int:
        return len(self.cubes)


def greedy_sparse(f: GridFunction, q2_union: CubeFamily) -> SparseFamily:
    """Greedy thinning of the accumulated low-density cubes.

    Repeatedly take, among remaining cubes of the current top scale, the one
    with the largest average (ties by canonical order), then discard every
    remaining cube with no larger average that overlaps it in more than half
    of the smaller volume.  Surviving pairs either overlap weakly or are
    strictly scale-separated with increasing averages.
    """
    n = len(q2_union)
    if n == 0:
        empty = np.empty(0)
        return SparseFamily(CubeFamily.from_arrays(np.empty((0, f.d)), empty, empty), empty, 0.0)
    fam = q2_union if q2_union.averages is not None else q2_union.with_averages(f)
    avgs, anchors, sides = fam.averages, fam.anchors, fam.sides
    scales = scale_indices(sides)
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

    picked = fam.select(np.array(order, dtype=np.int64))
    lambdas = _lambda_levels(f, picked)
    # face count of each cube's boundary, 2d * side^(d-1)
    surf = 2 * f.d * picked.sides ** (f.d - 1)
    rhs = float(np.sum((picked.averages - lambdas) * surf))
    return SparseFamily(picked, lambdas, rhs)


def sparse_pairwise_violations(fam: SparseFamily, f: GridFunction) -> list[tuple[int, int]]:
    """Audit the selection postcondition over all pairs.

    For R, Q in the selection with side(R) <= side(Q), either the overlap is
    at most half the smaller volume, or R has strictly smaller scale and a
    strictly larger average.  (The greedy loop removes only on strict
    majority overlap, so the boundary case of exactly half overlap is
    admissible; the downstream bounded-overlap lemma assumes exactly this
    non-strict form.)
    """
    anchors, sides, avgs = fam.cubes.anchors, fam.cubes.sides, fam.cubes.averages
    scales = scale_indices(sides)
    lo, hi = anchors.T, (anchors + sides[:, None]).T
    bad = []
    for rows in row_blocks(len(sides), len(sides)):
        ov = 1
        for k in range(f.d):
            ov = ov * np.maximum(0, np.minimum(hi[k, rows, None], hi[k])
                                 - np.maximum(lo[k, rows, None], lo[k]))
        separated = (scales[rows, None] < scales) & (avgs[rows, None] > avgs)
        viol = (sides[rows, None] <= sides) & (2 * ov > sides[rows, None] ** f.d) & ~separated
        viol[np.arange(viol.shape[0]), np.arange(rows.start, rows.stop)] = False
        bad.extend((int(i) + rows.start, int(j)) for i, j in zip(*np.nonzero(viol)))
    return bad


def accumulate_q2_cubes(f: GridFunction, fam: CubeFamily) -> CubeFamily:
    """Union over all breakpoint levels of the low-density class."""
    split = density_levels(f, fam)
    return split.family.select(split.ever_q2)


def significant_mass_bound(f: GridFunction, fam: CubeFamily) -> tuple[float, float]:
    """(exact level integral of the low-density union boundary, greedy rhs sum).

    The experiment suite records the ratio of the two as the empirical
    constant of the sparse reduction inequality.
    """
    split = density_levels(f, fam)
    require_finite_averages(split.family)
    bps = lambda_breakpoints(f, split.family.averages)
    lhs = integrate_breakpoints(bps, split.q2_boundary_faces(bps))
    return lhs, greedy_sparse(f, split.family.select(split.ever_q2)).rhs_sum


@dataclass(frozen=True)
class OverlapFamily:
    """Per-scale maximal family with disjoint contracted dilates."""

    cubes: CubeFamily
    eps: float
    overlap_constant: int       # max count of contracted dilates covering a grid point
    c1: float                   # dilation making every input cube fit in a selected one
    c2: float                   # dilation of the base cube containing the selected one


def _centres(anchors: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis centres (d, n) and half sides (n,) of cubes, exact halves."""
    return (anchors + 0.5 * sides[:, None]).T, 0.5 * sides


def _cover_dilation(ic, ir, oc, orad) -> np.ndarray:
    """Smallest K with the inner cube inside the K-dilate of the outer cube,
    over the broadcast trailing axes of centres (d, ...) and half sides:
    (max over axes of |ic - oc| + ir) / orad.  On half-integers all but the
    division is exact, and it is monotone, so this is bit for bit the max
    over axes of the per-axis dilation max(ihi - oc, oc - ilo) / orad."""
    gap = np.abs(ic[0] - oc[0])
    for k in range(1, len(oc)):
        np.maximum(gap, np.abs(ic[k] - oc[k]), out=gap)
    np.add(gap, ir, out=gap)
    return np.divide(gap, orad, out=gap)


def _first_fit(lo, hi) -> np.ndarray:
    """Which of the boxes with per-axis corners (d, g) a greedy pass in row
    order takes: a box is taken when it overlaps every box taken before it
    in zero volume.  A box that meets no earlier box is always taken, so only
    the rows that meet an earlier one step through the sequential pass."""
    g = lo.shape[1]
    taken = np.ones(g, dtype=bool)
    for rows in row_blocks(g, g):
        ov = 1.0
        for k in range(len(lo)):
            gap = (np.minimum(hi[k, rows, None], hi[k, :rows.stop])
                   - np.maximum(lo[k, rows, None], lo[k, :rows.stop]))
            ov = ov * np.maximum(0.0, gap)
        meets = (ov != 0.0) & (np.arange(rows.stop) < np.arange(rows.start, rows.stop)[:, None])
        for i in np.flatnonzero(meets.any(axis=1)).tolist():
            taken[rows.start + i] = not (meets[i] & taken[:rows.stop]).any()
    return taken


def dilate_overlap_count(fam: CubeFamily, K: float, dims) -> int:
    """Max over grid cell centers of how many K-dilates of the members contain the center.

    The centers in a dilate are those of an index box [lo, hi), clipped to
    the grid.  Along each axis the distinct box corners cut the grid into
    slabs that each box covers whole or not at all, so the max is taken on
    this compressed grid.  An axis of it holds one slab per distinct corner,
    the last one past every box: at most two slabs per member, and at most
    one more than the grid's cells.  Each box puts its 2^d corner marks, +1 or
    -1 by the parity of its hi corners, into a difference array on the
    compressed grid, and one cumulative sum per axis turns the marks into
    the counts.  They are 0 on the last slab of each axis, and the marks of
    a box that is empty after clipping cancel."""
    if not len(fam):
        return 0
    lo, hi = dilate_bounds(*cube_bounds(fam.anchors, fam.sides), K)
    # cell center i + 0.5 lies in [lo, hi) iff ceil(lo - 0.5) <= i < ceil(hi - 0.5)
    box = np.clip(np.ceil(np.stack((lo, hi)) - 0.5), 0, np.asarray(dims)).astype(np.int64)
    # per axis, the rank of each corner among the distinct ones (2, members):
    # slab j runs from corner j to corner j + 1, and the largest corner is a hi
    ranks = [np.unique(box[..., k], return_inverse=True)[1].reshape(2, -1)
             for k in range(box.shape[2])]
    diff = np.zeros([r[1].max() + 1 for r in ranks], dtype=np.int64)
    for corner in np.ndindex((2,) * len(ranks)):
        np.add.at(diff, tuple(r[c] for r, c in zip(ranks, corner)), (-1) ** sum(corner))
    for k in range(len(ranks)):
        np.cumsum(diff, axis=k, out=diff)
    return int(diff.max())


def disjoint_select(S: CubeFamily, D_per_Q0: Mapping[GridCube, CubeFamily],
                    eps: float, f: GridFunction) -> OverlapFamily:
    """Whitney-style thinning of per-base cube collections, for a
    contraction ``0 <= eps < 1``.  ``D_per_Q0`` maps each base cube to its
    collection; the selection comes back as one family in canonical order.

    Discards cubes swallowed by the (1-eps)-contraction of another, then
    greedily keeps, per scale, a maximal set whose (1-eps)^2-contractions are
    pairwise disjoint.  Verifies bounded pointwise overlap of the contracted
    dilates and that every input cube is captured by a selected cube of
    comparable size staying near its base cube; the observed constants are
    returned.  Pair tests run one axis at a time on (rows, m) planes, in
    blocks of rows within the pair budget of :func:`~cubemax.cubes.row_blocks`.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"contraction eps must lie in [0, 1), got {eps!r}")
    d = f.d
    base_a, base_s = cube_arrays(D_per_Q0, d)
    groups = list(D_per_Q0.values())
    qa = np.concatenate([np.empty((0, d), dtype=np.int64)] + [ds.anchors for ds in groups])
    qs = np.concatenate([np.empty(0, dtype=np.int64)] + [ds.sides for ds in groups])
    owner = np.repeat(np.arange(len(groups)), [len(ds) for ds in groups])
    outside = ~cube_contains(base_a[owner], base_s[owner], qa, qs)
    if outside.any():
        r = int(np.argmax(outside))
        raise PremiseViolated(f"{GridCube(qa[r].tolist(), int(qs[r]))} not contained "
                              f"in its base cube {list(D_per_Q0)[owner[r]]}")
    all_d, inverse = CubeFamily.from_arrays_indexed(qa, qs)
    A, side = all_d.anchors, all_d.sides
    m = len(all_d)
    sa, ss = S.anchors, S.sides
    for rows in row_blocks(len(ss), m):
        # a containing cube of another side holds it strictly
        hit = np.argwhere(cube_contains(A, side, sa[rows, None], ss[rows, None])
                          & (ss[rows, None] != side))
        if hit.size:
            i, j = hit[0]
            raise PremiseViolated(f"selection cube {S[rows.start + i]} strictly inside {all_d[j]}")
    if m == 0:
        return OverlapFamily(all_d, eps, 0, 1.0, 1.0)

    # per-axis corner planes (d, m)
    lo, hi = (x.T.copy() for x in cube_bounds(A, side))
    clo, chi = dilate_bounds(lo, hi, 1.0 - eps)
    # a contraction (eps >= 0) holds no cube of its own side or smaller, and
    # canonical order puts the larger sides first: each run of one side is
    # tested against the rows before it only
    swallowed = np.zeros(m, dtype=bool)
    runs = np.append(np.flatnonzero(side[1:] != side[:-1]) + 1, m)
    for start, stop in zip(runs[:-1].tolist(), runs[1:].tolist()):
        for rows in row_blocks(stop - start, start):
            own = slice(start + rows.start, start + rows.stop)
            inside = True
            for k in range(d):
                inside = inside & (clo[k, :start] <= lo[k, own, None]) \
                    & (hi[k, own, None] <= chi[k, :start])
            swallowed[own] = inside.any(axis=1)
    keep = np.flatnonzero(~swallowed)

    # per-scale greedy maximal sets with disjoint (1-eps)^2 contractions
    factor = (1.0 - eps) ** 2
    flo, fhi = dilate_bounds(lo, hi, factor)
    scales = scale_indices(side)
    chosen = []
    for n in np.unique(scales[keep])[::-1]:
        grp = keep[scales[keep] == n]
        chosen.append(grp[_first_fit(flo[:, grp], fhi[:, grp])])
    chosen = np.concatenate(chosen)
    F = all_d.select(chosen)
    overlap_c = dilate_overlap_count(F, factor, f.dims)

    # capture: for each input cube the selected cube minimizing the larger of
    # the two dilations; c1 and c2 are the largest dilations so chosen.  The
    # second depends only on the base, so it is computed once per base of a
    # block.  A selected cube captures itself with need1 = 1 and need2 <= 1,
    # exactly on integer corners, and c1 and c2 start at 1: its rows, found
    # through each input row's index in ``all_d``, are skipped.
    is_chosen = np.zeros(m, dtype=bool)
    is_chosen[chosen] = True
    rest = np.flatnonzero(~is_chosen[inverse])
    pc, pr = _centres(A[chosen], side[chosen])
    qc, qr = _centres(qa, qs)
    bc, br = _centres(base_a, base_s)
    c1 = 1.0
    c2 = 1.0
    for block in row_blocks(len(rest), len(chosen)):
        rows = rest[block]
        bases, of_row = np.unique(owner[rows], return_inverse=True)
        need1 = _cover_dilation(qc[:, rows, None], qr[rows, None], pc[:, None], pr)
        need2 = _cover_dilation(pc[:, None], pr, bc[:, bases, None], br[bases, None])[of_row]
        best = np.argmin(np.maximum(need1, need2), axis=1)
        pick = np.arange(len(best))
        c1 = max(c1, float(need1[pick, best].max()))
        c2 = max(c2, float(need2[pick, best].max()))
    return OverlapFamily(F, eps, overlap_c, c1, c2)
