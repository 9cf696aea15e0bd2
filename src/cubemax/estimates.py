"""Quantitative estimates and the end-to-end level-integral evaluator.

The evaluator computes the per-cube density levels (lam0, lam1, avg) of
:mod:`cubemax.partition`, the only implementation of the density split,
once per instance and produces exact breakpoint sums for both sides of the
main inequality together with every intermediate quantity of the reduction
chain (density partition terms, greedy sparse selection, per-base dyadic
collections, bounded-overlap families, and the geometric scale sums).

Its per-level columns are not computed level by level.  Every monotone
column (the level-union boundary, the q0+q1 term, the level set's boundary
and the high-density denominator) counts each face on one interval of
levels read from the cell values and the max-painted triple, so one
difference array over breakpoint indices gives the whole column.  The q2
boundary, which is not monotone, is painted only where the q2 class
changes.  The cost grows with cells plus class changes, not with cells
times breakpoints.

The sparse mass estimate, the mid-density covering and the deep chain read
each dyadic cube's density edges once, as k-th largest cell values (see
:mod:`cubemax.partition`), so no level builds a prefix-sum table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubes import (
    CubeFamily,
    GridCube,
    cube_bounds,
    dilate_bounds,
    dyadic_descendants,
    family_averages,
    is_dyadically_complete,
    is_power_of_two,
    maximal_cube_reduction,
    require_finite_averages,
    row_blocks,
)
from .errors import (
    InvariantViolated,
    NotDyadicallyComplete,
    PreconditionDensity,
    PremiseViolated,
    ZeroVariationInput,
)
from .grid import (
    GridFunction,
    PixelSet,
    integrate_breakpoints,
    lambda_breakpoints,
    perimeter,
    superlevel,
    variation,
)
from .partition import DensityLevels, density_band, density_levels, kth_largest
from .sat import SummedAreaTable
from .sparse import (
    SparseFamily,
    default_contraction,
    disjoint_select,
    greedy_sparse,
    lambda_q,
)

def sparse_mass_estimate(f: GridFunction, q0: GridCube,
                         lam0: float | None = None) -> tuple[float, float]:
    """Both sides of the sparse mass inequality with its explicit constant.

    Left side: vol(q0) * (average - lam0) with lam0 the cube's density level
    by default.  Right side: 2^{d+1} times the exact level integral, above
    the cube average, of the superlevel volume inside the union of dyadic
    subcubes whose average reaches the level and whose superlevel density is
    at most one half.

    The density hypothesis, count(f >= lam0) * 2^{d+1} <= cells, holds
    exactly for lam0 above the density level (see :mod:`cubemax.partition`);
    the default lam0 is the level itself, the limit the construction uses.
    A non-finite cell in the cube raises :class:`PremiseViolated`.
    """
    d = f.d
    lam_q = lambda_q(f, q0)
    if lam0 is None:
        lam0 = lam_q
    elif lam0 <= lam_q:
        raise PreconditionDensity(
            f"more than 2^-{d + 1} of the cube lies in {{f >= {lam0}}}: "
            f"lam0 is at most the density level {lam_q}")

    fq0 = float(np.mean(f.array[q0.slices()].ravel()))
    if not np.isfinite(fq0):
        raise PremiseViolated(f"cube {q0} has the non-finite average {fq0!r}")
    lhs = q0.cell_count * (fq0 - lam0)

    dy = dyadic_descendants(q0)
    dy_avgs = family_averages(f, dy)
    # a dyadic cube holds at most half its cells in {f >= lam} exactly above this
    sparse_above = kth_largest(f.array, dy, lambda cells: cells // 2 + 1)

    bps = lambda_breakpoints(f, np.concatenate((dy_avgs, [fq0])))
    vols = np.zeros(bps.size)
    for k in range(1, bps.size):
        if bps[k - 1] < fq0:
            continue  # interval below the average contributes nothing
        lam = bps[k]
        select = (sparse_above < lam) & (lam <= dy_avgs)
        if not select.any():
            continue
        u = dy.select(select).union_pixels(f.dims).mask
        vols[k] = np.count_nonzero(u & (f.array >= lam))
    rhs = 2 ** (d + 1) * integrate_breakpoints(bps, vols, lower=fq0)
    return lhs, rhs


@dataclass(frozen=True)
class CoveringResult:
    band: CubeFamily
    covered: PixelSet
    uncovered: PixelSet

    @property
    def exact(self) -> bool:
        return self.uncovered.count == 0


def covering_middensity(E: PixelSet, q0: GridCube) -> CoveringResult:
    """Dyadic subcubes of q0 in the density band [2^{-d-1}, 1/2) and the
    cells of E within q0 they cover.

    Requires the base density to be strictly below one half.  On a grid the
    band cubes cover every E-cell of q0 (descend the dyadic chain to the
    first level where the density reaches the lower band edge).
    """
    cnt0 = int(np.count_nonzero(E.mask[q0.slices()]))
    if 2 * cnt0 >= q0.cell_count:
        raise PreconditionDensity(f"density {cnt0}/{q0.cell_count} not below 1/2")
    dy = dyadic_descendants(q0)
    lo, hi = density_band(E.mask.astype(np.float64), dy)
    members = dy.select((lo < 1.0) & (1.0 <= hi))
    cover = members.union_pixels(E.dims).mask
    target = q0.pixels(E.dims).mask & E.mask
    return CoveringResult(
        members,
        PixelSet(E.dims, target & cover),
        PixelSet(E.dims, target & ~cover),
    )


def contract_density_check(E: PixelSet, q: GridCube, eps: float) -> bool:
    """Density of E inside the doubly contracted cube stays in the widened band.

    Volumes of the contracted cube and its overlap with E are exact products
    of interval overlaps (cells weighted by the fraction the real box covers).
    """
    d = len(E.dims)
    lo, hi = dilate_bounds(*cube_bounds(np.array(q.anchor), np.array(q.side)), (1.0 - eps) ** 2)
    weights = []
    for ax, n in enumerate(E.dims):
        w = np.minimum(np.arange(1, n + 1), hi[ax]) - np.maximum(np.arange(n), lo[ax])
        weights.append(np.maximum(w, 0.0))
    w = weights[0]
    for ax in range(1, d):
        w = np.multiply.outer(w, weights[ax])
    overlap = float(np.sum(w * E.mask))
    vol = math.prod(np.maximum(hi - lo, 0.0).tolist())
    lo = vol / 2 ** (d + 2)
    hi = vol * (0.5 + 1.0 / 2 ** (d + 2))
    return lo < overlap < hi


def poincare_ratio(f: GridFunction, q: GridCube) -> float:
    """Mean-oscillation norm over the cube relative to the variation inside it.

    Uses the d/(d-1) norm with cell weight 1; in one dimension the
    exponent degenerates to the max norm.  Both sides scale alike with the
    cell width, so the ratio does not depend on it.
    """
    d = f.d
    vals = f.array[q.slices()]
    dev = np.abs(vals - float(np.mean(vals)))
    if d == 1:
        norm = float(dev.max())
    else:
        p = d / (d - 1)
        norm = float(np.sum(dev ** p)) ** (1.0 / p)
    var_q = variation(f, q.pixels(f.dims))
    if var_q == 0.0:
        raise ZeroVariationInput("function is constant inside the cube")
    return norm / var_q


def isoperimetric_significant(E: PixelSet, q: GridCube, delta: float) -> tuple[float, float]:
    """(boundary face count inside the cube to the d-th power, overlap cell
    count to the (d-1)-th power) for a set occupying at most a (1-delta)
    fraction.
    """
    d = len(E.dims)
    mask = q.pixels(E.dims)
    cnt = int(np.count_nonzero(E.mask & mask.mask))
    if cnt > (1.0 - delta) * q.cell_count:
        raise PreconditionDensity(f"set fills more than 1-delta of the cube")
    return float(perimeter(E, mask=mask)) ** d, float(cnt) ** (d - 1)


@dataclass
class TheoremReport:
    """Everything measured by one end-to-end evaluation."""

    lhs: float
    rhs: float
    ratio: float
    lam_table: dict            # per-level arrays (lam, sizes, terms, lhs, rhs)
    subterms: dict             # integral breakdown and sparse selection summary
    deep: dict | None = None   # reduction-chain diagnostics when requested


def theorem_main_evaluate(f: GridFunction, fam: CubeFamily, *,
                          deep: bool = True) -> TheoremReport:
    """Exact breakpoint evaluation of the main boundary inequality.

    Checks dyadic completeness, reduces to the maximal subfamily (which
    leaves every level union unchanged), reads every per-level column from
    the reduced family's :func:`density_levels` triple (see
    :func:`_level_face_columns` and :meth:`DensityLevels.q2_boundary_faces`),
    and integrates both sides.  The interval ``(bps[k-1], bps[k]]`` takes
    the columns' entry ``k``; entry 0 is 0.
    With ``deep`` the full reduction chain is evaluated per level and its
    observed constants are reported.  It measures and does not judge: the
    caller compares the ratio with its cap.
    """
    ok, witness = is_dyadically_complete(fam)
    if not ok:
        raise NotDyadicallyComplete(witness)

    fam = fam if fam.averages is not None else fam.with_averages(f)
    red = maximal_cube_reduction(fam, f)
    require_finite_averages(red)

    bps = lambda_breakpoints(f, red.averages)
    split = density_levels(f, red)
    lhs_c, term1_c, rhs_c, hd_c = _level_face_columns(
        f, split, red.union_pixels(f.dims).mask, bps)
    term2_c = split.q2_boundary_faces(bps)
    term2_c[0] = 0
    # the split dominates the full boundary, exactly in face counts
    bad = np.flatnonzero(lhs_c > term1_c + term2_c)
    if bad.size:
        k = int(bad[0])
        raise InvariantViolated(
            f"at level {float(bps[k])!r}: {int(lhs_c[k])} level-union boundary faces exceed "
            f"{int(term1_c[k])} + {int(term2_c[k])} in the density split")

    lhs_terms, term1s, term2s, rhs_terms, rhs_lam = (
        c.astype(np.float64) for c in (lhs_c, term1_c, term2_c, rhs_c, hd_c))
    hd_ratios = np.where(term1s == 0, 0.0, math.inf)
    np.divide(term1s, rhs_lam, out=hd_ratios, where=rhs_lam > 0)

    # class sizes at each level: lam0 <= lam1 <= avg, so each class is a
    # difference of two counts of triple entries at or above the level
    def at_or_above(v):
        return v.size - np.searchsorted(np.sort(v), bps, "left")

    n0, n01, n_all = at_or_above(split.lam0), at_or_above(split.lam1), at_or_above(split.avg)
    q_sizes = np.stack((n0, n01 - n0, n_all - n01), axis=1)
    q_sizes[0] = 0

    lhs = integrate_breakpoints(bps, lhs_terms)
    rhs = integrate_breakpoints(bps, rhs_terms)
    q2_integral = integrate_breakpoints(bps, term2s)
    hd_integral = integrate_breakpoints(bps, term1s)

    sparse = greedy_sparse(f, red.select(split.ever_q2))

    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    report = TheoremReport(
        lhs=lhs, rhs=rhs, ratio=ratio,
        lam_table={
            "lam": bps, "n_q0": q_sizes[:, 0], "n_q1": q_sizes[:, 1],
            "n_q2": q_sizes[:, 2], "term1": term1s, "term2": term2s,
            "lhs": lhs_terms, "f_boundary": rhs_terms,
        },
        subterms={
            "high_density_integral": hd_integral,
            "q2_boundary_integral": q2_integral,
            "sparse_rhs_sum": sparse.rhs_sum,
            "sparse_size": len(sparse),
            "q2_mass_ratio": (q2_integral / sparse.rhs_sum
                              if sparse.rhs_sum > 0 else 0.0),
            "high_density_ratio_max": float(np.max(hd_ratios[np.isfinite(hd_ratios)]))
            if np.isfinite(hd_ratios).any() else 0.0,
        },
    )
    if deep:
        report.deep = _deep_chain(f, sparse, bps)
    return report


def _level_face_columns(f: GridFunction, split: DensityLevels, full_union: np.ndarray,
                        bps: np.ndarray) -> np.ndarray:
    """Four per-level face-count columns over the sorted, finite ``bps``.

    Row 0 (lhs): faces of the full level union outside the level set.
    Row 1 (term1): the same for the q0+q1 union.  Row 2 (f_boundary): faces
    of the level set inside ``full_union``.  Row 3 (the high-density
    denominator): faces of the level set inside the full level union.

    With F the values (NaN as -inf) and PA, P01 the max-paints of the
    averages and of lam1, a directed face (x inside, y outside) counts at
    the levels lam of one interval: lhs on (max(F(x), F(y), PA(y)), PA(x)],
    term1 on the same with P01 for PA, f_boundary on (F(y), F(x)] when both
    cells lie in ``full_union``, and the denominator on
    (F(y), min(F(x), PA(x), PA(y))].  Each interval adds +1/-1 at its
    breakpoint indices in a difference array; column entry 0 is 0.
    """
    m = bps.size
    F = np.nan_to_num(f.array, nan=-np.inf)
    diffs = np.zeros((4, m + 1), dtype=np.int64)

    def count(row, lo, hi):
        keep = lo < hi
        diffs[row] += np.bincount(np.searchsorted(bps, lo[keep], "right"), minlength=m + 1)
        diffs[row] -= np.bincount(np.searchsorted(bps, hi[keep], "right"), minlength=m + 1)

    for ax in range(f.d):
        fa, pa, p01, fu = (np.moveaxis(a, ax, 0)
                           for a in (F, split.paint_all, split.paint01, full_union))
        for x, y in ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))):
            fx, fy = fa[x], fa[y]
            top = np.maximum(fx, fy)
            count(0, np.maximum(top, pa[y]), pa[x])
            count(1, np.maximum(top, p01[y]), p01[x])
            both = fu[x] & fu[y]
            count(2, fy[both], fx[both])
            count(3, fy, np.minimum(fx, np.minimum(pa[x], pa[y])))
    cols = np.cumsum(diffs[:, :m], axis=1)
    cols[:, 0] = 0
    return cols


def _deep_chain(f: GridFunction, sparse: SparseFamily, bps: np.ndarray) -> dict:
    """Per-level reduction-chain measurements for the selected sparse cubes."""
    d = f.d
    eps = default_contraction(d)

    # the bases are the power-of-two selected cubes, in selection order.  Per
    # base, once: a descendant is selected at the levels lam in (lo, hi], where
    # it is in the density band and it or an ancestor has average at least lam
    pow2 = is_power_of_two(sparse.cubes.sides)
    bases = sparse.cubes.select(pow2)
    lamq = sparse.lambdas[pow2]
    f_sat = SummedAreaTable(f.array) if len(bases) else None
    dys, bands = [], []
    for q0 in bases:
        dy = dyadic_descendants(q0)
        lo, hi = density_band(f.array, dy)
        dys.append(dy)
        bands.append((lo, np.minimum(hi, _ancestor_max(dy, family_averages(f, dy, f_sat)))))
    vol_integral = np.zeros(len(bases))

    s_union = bases.union_pixels(f.dims)
    overlap_max, c1_max, c2_max, massbelow_max, eachlevel_max = 0, 1.0, 1.0, 0.0, 0.0

    # no base is active at a level below every base average
    first = int(np.searchsorted(bps, bases.averages.min(initial=np.inf)))
    for k in range(max(1, first), bps.size):
        lam = float(bps[k])
        active = np.flatnonzero(bases.averages <= lam)
        d_map: dict[GridCube, CubeFamily] = {}
        for i in active.tolist():
            lo, hi = bands[i]
            sel = dys[i].select((lo < lam) & (lam <= hi))
            if len(sel):
                d_map[bases.cubes[i]] = sel
                if bps[k - 1] >= bases.averages[i]:
                    vol_integral[i] += (bps[k] - bps[k - 1]) * \
                        float(sel.union_pixels(f.dims).count)
        if not d_map:
            continue
        S = bases.select(active)
        fl = disjoint_select(S, d_map, eps, f)
        overlap_max = max(overlap_max, fl.overlap_constant)
        c1_max = max(c1_max, fl.c1)
        c2_max = max(c2_max, fl.c2)

        # geometric scale sum: for each selected cube, the sum of inverse side
        # lengths of bases whose c2-dilate contains it (log base 2 bracketing);
        # running sums keep the selection order of the active bases
        qs = fl.cubes.sides
        qlo, qhi = cube_bounds(fl.cubes.anchors, qs)
        blo, bhi = dilate_bounds(*cube_bounds(S.anchors, S.sides), max(fl.c2, 1.0))
        inv_side = 1.0 / S.sides
        ssum = np.empty(len(qs))
        for rows in row_blocks(len(qs), len(S)):
            inside = np.all((blo <= qlo[rows, None]) & (qhi[rows, None] <= bhi), axis=-1)
            ssum[rows] = np.cumsum(np.where(inside, inv_side, 0.0), axis=1)[:, -1]
        massbelow_max = max(massbelow_max, float(np.max(ssum * qs)))
        each_sum = float(np.cumsum((qs ** d) * ssum)[-1])
        rhs_prefix = perimeter(superlevel(f, lam), mask=s_union)
        if rhs_prefix > 0:
            eachlevel_max = max(eachlevel_max, each_sum / rhs_prefix)

    lhs_b = (bases.averages - lamq) * 2 * d * bases.sides ** (d - 1)
    rhs_b = vol_integral / bases.sides
    pos = rhs_b > 0
    return {
        "eps": eps,
        "overlap_C_max": overlap_max,
        "C1_max": c1_max,
        "C2_max": c2_max,
        "mass_estimate_slack": float(np.max(lhs_b[pos] / rhs_b[pos], initial=0.0)),
        "massbelow_ratio_max": massbelow_max,
        "eachlevel_ratio_max": eachlevel_max,
    }


def _ancestor_max(dy: CubeFamily, avgs: np.ndarray) -> np.ndarray:
    """Per cube of ``dy = dyadic_descendants(q0)``, the largest average over
    the cube and its dyadic ancestors (NaN averages ignored).

    In canonical order the cubes of each side form one block whose tiles run
    in row-major order, so a block's parents are the previous block with
    every axis repeated twice.
    """
    d = dy.anchors.shape[1]
    out, start, tiles = [], 0, 1
    while start < len(dy):
        block = avgs[start:start + tiles ** d].reshape((tiles,) * d)
        if out:
            parents = out[-1]
            for ax in range(d):
                parents = parents.repeat(2, axis=ax)
            block = np.fmax(block, parents)
        out.append(block)
        start, tiles = start + tiles ** d, 2 * tiles
    return np.concatenate([b.ravel() for b in out])
