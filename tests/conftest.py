import math
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from cubemax import CubeFamily, GridCube, PixelSet, perimeter, superlevel
from cubemax import cubes as cubes_module
from cubemax.cubes import cube_arrays
from cubemax.errors import PremiseViolated
from cubemax.grid import boundary_faces_outside
from cubemax.partition import LevelPartition, density_levels
from cubemax.sat import SummedAreaTable
from cubemax.sparse import OverlapFamily

# formatted pass lines per acceptance criterion, filled in by the tests
ACCEPTANCE_LINES: dict[int, str] = {}
_OUTCOMES: list[tuple[int, str, str]] = []


def threshold_sum_variation(f, mask=None):
    """Coarea oracle for ``variation``: the sum over consecutive distinct
    in-domain values v_{i-1} < v_i of (v_i - v_{i-1}) * perimeter({f >= v_i})."""
    dom = mask.mask if mask is not None else np.ones(f.dims, dtype=bool)
    u = np.unique(f.array[dom])
    return float(sum((u[i] - u[i - 1]) * perimeter(superlevel(f, u[i]), mask)
                     for i in range(1, u.size)))


def partition_from_scratch(f, fam, lam):
    """Oracle for the density split: the split at one level rebuilt with no
    state from other levels, counting each cube's cells directly."""
    d = f.d
    cubes = fam.cubes
    avgs = np.asarray(fam.averages)
    sel = avgs >= lam
    level = superlevel(f, lam)
    cells = np.array([c.cell_count for c in cubes], dtype=np.int64)

    def counts_in(mask):
        return np.array([int(np.count_nonzero(mask[c.slices()])) for c in cubes], dtype=np.int64)

    def union(members):
        u = np.zeros(f.dims, dtype=bool)
        for i in np.flatnonzero(members):
            u[cubes[i].slices()] = True
        return u

    q0 = sel & (counts_in(level.mask) * 2 ** (d + 1) >= cells)
    u0 = union(q0)
    q1 = sel & ~q0 & (counts_in(u0) * 2 ** (d + 1) >= cells)
    q2 = sel & ~q0 & ~q1
    u01, u2 = union(q0 | q1), union(q2)

    def fam_of(m):
        idx = np.flatnonzero(m)
        return CubeFamily([cubes[i] for i in idx], avgs[idx])

    return SimpleNamespace(
        level=level, q0=fam_of(q0), q1=fam_of(q1), q2=fam_of(q2),
        union_q0=PixelSet(f.dims, u0), union_q01=PixelSet(f.dims, u01),
        union_q2=PixelSet(f.dims, u2), union_all=PixelSet(f.dims, u01 | u2))


def carried_level_sweep(f, fam, levels):
    """Second oracle for the density split: the level sweep that walks
    non-increasing levels and carries the monotone q0 and q0+q1 unions from
    level to level, counting cells with two summed-area tables per level."""
    fam = fam if fam.averages is not None else fam.with_averages(f)
    avgs = np.asarray(fam.averages)
    n = len(fam)
    anchors, sides = fam.anchors, fam.sides
    cells = sides ** f.d
    thr = 2 ** (f.d + 1)
    u0 = np.zeros(f.dims, dtype=bool)
    u01 = np.zeros(f.dims, dtype=bool)
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
        u0 |= fam.select(q0).union_pixels(f.dims).mask
        rest = sel & ~q0
        counts0 = np.zeros(n, dtype=np.int64)
        counts0[rest] = SummedAreaTable(u0).box_sum_many(anchors[rest], sides[rest])
        q1 = rest & (counts0 * thr >= cells)
        q2 = rest & ~q1
        u01 |= fam.select(q0 | q1).union_pixels(f.dims).mask
        u2 = fam.select(q2).union_pixels(f.dims).mask
        yield LevelPartition(
            lam=float(lam), level=PixelSet(f.dims, level), family=fam,
            q0_mask=q0, q1_mask=q1, q2_mask=q2,
            union_q01=PixelSet(f.dims, u01.copy()), union_q2=PixelSet(f.dims, u2),
            union_all=PixelSet(f.dims, u01 | u2))


def counted_density_tests(values, fam, lam):
    """Oracle for the rank-statistic density tests: the superlevel cell count
    of every cube of ``fam`` at ``lam`` from one summed-area table of
    {values >= lam} (NaN cells are in no superlevel set), and the integer
    tests read from it.  Returns the masks ``dense`` (count * 2^{d+1} >=
    cells), ``below_half`` (2 count < cells), ``at_most_half`` (2 count <=
    cells) and ``strictly_dense`` (count * 2^{d+1} > cells)."""
    d = values.ndim
    counts = SummedAreaTable(values >= lam).box_sum_many(fam.anchors, fam.sides)
    cells = fam.sides ** d
    return SimpleNamespace(
        dense=counts * 2 ** (d + 1) >= cells, below_half=2 * counts < cells,
        at_most_half=2 * counts <= cells, strictly_dense=counts * 2 ** (d + 1) > cells)


def per_level_columns(f, red, bps):
    """Oracle for the evaluator's per-level columns: the split read at every
    breakpoint ``bps[k]``, k >= 1, with the boundary faces counted from the
    level's unions.  Returns the face counts (``lhs``, ``term1``, ``term2``,
    ``f_boundary``, ``hd_den``, the ``n_q*`` sizes) and the ratios computed
    from them as the report does (``hd_ratios``); entry 0 of every column
    is 0."""
    m = bps.size
    full_union = red.union_pixels(f.dims)
    split = density_levels(f, red)
    keys = ("lhs", "term1", "term2", "f_boundary", "hd_den", "n_q0", "n_q1", "n_q2")
    out = {key: np.zeros(m, dtype=np.int64) for key in keys}
    hd_ratios = np.zeros(m)
    for k in range(1, m):
        p = split.at(bps[k])
        row = (boundary_faces_outside(p.union_all, p.level),
               boundary_faces_outside(p.union_q01, p.level),
               perimeter(p.union_q2),
               perimeter(p.level, mask=full_union),
               perimeter(p.level, mask=p.union_all),
               *p.sizes)
        for key, value in zip(keys, row):
            out[key][k] = value
        term1, den = float(out["term1"][k]), float(out["hd_den"][k])
        hd_ratios[k] = term1 / den if den > 0 else (0.0 if term1 == 0 else math.inf)
    out["hd_ratios"] = hd_ratios
    return SimpleNamespace(**out)


def directed_face_columns(f, split, full_union, bps):
    """Oracle for ``estimates._level_face_columns``: every face read in both
    orientations (x inside, y outside), each on its own level interval,
    with the axis moved to the front."""
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


def doubling_spread(avg, side, dims):
    """Oracle for one side of ``maximal._max_over_containing_cubes``: the
    per-cell max over the side-``side`` cubes that cover it, NaN anchors
    holding no cube and NaN where no cube does.  Along each axis the trailing
    window grows in place by doubling: a window of ``span`` cells and its
    copy shifted by ``s <= span`` make a window of ``span + s`` (numpy reads
    overlapping ufunc operands as they were before the call)."""
    full = np.full(dims, np.nan)
    full[tuple(slice(0, n) for n in avg.shape)] = avg
    for ax in range(len(dims)):
        line = np.moveaxis(full, ax, 0)
        span = 1
        while span < side:
            s = min(span, side - span)
            np.fmax(line[s:], line[:-s], out=line[s:])
            span += s
    return full


def van_herk_spread(avg, side, dims):
    """Oracle for one side of ``maximal._max_over_containing_cubes``: the van
    Herk / Gil-Werman block pass.  Per axis it pads with NaN (no cube) to
    whole windows and takes the fmax of a block suffix max and a block
    prefix max."""
    full = np.full(dims, np.nan)
    full[tuple(slice(0, n) for n in avg.shape)] = avg
    if side == 1:
        return full
    for ax in range(len(dims)):
        a = np.moveaxis(full, ax, -1)
        n = a.shape[-1]
        w = np.concatenate((np.full(a.shape[:-1] + (side - 1,), np.nan), a), axis=-1)
        pad = (-w.shape[-1]) % side
        w = np.concatenate((w, np.full(a.shape[:-1] + (pad,), np.nan)), axis=-1)
        blocks = w.reshape(a.shape[:-1] + (-1, side))
        pre = np.fmax.accumulate(blocks, axis=-1).reshape(w.shape)
        suf = np.fmax.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1].reshape(w.shape)
        full = np.moveaxis(np.fmax(suf[..., :n], pre[..., side - 1:side - 1 + n]), -1, ax)
    return full


def exact_maximal_1d(vals):
    """Exact oracle for the 1-d maximal function of finite ``vals``: per
    cell, the max over every interval [a, b) holding it of the average
    ``sum(vals[a:b]) / (b - a)``, in ``Fraction`` arithmetic."""
    prefix = [Fraction(0)]
    for v in vals:
        prefix.append(prefix[-1] + Fraction(float(v)))
    n = len(vals)
    best = [None] * n
    for a in range(n):
        for b in range(a + 1, n + 1):
            avg = (prefix[b] - prefix[a]) / (b - a)
            for x in range(a, b):
                if best[x] is None or avg > best[x]:
                    best[x] = avg
    return best


def exact_variation_1d(vals):
    """sum |v[i + 1] - v[i]| over a 1-d sequence, in ``Fraction`` arithmetic."""
    v = [Fraction(x) if isinstance(x, Fraction) else Fraction(float(x)) for x in vals]
    return sum((abs(q - p) for p, q in zip(v, v[1:])), Fraction(0))


def _exact(vals):
    """An object array of the exact ``Fraction`` values of a float array."""
    return np.frompyfunc(lambda v: Fraction(float(v)), 1, 1)(np.asarray(vals, dtype=np.float64))


def exact_maximal(vals, cubes=None):
    """Exact oracle for the maximal function of finite ``vals`` in any
    dimension: per cell, the max of the ``Fraction`` averages over every grid
    cube in the box that holds it, or over the given ``GridCube``s.  An
    object array; None where no cube holds the cell."""
    exact = _exact(vals)
    if cubes is None:
        cubes = [GridCube(a, s) for s in range(1, min(exact.shape) + 1)
                 for a in np.ndindex(*(n - s + 1 for n in exact.shape))]
    best = np.full(exact.shape, None, dtype=object)
    for c in cubes:
        avg = exact[c.slices()].sum() / c.cell_count
        region = best[c.slices()]
        for cell in np.ndindex(*region.shape):
            if region[cell] is None or avg > region[cell]:
                region[cell] = avg
    return best


def exact_variation(vals):
    """The gradient sum of |differences| over adjacent cells of a grid array
    in any dimension, in ``Fraction`` arithmetic."""
    exact = _exact(vals)
    return sum((abs(q) for ax in range(exact.ndim) for q in np.diff(exact, axis=ax).ravel()),
               Fraction(0))


def dense_mask_variation(f, mask=None):
    """Oracle for ``variation``: the gradient sum with a dense domain mask,
    all true without ``mask``, that compresses each axis's differences."""
    dom = mask.mask if mask is not None else np.ones(f.dims, dtype=bool)
    arr = f.array
    if not np.all(np.isfinite(arr[dom])):
        raise ValueError("variation requires finite values on the domain")
    total = 0.0
    for ax in range(f.d):
        v = np.moveaxis(arr, ax, 0)
        m = np.moveaxis(dom, ax, 0)
        total += float(np.sum(np.abs(v[1:] - v[:-1])[m[1:] & m[:-1]]))
    return total


def _per_value_text(x):
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def per_value_write_columns(path, columns, sep, first_line):
    """Oracle for ``io.write_columns``: the rows of ``zip`` over the columns,
    each value given one ``isinstance`` test and one ``format`` call."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        for row in zip(*cols):
            fh.write(sep.join(_per_value_text(float(v)) if isinstance(v, np.floating)
                              else str(v) for v in row) + "\n")


def slice_loop_max_paint(fam, values, dims):
    """Oracle for ``CubeFamily.max_paint``: one in-place ``np.maximum`` over
    each member's slices, in member order."""
    out = np.full(tuple(dims), -np.inf)
    for a, s, v in zip(fam.anchors.tolist(), fam.sides.tolist(),
                       np.asarray(values, dtype=np.float64).tolist()):
        region = out[tuple(slice(x, x + s) for x in a)]
        np.maximum(region, v, out=region)
    return out


def dyadic_cubes_of(q0):
    """Every dyadic cube of the power-of-two cube ``q0``, by enumeration."""
    out = []
    s = q0.side
    while s >= 1:
        for off in np.ndindex(*([q0.side // s] * len(q0.anchor))):
            out.append(GridCube(tuple(a + o * s for a, o in zip(q0.anchor, off)), s))
        s //= 2
    return out


def brute_force_completion(cubes):
    """Fixed-point oracle for ``dyadic_completion``: repeatedly insert the
    missing dyadic cubes of each power-of-two member Q0 that hold a member P
    inside Q0, found by exhaustive enumeration of dy(Q0)."""
    members = set(cubes)
    while True:
        missing = set()
        for q0 in list(members):
            if q0.side & (q0.side - 1):
                continue
            for p in list(members):
                if p == q0 or not cube_holds(q0, p):
                    continue
                for q in dyadic_cubes_of(q0):
                    if cube_holds(q, p) and q not in members:
                        missing.add(q)
        if not missing:
            return members
        members |= missing


def mask_simple_function(rng, dims, terms=4):
    """Oracle for ``generators.simple_function``: each term paints a full-grid
    boolean mask of its box, and non-constancy is tested with ``np.unique``."""
    levels = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    while True:
        vals = np.zeros(tuple(dims))
        for _ in range(terms):
            m, box = np.zeros(tuple(dims), dtype=bool), []
            for n in dims:
                a = int(rng.integers(0, n))
                box.append(slice(a, int(rng.integers(a + 1, n + 1))))
            m[tuple(box)] = True
            vals[m] += float(rng.choice(levels))
        if np.unique(vals).size > 1:
            return vals


def fixed_point_completion(fam):
    """Vectorised fixed-point oracle for ``dyadic_completion``: join the
    one-step dyadic parents of every contained pair until nothing is added."""
    grown = cubes_module._with_dyadic_parents(fam)
    while len(grown) > len(fam):
        fam, grown = grown, cubes_module._with_dyadic_parents(grown)
    return grown


def gridcube_random_family(rng, dims, count, pow2=True):
    """Oracle for ``generators.random_family``: one ``GridCube`` per draw
    (side, then anchor axis by axis), turned into arrays at the end."""
    cubes = []
    nmin = min(dims)
    for _ in range(count):
        if pow2:
            side = 2 ** int(rng.integers(0, int(np.log2(nmin)) + 1))
        else:
            side = int(rng.integers(1, nmin + 1))
        cubes.append(GridCube(tuple(int(rng.integers(0, n - side + 1)) for n in dims), side))
    return CubeFamily.from_arrays(*cube_arrays(cubes, len(dims)))


def set_witness(fam):
    """Oracle for ``is_dyadically_complete``, in any member order.  The flag
    says whether :func:`brute_force_completion` adds nothing.  The witness
    is the first, in canonical order, of the cubes a Python set of the
    members lacks among these: for each member P inside a power-of-two
    member Q0, the smallest enumerated dyadic cube of Q0 that holds P and is
    not P."""
    members = set(fam.cubes)
    wanted = set()
    for q0 in members:
        if q0.side & (q0.side - 1):
            continue
        for p in members:
            if p != q0 and cube_holds(q0, p):
                wanted.add(min((q for q in dyadic_cubes_of(q0) if q != p and cube_holds(q, p)),
                               key=lambda q: q.side))
    missing = CubeFamily(wanted - members)
    return brute_force_completion(members) == members, missing[0] if len(missing) else None


def loop_compensated_cumsum(a, axis):
    """Oracle for ``sat._compensated_cumsum``: Neumaier's running sum, one
    numpy step per row of the axis."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    s = np.array(a[0], dtype=np.float64, copy=True)
    c = np.zeros_like(s)
    out[0] = s
    for i in range(1, a.shape[0]):
        x = a[i]
        t = s + x
        swap = np.abs(s) >= np.abs(x)
        c = c + np.where(swap, (s - t) + x, (x - t) + s)
        s = t
        out[i] = s + c
    return np.moveaxis(out, 0, axis)


def signed_term_box_sum_grid(sat, side):
    """Oracle for ``SummedAreaTable.box_sum_grid`` on a table without NaN
    cells: each corner term times its sign, out of place, added in ascending
    bitmask order over the axes."""
    acc = None
    for bits in range(2 ** sat.d):
        sign = 1 if (sat.d - bin(bits).count("1")) % 2 == 0 else -1
        term = sat.table[tuple(slice(side, None) if (bits >> k) & 1 else slice(0, n + 1 - side)
                               for k, n in enumerate(sat.dims))]
        acc = sign * term if acc is None else acc + sign * term
    return acc


def nan_count_rule(arr, query):
    """Oracle for the NaN rule of ``SummedAreaTable``: ``query``, a function
    of a table, on the table of ``arr`` with its NaN cells as 0, set to NaN
    wherever the same query on the int64 table of NaN counts is above 0."""
    nan = np.isnan(arr)
    if not nan.any():
        return query(SummedAreaTable(arr))
    acc = query(SummedAreaTable(np.where(nan, 0.0, arr)))
    acc[query(SummedAreaTable(nan)) > 0] = np.nan
    return acc


def draw_nan_cells(data, d, largest):
    """A float array of drawn dims (1..``largest[d]`` per axis) whose cells
    span 1e-8 to 1e8 with both signs and signed zeros, with NaN at a mask of
    a drawn kind: none, one cell, a border row, all cells or a random set."""
    dims = tuple(data.draw(st.lists(st.integers(1, largest[d]), min_size=d, max_size=d),
                           label="dims"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    arr = rng.choice([-1.0, 1.0], dims) * 10.0 ** rng.uniform(-8, 8, dims)
    arr[rng.random(dims) < 0.1] = 0.0
    arr[rng.random(dims) < 0.1] = -0.0
    kind = data.draw(st.sampled_from(["none", "one", "border", "all", "random"]), label="mask")
    nan = np.zeros(dims, dtype=bool)
    if kind == "one":
        nan.flat[rng.integers(nan.size)] = True
    elif kind == "border":
        ax = int(rng.integers(d))
        nan[(slice(None),) * ax + (int(rng.choice([0, -1])),)] = True
    elif kind == "all":
        nan[...] = True
    elif kind == "random":
        nan = rng.random(dims) < rng.uniform(0.02, 0.5)
    arr[nan] = np.nan
    return arr, rng


def unique_canonical_order(anchors, sides, averages=None):
    """Oracle for ``CubeFamily`` canonicalisation: ``np.unique`` over the
    reversed rows (-side, anchor...), whose first-occurrence index is the
    last repeat in input order.  Returns the canonical anchors, sides and
    averages (None without averages)."""
    _, last = np.unique(np.column_stack((-sides, anchors))[::-1], axis=0, return_index=True)
    idx = len(sides) - 1 - last
    return (anchors[idx], sides[idx],
            None if averages is None else np.asarray(averages, dtype=np.float64)[idx])


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Shrink the pair budget so that ``row_blocks`` yields one row per block."""
    monkeypatch.setattr(cubes_module, "PAIR_BUDGET", 1)


def union_by_slices(cubes, dims):
    """Oracle for ``CubeFamily.union_pixels``: paint each cube's slices."""
    u = np.zeros(tuple(dims), dtype=bool)
    for c in cubes:
        u[c.slices()] = True
    return u


# Scalar oracles for the selection audits.  They work one cube pair at a
# time on GridCube tuples and on boxes held as (lo, hi) tuples in cell
# units, with their own containment, dilation and scale index, so they share
# no array arithmetic with the library.

class Box(NamedTuple):
    """An axis-aligned real box as corner tuples."""

    lo: tuple
    hi: tuple


def cube_box(c):
    """The box of the grid cube ``c``, with integer corners."""
    return Box(tuple(c.anchor), tuple(a + c.side for a in c.anchor))


def box_holds(outer, inner):
    """Whether the real box ``outer`` contains the real box ``inner``."""
    return all(a <= c and d <= b for a, b, c, d in zip(outer.lo, outer.hi, inner.lo, inner.hi))


def cube_holds(outer, inner):
    """Whether the grid cube ``outer`` contains the grid cube ``inner``."""
    return all(a <= b and b + inner.side <= a + outer.side
               for a, b in zip(outer.anchor, inner.anchor))


def cube_holds_cell(c, cell):
    """Whether the grid cube ``c`` holds the cell with index tuple ``cell``."""
    return all(a <= x < a + c.side for a, x in zip(c.anchor, cell))


def scalar_scale_index(c):
    """The n with 2**n <= c.side < 2**(n + 1), from the bit length."""
    return c.side.bit_length() - 1


def scalar_dilate(q, K):
    """The box with the centre of the grid cube or box ``q`` and sides scaled by ``K``."""
    box = cube_box(q) if isinstance(q, GridCube) else q
    lo, hi = [], []
    for a, b in zip(box.lo, box.hi):
        c = 0.5 * (a + b)
        r = 0.5 * (b - a) * K
        lo.append(c - r)
        hi.append(c + r)
    return Box(tuple(lo), tuple(hi))


def scalar_pairwise_violations(fam, f):
    """Oracle for ``sparse_pairwise_violations``."""
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
            if scalar_scale_index(R) < scalar_scale_index(Q) \
                    and fam.cubes.averages[i] > fam.cubes.averages[j]:
                continue
            bad.append((i, j))
    return bad


def _box_overlap(a, b):
    v = 1.0
    for lo_a, hi_a, lo_b, hi_b in zip(a.lo, a.hi, b.lo, b.hi):
        v *= max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
    return v


def _needed_dilation(inner, outer):
    """Smallest K with inner contained in the K-dilate of outer."""
    k = 0.0
    for lo_i, hi_i, lo_o, hi_o in zip(inner.lo, inner.hi, outer.lo, outer.hi):
        c = 0.5 * (lo_o + hi_o)
        r = 0.5 * (hi_o - lo_o)
        k = max(k, max(hi_i - c, c - lo_i) / r)
    return k


def scalar_overlap_count(cubes, K, dims):
    """Oracle for ``dilate_overlap_count``."""
    if not cubes:
        return 0
    counter = np.zeros(tuple(dims), dtype=np.int64)
    for c in cubes:
        box = scalar_dilate(c, K)
        sl = []
        for n, lo, hi in zip(dims, box.lo, box.hi):
            # cell center i + 0.5 lies in [lo, hi)
            i0 = max(0, math.ceil(lo - 0.5))
            i1 = min(n, math.ceil(hi - 0.5))
            sl.append(slice(i0, max(i0, i1)))
        counter[tuple(sl)] += 1
    return int(counter.max())


def scalar_disjoint_select(S, D_per_Q0, eps, f):
    """Oracle for ``disjoint_select``."""
    for q0, ds in D_per_Q0.items():
        for q in ds:
            if not cube_holds(q0, q):
                raise PremiseViolated(f"{q} not contained in its base cube {q0}")
    all_d = sorted({q for ds in D_per_Q0.values() for q in ds},
                   key=lambda c: (-c.side, c.anchor))
    for s_cube in S.cubes:
        for q in all_d:
            if cube_holds(q, s_cube) and q != s_cube:
                raise PremiseViolated(f"selection cube {s_cube} strictly inside {q}")
    if not all_d:
        return OverlapFamily(CubeFamily.from_arrays(np.empty((0, f.d)), np.empty(0)),
                             eps, 0, 1.0, 1.0)

    boxes = [cube_box(c) for c in all_d]
    contracted = [scalar_dilate(c, 1.0 - eps) for c in all_d]
    keep = []
    for i, q in enumerate(all_d):
        swallowed = any(j != i and box_holds(contracted[j], boxes[i]) for j in range(len(all_d)))
        if not swallowed:
            keep.append(i)

    factor = (1.0 - eps) ** 2
    chosen = []
    by_scale = {}
    for i in keep:
        by_scale.setdefault(scalar_scale_index(all_d[i]), []).append(i)
    for n in sorted(by_scale, reverse=True):
        taken = []
        for i in by_scale[n]:
            bi = scalar_dilate(all_d[i], factor)
            if all(_box_overlap(bi, scalar_dilate(all_d[j], factor)) == 0.0 for j in taken):
                taken.append(i)
        chosen.extend(taken)
    F = [all_d[i] for i in chosen]

    overlap_c = scalar_overlap_count(F, factor, f.dims)

    c1 = 1.0
    c2 = 1.0
    f_boxes = [cube_box(c) for c in F]
    for q0, ds in D_per_Q0.items():
        base = cube_box(q0)
        for q in ds:
            qb = cube_box(q)
            best = None
            for pb in f_boxes:
                need1 = _needed_dilation(qb, pb)
                need2 = _needed_dilation(pb, base)
                score = max(need1, need2)
                if best is None or score < best[0]:
                    best = (score, need1, need2)
            c1 = max(c1, best[1])
            c2 = max(c2, best[2])
    return OverlapFamily(CubeFamily(F), eps, overlap_c, c1, c2)


def _broadcast_cover_dilation(ilo, ihi, olo, ohi):
    c = 0.5 * (olo + ohi)
    r = 0.5 * (ohi - olo)
    return np.maximum(0.0, np.max(np.maximum(ihi - c, c - ilo) / r, axis=-1))


def broadcast_capture(D_per_Q0, F):
    """Oracle for the capture constants (c1, c2) of ``disjoint_select`` given
    its selection ``F``: every (input cube, selected cube) pair, the selected
    cubes' own rows included, scored on (rows, m, d) corner arrays, 32 input
    rows at a time, with both dilations computed per pair."""
    base_a, base_s = cube_arrays(D_per_Q0)
    groups = list(D_per_Q0.values())
    qa = np.concatenate([ds.anchors for ds in groups])
    qs = np.concatenate([ds.sides for ds in groups])
    owner = np.repeat(np.arange(len(groups)), [len(ds) for ds in groups])
    plo, phi = F.anchors, F.anchors + F.sides[:, None]
    qlo, qhi = qa, qa + qs[:, None]
    blo, bhi = base_a, base_a + base_s[:, None]
    c1 = 1.0
    c2 = 1.0
    for start in range(0, len(qs), 32):
        rows = slice(start, start + 32)
        need1 = _broadcast_cover_dilation(qlo[rows, None], qhi[rows, None], plo, phi)
        need2 = _broadcast_cover_dilation(plo, phi, blo[owner[rows], None], bhi[owner[rows], None])
        best = np.argmin(np.maximum(need1, need2), axis=1)
        pick = np.arange(len(best))
        c1 = max(c1, float(need1[pick, best].max()))
        c2 = max(c2, float(need2[pick, best].max()))
    return c1, c2


# Scalar oracles for the sampled geometry checks.  They evaluate one cover
# trial, one edge and one square at a time, with their own rotation
# formulas, so they share no array arithmetic with ``cubemax.geom``.

def scalar_rotation_2d(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def scalar_rotation_3d(axis, theta):
    axis = np.asarray(axis, dtype=np.float64)
    kx, ky, kz = axis / np.linalg.norm(axis)
    K = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def scalar_cover_margin(draws, t, eps, delta, rot_q=None):
    """Oracle for ``geom._cover_margins``: trial ``t`` of a block of draws,
    evaluated alone by enumerating the perturbed cube's vertices, with the
    unperturbed cube centered at the origin and turned by ``rot_q`` (the
    identity by default, the frame the library works in)."""
    d = draws.shift.shape[1]
    rot_q = np.eye(d) if rot_q is None else np.asarray(rot_q, dtype=np.float64)
    s_q = float(draws.s_q[t])
    f_size, f_shift, f_angle = (float(x) for x in draws.frac[t])
    s_p = s_q * (1 + delta * f_size)
    shift = draws.shift[t] * (delta * s_q * f_shift) / np.linalg.norm(draws.shift[t])
    theta = delta * f_angle
    turn = scalar_rotation_2d(theta) if d == 2 else scalar_rotation_3d(draws.axis_p[t], theta)
    rot_p = turn @ rot_q
    corners = np.array(list(np.ndindex(*([2] * d)))) * 2.0 - 1.0
    verts = shift + (corners * s_p / 2.0) @ rot_p.T
    local = verts @ rot_q
    return float((1 + eps) * s_q / 2.0 - np.abs(local).max())


def scalar_cone_heights(u, anchors, offsets, L):
    """Oracle for ``geom._cone_heights``: one row and one anchor at a time,
    the distance summed over the axes in order with Python floats."""
    out = np.empty(len(u))
    for i, row in enumerate(u.tolist()):
        best = math.inf
        for anchor, offset in zip(anchors.tolist(), offsets.tolist()):
            sq = 0.0
            for x, a in zip(row, anchor):
                sq += (x - a) * (x - a)
            best = min(best, offset + L * math.sqrt(sq))
        out[i] = best
    return out


def kdtree_blowup_hits(draws, eps):
    """Oracle for ``geom._graph_hits``: a k-d tree over every mesh point of
    the graph, and a sample hits when its nearest one is closer than eps."""
    from scipy.spatial import cKDTree

    du = draws.x.shape[1] - 1
    mesh = np.stack([g.ravel() for g in np.meshgrid(*[draws.grid] * du, indexing="ij")], axis=1)
    dist, _ = cKDTree(np.column_stack([mesh, draws.mesh_z.ravel()])).query(draws.x, k=1)
    return dist < eps


def _segment_interval_in_square(p0, direction, length, sq):
    """Parameter interval of p0 + t*direction, t in [0, length], inside the open square."""
    c = np.asarray(sq.center)
    q0 = (p0 - c) @ sq.rotation
    dv = direction @ sq.rotation
    t0, t1 = 0.0, length
    half = sq.side / 2.0
    for k in range(2):
        if abs(dv[k]) < 1e-15:
            if abs(q0[k]) >= half:
                return None
            continue
        a = (-half - q0[k]) / dv[k]
        b = (half - q0[k]) / dv[k]
        if a > b:
            a, b = b, a
        t0, t1 = max(t0, a), min(t1, b)
        if t0 >= t1:
            return None
    return (t0, t1)


def _segment_interval_in_disk(p0, direction, length, radius):
    # |p0 + t v|^2 < r^2, unit v
    b = float(np.dot(p0, direction))
    c = float(np.dot(p0, p0)) - radius * radius
    disc = b * b - c
    if disc <= 0:
        return None
    r = math.sqrt(disc)
    t0, t1 = max(0.0, -b - r), min(length, -b + r)
    return (t0, t1) if t0 < t1 else None


def _subtract_intervals(base, holes):
    """Length of base minus the union of holes."""
    lo, hi = base
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in holes
                     if min(hi, b) > max(lo, a))
    covered = 0.0
    cur = lo
    for a, b in clipped:
        if b <= cur:
            continue
        covered += b - max(a, cur)
        cur = b
    return (hi - lo) - covered


def scalar_boundary_length_in_disk(squares, radius=1.0):
    """Oracle for ``geom.boundary_length_in_disk``: each edge of each square
    clipped to the disk and against every other square in turn."""
    total = 0.0
    for i, sq in enumerate(squares):
        verts = sq.vertices()
        order = [0, 1, 3, 2]  # ndindex corner order traced as a closed loop
        for a in range(4):
            p0 = verts[order[a]]
            p1 = verts[order[(a + 1) % 4]]
            seg = p1 - p0
            length = float(np.linalg.norm(seg))
            v = seg / length
            disk = _segment_interval_in_disk(p0, v, length, radius)
            if disk is None:
                continue
            holes = []
            for j, other in enumerate(squares):
                if j == i:
                    continue
                iv = _segment_interval_in_square(p0, v, length, other)
                if iv is not None:
                    holes.append(iv)
            total += _subtract_intervals(disk, holes)
    return total


def scalar_large_boundary(K, trials, seed):
    """Oracle for ``geom.large_boundary_in_ball_check`` (its ``max_ratio``):
    the same whole-array draws, one ``OrientedCube`` union per trial taken
    in trial order, each measured alone by ``scalar_boundary_length_in_disk``."""
    from cubemax.geom import OrientedCube

    rng = np.random.default_rng(seed)
    bound = (K ** -2 + 1.0) * 2 * math.pi
    counts = rng.integers(1, 12, size=trials)
    total = int(counts.sum())
    sides = 2 * K * (1.0 + rng.exponential(0.7, total))
    thetas = rng.uniform(0, 2 * math.pi, total)
    directions = rng.normal(size=(total, 2))
    dists = sides / 2.0 * rng.uniform(0.0, 1.2, total)
    worst, i = 0.0, 0
    for n in counts.tolist():
        squares = []
        for side, theta, direction, dist in zip(sides[i:i + n], thetas[i:i + n],
                                                directions[i:i + n], dists[i:i + n]):
            center = direction / math.hypot(*direction) * dist
            squares.append(OrientedCube(tuple(center), float(side), scalar_rotation_2d(theta)))
        worst = max(worst, scalar_boundary_length_in_disk(squares) / bound)
        i += n
    return worst


def scalar_min_angle_check(eps, N, trials, d=2, seed=0):
    """Oracle for ``geom.min_angle_check``: one seeded draw per call, with the
    viewpoint distances drawn by ``Generator.uniform(N+1, 4(N+1))``."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(2, trials, d))
    y *= rng.uniform(0, 1.0, size=(2, trials, 1)) ** (1.0 / d) / np.linalg.norm(y, axis=-1, keepdims=True)
    u1 = rng.normal(size=(trials, d))
    u1 /= np.linalg.norm(u1, axis=-1, keepdims=True)
    perp = rng.normal(size=(trials, d))
    perp -= np.sum(perp * u1, axis=-1, keepdims=True) * u1
    perp /= np.linalg.norm(perp, axis=-1, keepdims=True)
    theta = rng.uniform(0, eps, size=(trials, 1))
    u2 = np.cos(theta) * u1 + np.sin(theta) * perp
    lo = float(N + 1)
    m1 = rng.uniform(lo, 4 * lo, size=(trials, 1))
    m2 = rng.uniform(lo, 4 * lo, size=(trials, 1))
    for t in range(trials):
        v1, v2 = y[0, t] - m1[t] * u1[t], y[1, t] - m2[t] * u2[t]
        cos = float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        if math.acos(min(1.0, max(-1.0, cos))) > 2 * eps + 1e-12:
            return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::test_c" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        num = int(name.split("_")[1][1:])
        _OUTCOMES.append((num, name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _OUTCOMES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, name, outcome in sorted(_OUTCOMES):
        line = ACCEPTANCE_LINES.get(num) if outcome == "PASSED" else None
        terminalreporter.write_line(line or f"ACCEPTANCE {num:02d} {name}: {outcome}")
