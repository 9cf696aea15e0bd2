from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import (
    CubeFamily,
    GridCube,
    GridFunction,
    PixelSet,
    SummedAreaTable,
    grid_from_array,
    lambda_breakpoints,
    superlevel,
    variation,
)
from cubemax import maximal as maximal_module
from cubemax.errors import EmptyDomain, PremiseViolated, ZeroVariationInput
from cubemax.maximal import (
    _max_over_containing_cubes,
    maximal_family,
    maximal_global,
    maximal_local,
    nonzero_variation,
)
from conftest import (
    doubling_spread,
    exact_maximal,
    exact_maximal_1d,
    exact_variation,
    exact_variation_1d,
    van_herk_spread,
)


def brute_force(vals, omega=None):
    """Oracle: the max over every cube in the domain (the non-NaN cells of
    ``vals`` inside ``omega``, all of them by default) of its average from
    the shared table of ``vals`` with NaN off the domain.  It starts from the
    single cells of the domain, whose averages are their values, spreads
    every larger cube that lies in the domain over its cells, and leaves NaN
    off the domain."""
    dom = ~np.isnan(vals) if omega is None else omega & ~np.isnan(vals)
    sat = SummedAreaTable(np.where(dom, vals, np.nan))
    want = np.where(dom, vals, -np.inf)
    for side in range(2, min(dom.shape) + 1):
        avg = sat.box_avg_grid(side)
        for anchor in np.ndindex(*avg.shape):
            sl = tuple(slice(a, a + side) for a in anchor)
            if dom[sl].all():
                want[sl] = np.maximum(want[sl], avg[anchor])
    want[~dom] = np.nan
    return want


def random_anchor_maps(rng, dims, top, nan_frac):
    """Integer anchor maps for sides 1..min(dims) with ties, -inf entries and
    NaN anchors (no cube); every side above ``top`` is all NaN, as when no
    cube of that side lies in the domain."""
    avgs = {}
    for side in range(1, min(dims) + 1):
        shape = tuple(n - side + 1 for n in dims)
        if side > top:
            avgs[side] = np.full(shape, np.nan)
            continue
        avg = rng.integers(-8, 8, shape).astype(float)
        avg[rng.random(shape) < 0.2] = -np.inf
        avg[rng.random(shape) < nan_frac] = np.nan
        avgs[side] = avg
    return avgs


def check_descent(avgs, dims):
    """The descent against the per-side doubling and van Herk spreads and a
    per-anchor loop, bit for bit, NaN cells included."""
    got = _max_over_containing_cubes(avgs[1], lambda side: avgs[side].copy())
    assert got.shape == dims
    for spread in (doubling_spread, van_herk_spread):
        want = np.full(dims, np.nan)
        for side, avg in avgs.items():
            np.fmax(want, spread(avg, side, dims), out=want)
        assert np.array_equal(got, want, equal_nan=True)
    want = np.full(dims, np.nan)
    for side, avg in avgs.items():
        for anchor in np.ndindex(*avg.shape):
            region = want[tuple(slice(a, a + side) for a in anchor)]
            np.fmax(region, avg[anchor], out=region)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_spread_matches_oracles(d, data):
    # cubes of every side from 1 to top; top may lie below min(dims), as it
    # does for a domain that holds no larger cube
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 40, 2: 17, 3: 9}[d]),
                                    min_size=d, max_size=d), label="dims"))
    top = data.draw(st.integers(1, min(dims)), label="top")
    nan_frac = data.draw(st.sampled_from([0.0, 0.03]), label="nan_frac")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    check_descent(random_anchor_maps(rng, dims, top, nan_frac), dims)


@pytest.mark.parametrize("dims", [(1,), (2,), (1, 7), (6, 1), (2, 9), (9, 2), (3, 1, 4),
                                  (4, 4, 1), (6, 3, 5), (2, 7, 3)])
def test_descent_on_non_cubic_boxes(rng, dims):
    for top in range(1, min(dims) + 1):
        for nan_frac in (0.0, 0.1):
            check_descent(random_anchor_maps(rng, dims, top, nan_frac), dims)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_local_reads_no_value_off_omega(d, data):
    # M_omega f is bit-identical when f changes off omega, to NaN or to
    # values of any size
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 40, 2: 12, 3: 7}[d]),
                                    min_size=d, max_size=d), label="dims"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    omega = rng.random(dims) < 0.8
    omega.flat[0] = True
    vals = rng.random(dims)
    scale = data.draw(st.sampled_from([0.0, 1e-6, 1e3, 1e15, np.nan]), label="scale")
    other = np.where(omega, vals, rng.standard_normal(dims) * scale)
    got = [maximal_local(GridFunction(dims, v.ravel()), PixelSet(dims, omega)).values
           for v in (vals, other)]
    assert got[0].tobytes() == got[1].tobytes()


class TestSummedAreaTable:
    def test_queries_match_direct_sums(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(2, 17 if d < 3 else 9)) for _ in range(d))
            arr = rng.random(dims) * 10
            sat = SummedAreaTable(arr)
            for _ in range(10):
                side = int(rng.integers(1, min(dims) + 1))
                anchor = tuple(int(rng.integers(0, n - side + 1)) for n in dims)
                want = float(np.sum(arr[tuple(slice(a, a + side) for a in anchor)]))
                got = sat.box_sum_many(np.array([anchor]), side)[0]
                assert got == pytest.approx(want, rel=1e-12)

    def test_grid_and_scalar_queries_bit_equal(self, rng):
        arr = rng.random((9, 7))
        sat = SummedAreaTable(arr)
        for side in (1, 2, 3, 5):
            grid = sat.box_sum_grid(side)
            anchors = np.array(list(np.ndindex(*grid.shape)))
            assert np.array_equal(sat.box_sum_many(anchors, side), grid.ravel())

    def test_integer_counts_exact(self, rng):
        m = (rng.random((12, 12)) < 0.5).astype(np.int64)
        sat = SummedAreaTable(m)
        assert sat.box_sum_many(np.array([[3, 4]]), 5)[0] == int(m[3:8, 4:9].sum())


class TestMaximalGlobal:
    def test_constant_fixed_point(self):
        f = grid_from_array(np.full((5, 5), 1.25))
        assert np.array_equal(maximal_global(f).values, f.values)

    def test_three_cell_line(self):
        f = grid_from_array(np.array([1.0, 0.0, 0.0]))
        got = maximal_global(f).values
        assert got.tolist() == [1.0, 0.5, pytest.approx(1 / 3)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_oracle_equivalence_exact(self, rng, d):
        # half the inputs hold one or two NaN cells, which lie outside the
        # domain: no cube that holds one competes
        for trial in range(12):
            dims = tuple(int(rng.integers(2, {1: 13, 2: 13, 3: 9}[d])) for _ in range(d))
            vals = rng.random(dims)
            if trial % 2:
                vals.flat[rng.integers(vals.size, size=int(rng.integers(1, 3)))] = np.nan
            f = GridFunction(dims, vals.ravel())
            assert np.array_equal(maximal_global(f).array, brute_force(vals), equal_nan=True)

    def test_monotone_in_argument(self, rng):
        a = rng.random((7, 7))
        b = a + rng.random((7, 7))
        ma = maximal_global(grid_from_array(a)).array
        mb = maximal_global(grid_from_array(b)).array
        assert np.all(ma <= mb + 1e-15)

    def test_dominates_input(self, rng):
        f = grid_from_array(rng.standard_normal((6, 6)))
        assert np.all(maximal_global(f).array >= f.array)


class TestMaximalFamily:
    def test_empty_family_raises(self, rng):
        f = grid_from_array(rng.random((4, 4)))
        with pytest.raises(PremiseViolated, match="no family cube"):
            maximal_family(f, CubeFamily([]))

    def test_single_cube(self):
        # only family cubes compete: the spike's own value does not
        f = grid_from_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
        mf = maximal_family(f, CubeFamily([GridCube((0, 0), 2)]))
        assert mf.values.tolist() == [0.25] * 4
        with pytest.raises(PremiseViolated, match=r"cell \(0, 1\)"):
            maximal_family(f, CubeFamily([GridCube((0, 0), 1), GridCube((1, 0), 1)]))
        nan_f = grid_from_array(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(PremiseViolated, match="non-finite average"):
            maximal_family(nan_f, CubeFamily([GridCube((0, 0), 2)]))

    def test_member_outside_the_box_raises(self):
        # given averages are not read from a table, and still no cell is
        # painted: (-1, 0) would wrap to the last row
        f = grid_from_array(np.arange(16.0).reshape(4, 4))
        fam = CubeFamily.from_arrays(np.array([[0, 0], [-1, 0]]), np.array([4, 2]),
                                     np.array([7.5, 99.0]))
        with pytest.raises(PremiseViolated, match=r"GridCube\(anchor=\(-1, 0\), side=2\)"):
            maximal_family(f, fam)
        with pytest.raises(PremiseViolated, match=r"GridCube\(anchor=\(3, 3\), side=2\)"):
            maximal_family(f, CubeFamily([GridCube((0, 0), 4), GridCube((3, 3), 2)]))

    def test_superlevel_identity_bit_exact(self, rng):
        # {M_F f >= lam} is the union of the family cubes with average >= lam;
        # four side-4 cubes tile the box so that every cell is covered
        for _ in range(15):
            dims = (8, 8)
            f = grid_from_array(rng.integers(0, 5, dims).astype(float))
            cubes = [GridCube((a, b), 4) for a in (0, 4) for b in (0, 4)]
            for _ in range(int(rng.integers(1, 8))):
                side = int(rng.integers(1, 5))
                anchor = tuple(int(rng.integers(0, 9 - side)) for _ in range(2))
                cubes.append(GridCube(anchor, side))
            fam = CubeFamily(cubes).with_averages(f)
            mf = maximal_family(f, fam)
            for lam in lambda_breakpoints(f, fam.averages):
                want = PixelSet.empty(dims)
                for c, a in zip(fam.cubes, fam.averages):
                    if a >= lam:
                        want = want | c.pixels(dims)
                assert superlevel(mf, lam).equals(want)


class TestMaximalLocal:
    def test_full_box_equals_global(self, rng):
        f = grid_from_array(rng.random((6, 6)))
        local = maximal_local(f, PixelSet.full((6, 6)))
        assert np.array_equal(local.array, maximal_global(f).array)

    def test_single_cell_domain(self):
        f = grid_from_array(np.arange(9, dtype=float).reshape(3, 3))
        m = np.zeros((3, 3), dtype=bool)
        m[1, 2] = True
        local = maximal_local(f, PixelSet((3, 3), m))
        assert local.array[1, 2] == f.array[1, 2]
        assert np.isnan(local.array[0, 0])

    def test_disconnected_halves(self):
        # two rows separated by a missing middle row: no cube spans them
        vals = np.array([[4.0, 4.0, 4.0], [9.0, 9.0, 9.0], [0.0, 0.0, 0.0]])
        omega = np.array([[True, True, True], [False, False, False], [True, True, True]])
        local = maximal_local(grid_from_array(vals), PixelSet((3, 3), omega))
        assert np.all(local.array[0] == 4.0)
        assert np.all(local.array[2] == 0.0)
        assert np.all(np.isnan(local.array[1]))

    def test_empty_domain_raises(self, rng):
        f = grid_from_array(rng.random((3, 3)))
        with pytest.raises(EmptyDomain):
            maximal_local(f, PixelSet.empty((3, 3)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brute_force_small(self, rng, d):
        # every cube in omega with its average from the shared table, as C02
        # does for the global operator; half the inputs are NaN off omega, and
        # a third hold a NaN cell that may lie in omega, outside the domain
        for trial in range(10):
            dims = tuple(int(rng.integers(1, {1: 17, 2: 8, 3: 6}[d])) for _ in range(d))
            omega = rng.random(dims) < 0.8
            if not omega.any():
                continue
            vals = rng.random(dims)
            if trial % 2:
                vals[~omega] = np.nan
            if trial % 3 == 0:
                vals.flat[rng.integers(vals.size)] = np.nan
            f = GridFunction(dims, vals.ravel())
            got = maximal_local(f, PixelSet(dims, omega)).array
            assert np.array_equal(got, brute_force(vals, omega), equal_nan=True)

    @pytest.mark.parametrize("dims,block", [((23,), 5), ((9, 11), 3), ((7, 6, 8), 2)])
    def test_largest_admissible_side_below_box(self, rng, dims, block):
        # sparse omega plus one planted block: omega holds no cube of a side
        # above the block's, so the descent's larger sides are all NaN
        for _ in range(4):
            omega = rng.random(dims) < 0.3
            corner = [int(rng.integers(0, n - block + 1)) for n in dims]
            omega[tuple(slice(c, c + block) for c in corner)] = True
            top = max(s for s in range(1, min(dims) + 1)
                      if SummedAreaTable(omega.astype(np.int64)).box_sum_grid(s).max() == s ** len(dims))
            assert block <= top < min(dims)
            vals = rng.random(dims)
            f = GridFunction(dims, vals.ravel())
            got = maximal_local(f, PixelSet(dims, omega)).array
            assert np.array_equal(got, brute_force(vals, omega), equal_nan=True)

    @pytest.mark.parametrize("dims", [(9,), (6, 7), (4, 5, 3)])
    def test_only_single_cells_admissible(self, rng, dims):
        # a parity checkerboard holds no cube of side 2: on omega M f is f,
        # exactly, since a single cell's average is its value
        omega = np.indices(dims).sum(axis=0) % 2 == 0
        vals = rng.random(dims)
        f = GridFunction(dims, vals.ravel())
        got = maximal_local(f, PixelSet(dims, omega)).array
        assert np.array_equal(got, brute_force(vals, omega), equal_nan=True)
        assert np.array_equal(got[omega], vals[omega])


def check_scan(vals):
    """``maximal_global`` on a 1-d array, which runs the tiled scan, against
    the descent bit for bit, zero signs included, and against brute force in
    value (brute force takes ``np.maximum``, which may return either zero
    of a +0.0/-0.0 tie)."""
    vals = np.asarray(vals, dtype=np.float64)
    got = maximal_global(GridFunction(vals.shape, vals)).array
    want = _max_over_containing_cubes(vals, SummedAreaTable(vals).box_avg_grid)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, brute_force(vals), equal_nan=True)


def scan_rows(monkeypatch, rows, n):
    """Shrink the tile budget so that the scan over n cells takes ``rows``
    anchors per tile."""
    monkeypatch.setattr(maximal_module, "SCAN_TILE_ENTRIES", rows * max(n - 1, 1))


def scan_values(rng, n, kind):
    if kind == "random":
        return rng.random(n)
    if kind == "ties":
        return rng.integers(0, 3, n).astype(float)
    if kind == "signed":
        return rng.integers(-4, 5, n) * 0.5
    raise ValueError(kind)


class TestIntervalScan:
    # the scan has r anchor rows per tile over the n - 1 side-2 anchors, so
    # n - 1 just below, at and above a multiple of r ends on a part tile, a
    # whole one, and a one-row tile (n = 1 has no side-2 anchor at all)
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("tiles", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["random", "ties", "signed"])
    def test_tile_edges(self, monkeypatch, rng, rows, tiles, offset, kind):
        n = rows * tiles + offset + 1
        scan_rows(monkeypatch, rows, n)
        check_scan(scan_values(rng, n, kind))

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_nan_cells_at_tile_edges(self, monkeypatch, rng, rows):
        n = 4 * rows + 2
        scan_rows(monkeypatch, rows, n)
        edges = [e for j in range(5) for e in (j * rows - 1, j * rows, j * rows + 1)
                 if 0 <= e < n]
        for cell in edges:
            for width in (1, 2):
                vals = rng.random(n)
                vals[cell:cell + width] = np.nan
                check_scan(vals)
        vals = rng.random(n)
        vals[[e for e in edges if e % rows == 0]] = np.nan
        check_scan(vals)
        vals[[0, n - 1]] = np.nan
        check_scan(vals)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_one_finite_cell_among_nan(self, monkeypatch, rows):
        n = 3 * rows + 1
        scan_rows(monkeypatch, rows, n)
        for cell in range(n):
            vals = np.full(n, np.nan)
            vals[cell] = 0.75
            check_scan(vals)
            got = maximal_global(GridFunction((n,), vals)).array
            assert got[cell] == 0.75 and np.isnan(np.delete(got, cell)).all()

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_negative_zero_cells(self, monkeypatch, rng, rows):
        # a -0.0 cell whose longer intervals average +0.0 is a tie that the
        # scan must break as the descent's last step does
        n = 4 * rows + 3
        scan_rows(monkeypatch, rows, n)
        for trial in range(12):
            vals = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            if trial % 3 == 1:
                vals[rng.random(n) < 0.3] = -1.0
            if trial % 3 == 2:
                vals[rng.random(n) < 0.2] = np.nan
            check_scan(vals)
        check_scan(np.full(n, -0.0))
        check_scan(np.array([-0.0] + [0.0] * (n - 1)))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_length_and_budget(self, data):
        n = data.draw(st.integers(1, 70), label="n")
        budget = data.draw(st.integers(1, 3 * n), label="budget")
        kind = data.draw(st.sampled_from(["random", "ties", "signed"]), label="kind")
        nan_frac = data.draw(st.sampled_from([0.0, 0.1, 0.5]), label="nan_frac")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        vals = scan_values(rng, n, kind)
        vals[rng.random(n) < nan_frac] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal_module, "SCAN_TILE_ENTRIES", budget)
            check_scan(vals)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_exact_oracle(self, rng, scale):
        # integer and half-integer cells: the table sums are exact, and each
        # average is one correctly rounded quotient, so every cell is the
        # exact maximum rounded once
        for _ in range(15):
            n = int(rng.integers(1, 30))
            vals = rng.integers(-6, 7, n) * scale
            got = maximal_global(GridFunction((n,), vals)).array
            assert got.tolist() == [float(q) for q in exact_maximal_1d(vals)]


@pytest.mark.parametrize("dims", [(6, 5), (4, 3, 4)])
@pytest.mark.parametrize("scale", [1.0, 0.5])
class TestExactInput:
    """The certified regime of the ``maximal`` docstring, in d = 2 and 3:
    on integer and half-integer cells every cell of M f is the exact
    maximum rounded once."""

    def test_global_every_cell(self, rng, dims, scale):
        for _ in range(4):
            vals = rng.integers(-6, 7, dims) * scale
            f = GridFunction(dims, vals.ravel())
            mf = maximal_global(f)
            want = exact_maximal(vals)
            assert mf.array.tolist() == np.vectorize(float)(want).tolist()
            # the float gradient sum of M f against the exact sum of its
            # cells: each of the m terms is rounded once and any order of
            # summing m non-negative terms errs by at most (m - 1) u times
            # their sum, so the relative error is below m u, u = 2**-53
            m = sum(np.diff(vals, axis=ax).size for ax in range(len(dims)))
            exact = exact_variation(mf.array)
            assert abs(Fraction(variation(mf)) - exact) <= m * Fraction(1, 2 ** 53) * exact

    def test_family_every_cell(self, rng, dims, scale):
        for _ in range(4):
            vals = rng.integers(-6, 7, dims) * scale
            f = GridFunction(dims, vals.ravel())
            cubes = [GridCube(a, 1) for a in np.ndindex(*dims)]
            for _ in range(int(rng.integers(1, 8))):
                side = int(rng.integers(2, min(dims) + 1))
                cubes.append(GridCube(tuple(int(rng.integers(0, n - side + 1)) for n in dims), side))
            fam = CubeFamily(cubes)
            want = exact_maximal(vals, fam.cubes)
            assert maximal_family(f, fam).array.tolist() == np.vectorize(float)(want).tolist()


class TestVariationRatio:
    def test_centered_square_finite(self):
        vals = np.zeros((8, 8))
        vals[2:6, 2:6] = 1.0
        f = grid_from_array(vals)
        r = variation(maximal_global(f)) / nonzero_variation(f)
        assert np.isfinite(r) and r > 0

    def test_one_dimensional_non_increase(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 24))
            f = grid_from_array(rng.integers(0, 6, n).astype(float))
            try:
                r = variation(maximal_global(f)) / nonzero_variation(f)
            except ZeroVariationInput:
                continue
            assert r <= 1.0 + 1e-9

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_one_dimensional_non_increase_exact(self, rng, scale):
        # var(M f) <= var(f) in one dimension (Aldaz and Perez Lazaro), with
        # no tolerance: both sides in exact arithmetic, for the exact M f and
        # for the float one
        for _ in range(40):
            n = int(rng.integers(2, 30))
            vals = rng.integers(0, 7, n) * scale
            var_f = exact_variation_1d(vals)
            assert exact_variation_1d(exact_maximal_1d(vals)) <= var_f
            assert exact_variation_1d(maximal_global(GridFunction((n,), vals)).array) <= var_f

    def test_constant_raises(self):
        f = grid_from_array(np.full(5, 3.0))
        with pytest.raises(ZeroVariationInput):
            variation(maximal_global(f)) / nonzero_variation(f)
