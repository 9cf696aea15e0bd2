import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import (
    CubeFamily,
    GridCube,
    dyadic_completion,
    dyadic_descendants,
    family_averages,
    grid_from_array,
    is_dyadically_complete,
    lambda_breakpoints,
    maximal_cube_reduction,
)
from cubemax.cubes import cube_bounds, dilate_bounds, row_blocks, scale_indices
from cubemax.errors import NonDyadicSide, PremiseViolated
from conftest import (
    cube_holds,
    cube_holds_cell,
    scalar_scale_index,
    set_witness,
    slice_loop_max_paint,
    union_by_slices,
    unique_canonical_order,
)


def brute_force_completion(cubes):
    """Fixed-point oracle: repeatedly insert missing dyadic ancestors found
    by exhaustive enumeration of dy(Q0)."""
    def dy(q0):
        out = []
        s = q0.side
        while s >= 1:
            for off in np.ndindex(*([q0.side // s] * len(q0.anchor))):
                out.append(GridCube(tuple(a + o * s for a, o in zip(q0.anchor, off)), s))
            s //= 2
        return out

    members = set(cubes)
    while True:
        missing = set()
        for q0 in list(members):
            if q0.side & (q0.side - 1):
                continue
            for p in list(members):
                if p == q0 or not cube_holds(q0, p):
                    continue
                for q in dy(q0):
                    if cube_holds(q, p) and q not in members:
                        missing.add(q)
        if not missing:
            return members
        members |= missing


class TestDyadicDescendants:
    def test_single_cell(self):
        fam = dyadic_descendants(GridCube((3, 4), 1))
        assert fam.cubes == (GridCube((3, 4), 1),)

    def test_count_side4_d2(self):
        assert len(dyadic_descendants(GridCube((0, 0), 4))) == 21

    def test_levels_partition(self):
        q0 = GridCube((2, 2), 4)
        fam = dyadic_descendants(q0)
        for s in (4, 2, 1):
            level = [c for c in fam.cubes if c.side == s]
            cover = np.zeros((8, 8), dtype=np.int64)
            for c in level:
                cover[c.slices()] += 1
            assert set(np.unique(cover[q0.slices()])) == {1}

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NonDyadicSide):
            dyadic_descendants(GridCube((0,), 3))


class TestDyadicCompleteness:
    def test_descendants_complete(self):
        fam = dyadic_descendants(GridCube((0, 0), 4))
        ok, witness = is_dyadically_complete(fam)
        assert ok and witness is None

    def test_missing_intermediate_with_witness(self):
        q0 = GridCube((0, 0), 4)
        corner = GridCube((0, 0), 1)
        ok, witness = is_dyadically_complete(CubeFamily([q0, corner]))
        assert not ok
        assert witness == GridCube((0, 0), 2)

    def test_disjoint_family_vacuously_complete(self):
        fam = CubeFamily([GridCube((0, 0), 2), GridCube((4, 4), 2), GridCube((0, 6), 2)])
        ok, _ = is_dyadically_complete(fam)
        assert ok


class TestDyadicCompletion:
    def test_idempotent_on_complete(self):
        fam = dyadic_descendants(GridCube((0, 0), 4))
        again = dyadic_completion(fam)
        assert set(again.cubes) == set(fam.cubes)

    def test_adds_witness_chain(self):
        fam = CubeFamily([GridCube((0, 0), 4), GridCube((0, 0), 1)])
        done = dyadic_completion(fam)
        assert set(done.cubes) == {GridCube((0, 0), 4), GridCube((0, 0), 2),
                                   GridCube((0, 0), 1)}

    def test_matches_fixed_point_oracle(self, rng):
        for _ in range(15):
            cubes = []
            for _ in range(int(rng.integers(2, 6))):
                side = int(2 ** rng.integers(0, 4))
                anchor = tuple(int(rng.integers(0, 17 - side)) for _ in range(2))
                cubes.append(GridCube(anchor, side))
            got = set(dyadic_completion(CubeFamily(cubes)).cubes)
            want = brute_force_completion(cubes)
            assert got == want
            ok, _ = is_dyadically_complete(CubeFamily(got))
            assert ok

    def test_growth_bound(self, rng):
        d = 2
        for _ in range(10):
            cubes = []
            for _ in range(5):
                side = int(2 ** rng.integers(0, 5))
                anchor = tuple(int(rng.integers(0, 33 - side)) for _ in range(d))
                cubes.append(GridCube(anchor, side))
            fam = CubeFamily(cubes)
            done = dyadic_completion(fam)
            max_side = max(c.side for c in fam.cubes)
            bound = len(fam) * (1 + max(1, int(np.log2(max(2, max_side)))) * 2 ** d)
            assert len(done) <= bound


def test_one_row_blocks_match_oracles(rng, one_row_blocks):
    # completion, the completeness check and the reduction, one row per block
    assert list(row_blocks(3, 5)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    f = grid_from_array(rng.integers(0, 4, (16, 16)).astype(float))
    for _ in range(10):
        cubes = []
        for _ in range(int(rng.integers(2, 6))):
            side = int(2 ** rng.integers(0, 4))
            cubes.append(GridCube(tuple(int(rng.integers(0, 17 - side)) for _ in range(2)), side))
        fam = CubeFamily(cubes)
        done = dyadic_completion(fam)
        assert set(done.cubes) == brute_force_completion(cubes)
        ok, witness = is_dyadically_complete(fam)
        assert ok == (len(done) == len(fam))
        assert ok or (witness in done and witness not in fam)
        full = done.with_averages(f)
        pairs = list(zip(full.cubes, full.averages.tolist()))
        want = tuple(c for c, a in pairs
                     if not any(o.side > c.side and cube_holds(o, c) and b >= a for o, b in pairs))
        assert maximal_cube_reduction(full, f).cubes == want


class TestMaximalCubeReduction:
    def test_equal_average_nested_removed(self):
        vals = np.zeros((4, 4))
        f = grid_from_array(vals)
        inner, outer = GridCube((0, 0), 2), GridCube((0, 0), 4)
        red = maximal_cube_reduction(CubeFamily([inner, outer]), f)
        assert set(red.cubes) == {outer}

    def test_antichain_unchanged(self, rng):
        cubes = [GridCube((0, 0), 2), GridCube((4, 0), 2), GridCube((0, 4), 4)]
        f = grid_from_array(rng.random((8, 8)))
        red = maximal_cube_reduction(CubeFamily(cubes), f)
        assert set(red.cubes) == set(cubes)

    def test_union_preserved_at_every_breakpoint(self, rng):
        for _ in range(12):
            dims = (8, 8)
            f = grid_from_array(rng.integers(0, 5, dims).astype(float))
            cubes = []
            for _ in range(int(rng.integers(3, 9))):
                side = int(2 ** rng.integers(0, 4))
                anchor = tuple(int(rng.integers(0, 9 - side)) for _ in range(2))
                cubes.append(GridCube(anchor, side))
            fam = dyadic_completion(CubeFamily(cubes)).with_averages(f)
            red = maximal_cube_reduction(fam, f)
            avgs = np.asarray(fam.averages)
            ravgs = np.asarray(red.averages)
            for lam in lambda_breakpoints(f, avgs):
                full = CubeFamily([c for c, a in zip(fam.cubes, avgs) if a >= lam])
                kept = CubeFamily([c for c, a in zip(red.cubes, ravgs) if a >= lam])
                assert full.union_pixels(dims).equals(kept.union_pixels(dims))


def dilated_corners(q, K):
    """Corners of the K-dilate of the grid cube ``q``, as one-row arrays."""
    return dilate_bounds(*cube_bounds(np.array([q.anchor]), np.array([q.side])), K)


class TestDilateAndVolumes:
    def test_identity_dilation(self):
        q = GridCube((2, 3), 2)
        lo, hi = cube_bounds(np.array([q.anchor]), np.array([q.side]))
        assert lo.tolist() == [[2, 3]] and hi.tolist() == [[4, 5]]
        got = dilated_corners(q, 1.0)
        assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)

    def test_triple_unit_cell(self):
        lo, hi = dilated_corners(GridCube((0, 0), 1), 3.0)
        assert lo.tolist() == [[-1.0, -1.0]] and hi.tolist() == [[2.0, 2.0]]
        assert np.prod(hi - lo) == pytest.approx(9.0)

    def test_volume_scaling(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            side = int(rng.integers(1, 5))
            q = GridCube((0,) * d, side)
            K = float(rng.uniform(0.05, 4.0))
            lo, hi = dilated_corners(q, K)
            assert np.prod(hi - lo) == pytest.approx(K ** d * q.cell_count, rel=1e-12)

    def test_scale_bracketing(self, rng):
        for _ in range(50):
            side = int(rng.integers(1, 40))
            n = int(scale_indices(np.array([side]))[0])
            assert 2 ** n <= side < 2 ** (n + 1)

    @given(st.integers(0, 52))
    @settings(max_examples=200, deadline=None)
    def test_scale_index_dyadic(self, k):
        # a power of two and its neighbours, up to the largest exact float integer
        got = scale_indices(np.array([2 ** k, 2 ** (k + 1) - 1, 2 ** k + 1]))
        assert got.tolist() == [k, k, k + (k == 0)]


class TestFamilyBasics:
    def test_canonical_order_and_dedup(self):
        fam = CubeFamily([GridCube((1, 0), 1), GridCube((0, 0), 2),
                          GridCube((1, 0), 1), GridCube((0, 0), 1)])
        assert fam.cubes == (GridCube((0, 0), 2), GridCube((0, 0), 1),
                             GridCube((1, 0), 1))

    def test_cached_averages_exact(self, rng):
        f = grid_from_array(rng.random((6, 6)))
        cubes = CubeFamily([GridCube((0, 0), 4), GridCube((2, 2), 2), GridCube((5, 5), 1)])
        avgs = family_averages(f, cubes)
        for c, a in zip(cubes, avgs):
            assert a == pytest.approx(float(np.mean(f.array[c.slices()])), rel=1e-12)

    def test_select_keeps_order_and_averages(self, rng):
        f = grid_from_array(rng.random((6, 6)))
        fam = CubeFamily([GridCube((0, 0), 4), GridCube((2, 2), 2), GridCube((5, 5), 1)])
        mask = np.array([True, False, True])
        sub = fam.with_averages(f).select(mask)
        assert sub.cubes == (fam.cubes[0], fam.cubes[2])
        assert np.array_equal(sub.averages, fam.with_averages(f).averages[mask])
        assert fam.select(mask).averages is None
        assert len(fam.select(np.zeros(3, dtype=bool))) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_form_matches_sorted_set(self, rng, d):
        # repeats keep their last average, as a dict built in input order does
        for _ in range(100):
            n = int(rng.integers(0, 30))
            cubes = [GridCube(tuple(int(a) for a in rng.integers(-3, 6, d)), int(rng.integers(1, 5)))
                     for _ in range(n)]
            cubes += [cubes[i] for i in rng.integers(0, n, n // 2)] if n else []
            avgs = rng.random(len(cubes))
            want = sorted(set(cubes), key=lambda c: (-c.side, c.anchor))
            last = dict(zip(cubes, avgs))
            anchors = np.array([c.anchor for c in cubes], dtype=np.int64).reshape(len(cubes), d)
            sides = np.array([c.side for c in cubes], dtype=np.int64)
            for fam in (CubeFamily(cubes, avgs), CubeFamily.from_arrays(anchors, sides, avgs)):
                assert fam.cubes == tuple(want)
                assert [fam[i] for i in range(len(fam))] == want
                assert fam.averages.tolist() == [last[c] for c in want]
                assert fam.sides.tolist() == [c.side for c in want]
                assert all(c in fam for c in cubes)
                assert GridCube((7,) * d, 9) not in fam
                assert not (fam.anchors.flags.writeable or fam.sides.flags.writeable
                            or fam.averages.flags.writeable)

    def test_equality_is_bitwise_in_row_order(self):
        fam = CubeFamily([GridCube((0, 0), 2), GridCube((1, 1), 1)], np.array([1.0, np.nan]))
        assert fam == CubeFamily.from_arrays(fam.anchors.copy(), fam.sides.copy(),
                                             fam.averages.copy())
        assert fam != fam.select(np.array([1, 0]))
        assert fam != CubeFamily.from_arrays(fam.anchors, np.array([2, 2]), fam.averages)
        assert fam != CubeFamily.from_arrays(fam.anchors, fam.sides, np.array([2.0, np.nan]))
        assert fam != CubeFamily.from_arrays(fam.anchors, fam.sides, np.array([1.0, 0.0]))
        assert fam != CubeFamily.from_arrays(fam.anchors, fam.sides)
        assert CubeFamily(fam.cubes) == CubeFamily.from_arrays(fam.anchors, fam.sides)

    def test_side_below_one_rejected(self):
        with pytest.raises(ValueError):
            CubeFamily.from_arrays(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_union_pixels_matches_slicing_loop(self, rng, d):
        dims = tuple(int(n) for n in rng.integers(3, 9, d))
        assert not CubeFamily([]).union_pixels(dims).mask.any()
        for _ in range(60):
            cubes = []
            for _ in range(int(rng.integers(1, 12))):
                side = int(rng.integers(1, min(dims) + 1))
                cubes.append(GridCube(tuple(int(rng.integers(0, n - side + 1)) for n in dims), side))
            got = CubeFamily(cubes).union_pixels(dims)
            assert np.array_equal(got.mask, union_by_slices(cubes, dims))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_max_paint_matches_per_cell_max(self, rng, d):
        dims = tuple(int(n) for n in rng.integers(3, 7, d))
        assert np.all(CubeFamily([]).max_paint([], dims) == -np.inf)
        for _ in range(30):
            cubes = []
            for _ in range(int(rng.integers(1, 8))):
                side = int(rng.integers(1, min(dims) + 1))
                cubes.append(GridCube(tuple(int(rng.integers(0, n - side + 1)) for n in dims), side))
            fam = CubeFamily(cubes)
            vals = rng.integers(-5, 5, len(fam)).astype(float)
            got = fam.max_paint(vals, dims)
            for cell in np.ndindex(*dims):
                held = [v for c, v in zip(fam.cubes, vals) if cube_holds_cell(c, cell)]
                assert got[cell] == max(held, default=-np.inf)
            vals[0] = np.nan
            nan_cells = fam.max_paint(vals, dims)
            assert np.array_equal(np.isnan(nan_cells), fam.cubes[0].pixels(dims).mask)


@given(st.lists(st.integers(1, 2 ** 53), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_scale_indices_match_scalar_formula(sides):
    want = [scalar_scale_index(GridCube((0,), s)) for s in sides]
    assert scale_indices(np.array(sides)).tolist() == want


@st.composite
def cube_rows(draw):
    """Anchor rows, sides and averages in d = 1..3, with repeated cubes that
    carry other averages."""
    d = draw(st.integers(1, 3))
    cubes = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(1, 3)),
                          max_size=20))
    if cubes:
        cubes += draw(st.lists(st.sampled_from(cubes), max_size=10))
    avgs = draw(st.lists(st.floats(width=64), min_size=len(cubes), max_size=len(cubes)))
    anchors = np.array([a for a, _ in cubes], dtype=np.int64).reshape(len(cubes), d)
    sides = np.array([s for _, s in cubes], dtype=np.int64)
    return anchors, sides, np.array(avgs, dtype=np.float64)


@given(cube_rows())
@settings(max_examples=300, deadline=None)
def test_canonical_order_matches_unique_oracle(rows):
    anchors, sides, avgs = rows
    fam = CubeFamily.from_arrays(anchors, sides, avgs)
    for got, want in zip((fam.anchors, fam.sides, fam.averages),
                         unique_canonical_order(anchors, sides, avgs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # a repeated cube keeps the average of its last occurrence
    last = {(tuple(a), s): v for a, s, v in zip(anchors.tolist(), sides.tolist(), avgs)}
    kept = [last[(tuple(a), s)] for a, s in zip(fam.anchors.tolist(), fam.sides.tolist())]
    assert np.array(kept, dtype=np.float64).tobytes() == fam.averages.tobytes()
    assert CubeFamily.from_arrays(anchors, sides).averages is None


PAINT_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_max_paint_matches_slice_loop(d, data):
    # cells interleaved with larger members, signed zeros, NaN and infinite
    # values.  In canonical order bit for bit; in selection order (an index
    # permutation) cells are painted after the larger members, so a tie of
    # +0.0 and -0.0 may keep the other zero, and there zeros compare by value
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 12, 2: 6, 3: 4}[d]),
                                    min_size=d, max_size=d), label="dims"))
    cubes = data.draw(st.lists(st.integers(1, min(dims)).flatmap(
        lambda s: st.tuples(st.tuples(*[st.integers(0, n - s) for n in dims]), st.just(s))),
        max_size=24), label="cubes")
    fam = CubeFamily([GridCube(a, s) for a, s in cubes])
    vals = np.array(data.draw(st.lists(st.sampled_from(PAINT_VALUES), min_size=len(fam),
                                       max_size=len(fam)), label="values"))
    assert fam.max_paint(vals, dims).tobytes() == slice_loop_max_paint(fam, vals, dims).tobytes()
    order = np.array(data.draw(st.permutations(range(len(fam))), label="order"), dtype=np.int64)
    picked = fam.select(order)
    got = picked.max_paint(vals[order], dims)
    want = slice_loop_max_paint(picked, vals[order], dims)
    assert np.where(got == 0, 0.0, got).tobytes() == np.where(want == 0, 0.0, want).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_witness_matches_set_search(d, data):
    # dyadic descendants of two power-of-two cubes with members dropped, plus
    # loose cubes, in canonical and in selection order
    top = {1: 8, 2: 4, 3: 4}[d]
    fam = CubeFamily([])
    for _ in range(2):
        q0 = GridCube(data.draw(st.tuples(*[st.integers(0, 6)] * d), label="anchor"), top)
        desc = dyadic_descendants(q0)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(desc), max_size=len(desc)),
                                  label="keep"))
        fam = CubeFamily(fam.cubes + desc.select(keep).cubes)
    loose = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 8)] * d),
                                         st.sampled_from([1, 2, 3, 4])), max_size=4), label="loose")
    fam = CubeFamily(fam.cubes + tuple(GridCube(a, s) for a, s in loose))
    assert is_dyadically_complete(fam) == set_witness(fam)
    order = np.array(data.draw(st.permutations(range(len(fam))), label="order"), dtype=np.int64)
    assert is_dyadically_complete(fam.select(order)) == set_witness(fam.select(order))


@pytest.mark.parametrize("cube", [GridCube((-1, 0), 2), GridCube((3, 3), 2), GridCube((0, 4), 1)])
def test_member_outside_the_box_raises(cube):
    # (-1, 0) used to wrap to the last row (average -12.75), and (3, 3)
    # overran the table with a bare IndexError
    f = grid_from_array(np.arange(16.0).reshape(4, 4))
    fam = CubeFamily([GridCube((0, 0), 4), GridCube((1, 1), 1), cube])
    name = re.escape(repr(cube))
    with pytest.raises(PremiseViolated, match=name):
        family_averages(f, fam)
    with pytest.raises(PremiseViolated, match=name):
        fam.max_paint(np.zeros(len(fam)), f.dims)
