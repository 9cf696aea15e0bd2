import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import (
    CubeFamily,
    GridCube,
    PixelSet,
    dyadic_descendants,
    grid_from_array,
    lambda_breakpoints,
    perimeter,
)
from cubemax.grid import boundary_faces_outside
from cubemax.generators import make_function, random_complete_family, random_family
from cubemax.partition import (
    boundary_of_union_check,
    density_band,
    density_levels,
    kth_largest,
    partition_at,
)
from cubemax.sparse import lambda_q
from conftest import carried_level_sweep, counted_density_tests, partition_from_scratch


def random_instance(rng, dims=(10, 10), n_cubes=7, levels=5):
    f = grid_from_array(rng.integers(0, levels, tuple(dims)).astype(float))
    cubes = []
    for _ in range(n_cubes):
        side = int(rng.integers(1, min(dims)))
        anchor = tuple(int(rng.integers(0, n - side + 1)) for n in dims)
        cubes.append(GridCube(anchor, side))
    return f, CubeFamily(cubes).with_averages(f)


class TestPartitionAt:
    def test_indicator_inside_is_high_density(self):
        vals = np.zeros((6, 6))
        vals[1:4, 1:4] = 1.0
        f = grid_from_array(vals)
        q = GridCube((1, 1), 3)
        p = partition_at(f, CubeFamily([q]).with_averages(f), 1.0)
        assert p.q0.cubes == (q,)
        assert p.sizes == (1, 0, 0)

    def test_low_density_isolated_cube_is_q2(self):
        # a big cube whose average is lifted by one far-away hot cell
        vals = np.zeros((8, 8))
        vals[0, 0] = 64.0
        f = grid_from_array(vals)
        big = GridCube((0, 0), 8)
        p = partition_at(f, CubeFamily([big]).with_averages(f), 0.5)
        # density of {f >= 0.5} in the cube: 1/64 < 1/8
        assert p.q2.cubes == (big,)

    @pytest.mark.parametrize("dims", [(24,), (10, 10), (6, 6, 6)])
    def test_classes_match_direct_volume_oracle(self, rng, dims):
        for _ in range(10):
            f, fam = random_instance(rng, dims=dims)
            for lam in lambda_breakpoints(f, fam.averages)[:: max(1, 3)]:
                p = partition_at(f, fam, float(lam))
                want = partition_from_scratch(f, fam, float(lam))
                assert p.q0.cubes == want.q0.cubes
                assert p.q1.cubes == want.q1.cubes
                assert p.q2.cubes == want.q2.cubes


def assert_same_split(p, want):
    """``p`` and an oracle partition agree on the level set, every class
    (cubes and averages) and all three unions."""
    assert p.level.equals(want.level)
    for got_q, want_q in ((p.q0, want.q0), (p.q1, want.q1), (p.q2, want.q2)):
        assert got_q.cubes == want_q.cubes
        assert np.array_equal(got_q.averages, want_q.averages)
    assert p.sizes == (len(want.q0), len(want.q1), len(want.q2))
    assert p.union_q01.equals(want.union_q01)
    assert p.union_q2.equals(want.union_q2)
    assert p.union_all.equals(want.union_all)


def levels_with_gaps(bps):
    """Every breakpoint and the midpoint of each gap, descending."""
    return np.sort(np.concatenate((bps, 0.5 * (bps[1:] + bps[:-1]))))[::-1]


def assert_matches_both_oracles(f, fam):
    """The split read from the triple against the carried sweep and the
    from-scratch split, at every breakpoint and inside every gap."""
    split = density_levels(f, fam)
    avgs = split.family.averages
    lams = levels_with_gaps(lambda_breakpoints(f, avgs[np.isfinite(avgs)]))
    for lam, carried in zip(lams, carried_level_sweep(f, fam, lams)):
        p = split.at(lam)
        assert p.lam == lam
        assert_same_split(p, carried)
        assert_same_split(p, partition_from_scratch(f, split.family, lam))
    return split


class TestLevelSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("complete", [True, False])
    def test_every_breakpoint_matches_from_scratch_oracle(self, rng, d, complete):
        grid = {1: 32, 2: 16, 3: 8}[d]
        dims = (grid,) * d
        for cls in ("spikes", "simple", "indicator", "random-smooth"):
            f = make_function(rng, cls, dims, 1.0)
            fam = (random_complete_family(rng, dims, 4) if complete
                   else random_family(rng, dims, 8, pow2=False)).with_averages(f)
            assert_matches_both_oracles(f, fam)

    def test_cube_turning_dense_late_joins_the_dense_union(self):
        # A = [0, 8) is selected but sparse at its own average and dense at
        # level 1; only then does B = [6, 14) reach the 1/4 overlap with the
        # dense union, exactly on the threshold, and become q1
        vals = np.zeros(16)
        vals[0], vals[1:6], vals[6:8], vals[13] = 80.0, 1.0, 0.5, 10.0
        f = grid_from_array(vals)
        a, b = GridCube((0,), 8), GridCube((6,), 8)
        split = assert_matches_both_oracles(f, CubeFamily([a, b]).with_averages(f))
        assert split.at(86 / 8).q2.cubes == (a,)
        assert split.at(1.0).q0.cubes == (a,) and split.at(1.0).q1.cubes == (b,)
        assert list(split.lam0) == [1.0, 0.5] and list(split.lam1) == [1.0, 1.0]

    def test_nan_masked_cells(self, rng):
        # NaN cells are in no superlevel set; averages taken over the
        # unmasked cells keep cubes with masked cells selectable, and a
        # NaN average leaves its cube unselected at every level
        for d, grid in ((1, 32), (2, 12), (3, 6)):
            dims = (grid,) * d
            for masked in (0.3, 0.6, 0.9):
                vals = np.where(rng.random(dims) < 0.1, rng.integers(1, 40, dims), 0).astype(float)
                vals[rng.random(dims) < masked] = np.nan
                f = grid_from_array(vals)
                fam = random_family(rng, dims, 10, pow2=False)
                avgs = np.array([np.nanmean(vals[c.slices()]) if np.isfinite(vals[c.slices()]).any()
                                 else np.nan for c in fam.cubes])
                avgs[0] = np.nan
                split = assert_matches_both_oracles(f, CubeFamily(fam.cubes, avgs))
                assert split.lam0[0] == split.lam1[0] == split.avg[0] == -np.inf

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_levels_are_ordered(self, rng, d):
        dims = ({1: 32, 2: 16, 3: 8}[d],) * d
        for cls in ("spikes", "simple", "indicator", "random-smooth"):
            f = make_function(rng, cls, dims, 1.0)
            for fam in (random_complete_family(rng, dims, 4), random_family(rng, dims, 8, pow2=False)):
                split = density_levels(f, fam)
                assert np.all(split.lam0 <= split.lam1) and np.all(split.lam1 <= split.avg)
                assert np.array_equal(split.avg, split.family.averages)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ever_q2_is_the_union_over_breakpoints(self, rng, d):
        dims = ({1: 32, 2: 16, 3: 8}[d],) * d
        found = 0
        for cls in ("spikes", "simple", "random-smooth"):
            f = make_function(rng, cls, dims, 1.0)
            for fam in (random_complete_family(rng, dims, 4), random_family(rng, dims, 8, pow2=False)):
                split = density_levels(f, fam)
                union = set()
                for lam in lambda_breakpoints(f, split.family.averages):
                    union |= set(partition_from_scratch(f, split.family, lam).q2.cubes)
                assert set(split.family.select(split.ever_q2).cubes) == union
                found += len(union)
        assert found > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_q2_boundary_column_matches_every_breakpoint(self, rng, d):
        # painted only where the q2 class changes, carried in between; the
        # oracle paints the from-scratch q2 union at every breakpoint
        dims = ({1: 32, 2: 12, 3: 6}[d],) * d
        found = 0
        for cls in ("spikes", "simple", "random-smooth"):
            f = make_function(rng, cls, dims, 1.0)
            for fam in (random_complete_family(rng, dims, 4), random_family(rng, dims, 8, pow2=False)):
                split = density_levels(f, fam)
                bps = lambda_breakpoints(f, split.family.averages)
                want = [perimeter(partition_from_scratch(f, split.family, lam).union_q2).face_count
                        for lam in bps]
                got = split.q2_boundary_faces(bps)
                assert got.tolist() == want
                found += int(np.count_nonzero(got))
        assert found > 0

    def test_partitions_keep_their_unions_after_the_sweep_moves_on(self, rng):
        f, fam = random_instance(rng)
        split = density_levels(f, fam)
        bps = lambda_breakpoints(f, fam.averages)[::-1]
        parts = [split.at(lam) for lam in bps]
        for lam, p in zip(bps, parts):
            assert p.union_q01.equals(partition_from_scratch(f, fam, lam).union_q01)

    def test_shuffled_levels_match_sorted(self, rng):
        for _ in range(5):
            f, fam = random_instance(rng)
            split = density_levels(f, fam)
            lams = levels_with_gaps(lambda_breakpoints(f, fam.averages))
            by_level = dict(zip(lams, carried_level_sweep(f, fam, lams)))
            for lam in rng.permutation(lams):
                assert_same_split(split.at(lam), by_level[lam])
                assert_same_split(partition_at(f, fam, lam), by_level[lam])

    def test_empty_family(self):
        f = grid_from_array(np.arange(16.0).reshape(4, 4))
        split = density_levels(f, CubeFamily([]))
        for lam in (9.0, 3.0, 3.0, 12.5):
            p = split.at(lam)
            assert p.sizes == (0, 0, 0) and p.union_all.count == 0
            assert p.level.count == int(np.sum(f.array >= p.lam))


class TestBoundaryDecomposition:
    def test_empty_q2_second_term_zero(self):
        vals = np.zeros((6, 6))
        vals[2:4, 2:4] = 1.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((2, 2), 2)]).with_averages(f)
        p = partition_at(f, fam, 1.0)
        assert perimeter(p.union_q2).face_count == 0

    def test_empty_q01_first_term_zero(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = 64.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((0, 0), 8)]).with_averages(f)
        p = partition_at(f, fam, 0.5)
        assert boundary_faces_outside(p.union_q01, p.level).face_count == 0

    def test_split_dominates_exactly(self, rng):
        for _ in range(20):
            f, fam = random_instance(rng, dims=(9, 9))
            for lam in lambda_breakpoints(f, fam.averages):
                p = partition_at(f, fam, float(lam))
                lhs = boundary_faces_outside(p.union_all, p.level).face_count
                t1 = boundary_faces_outside(p.union_q01, p.level).face_count
                t2 = perimeter(p.union_q2).face_count
                assert lhs <= t1 + t2


class TestBoundaryOfUnion:
    def test_empty_b(self, rng):
        A = PixelSet((6, 6), rng.random((6, 6)) < 0.5)
        ok, witness = boundary_of_union_check(A, PixelSet.empty((6, 6)))
        assert ok and witness is None

    def test_a_subset_b(self, rng):
        B = PixelSet((6, 6), rng.random((6, 6)) < 0.6)
        A = PixelSet((6, 6), B.mask & (rng.random((6, 6)) < 0.5))
        ok, _ = boundary_of_union_check(A, B)
        assert ok

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_pairs_always_hold(self, rng, d):
        dims = {1: (16,), 2: (16, 16), 3: (6, 6, 6)}[d]
        for _ in range(60):
            A = PixelSet(dims, rng.random(dims) < rng.uniform(0.2, 0.8))
            B = PixelSet(dims, rng.random(dims) < rng.uniform(0.2, 0.8))
            ok, witness = boundary_of_union_check(A, B)
            assert ok, f"counterexample face {witness}"


class TestHighDensityRatio:
    """Boundary of the dense union outside the level set, against the
    level-set boundary inside the level union."""

    def test_cube_indicator_ratio_zero(self):
        vals = np.zeros((8, 8))
        vals[2:6, 2:6] = 1.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((2, 2), 4)]).with_averages(f)
        p = partition_at(f, fam, 1.0)
        assert p.q0.cubes == (GridCube((2, 2), 4),)
        assert boundary_faces_outside(p.union_q01, p.level).face_count == 0

    def test_empty_level_set_flagged(self):
        f = grid_from_array(np.zeros((4, 4)))
        fam = CubeFamily([GridCube((0, 0), 2)]).with_averages(f)
        p = partition_at(f, fam, 5.0)
        assert perimeter(p.level, mask=p.union_all).face_count == 0
        assert boundary_faces_outside(p.union_q01, p.level).face_count == 0

    def test_random_suite_finite_max(self, rng):
        worst = 0.0
        for _ in range(15):
            f, fam = random_instance(rng, dims=(12, 12))
            for lam in lambda_breakpoints(f, fam.averages):
                p = partition_at(f, fam, float(lam))
                rhs = perimeter(p.level, mask=p.union_all).face_count
                if rhs > 0:
                    worst = max(worst, boundary_faces_outside(p.union_q01, p.level).face_count / rhs)
        assert np.isfinite(worst)


@st.composite
def grid_and_base(draw):
    """A d = 1, 2 or 3 grid of tied values and NaN cells, with a random
    power-of-two base cube inside it."""
    d = draw(st.integers(1, 3))
    side = 2 ** draw(st.integers(0, 5 - d))
    dims = tuple(side + draw(st.integers(0, 2)) for _ in range(d))
    vals = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0, math.nan]),
                         min_size=math.prod(dims), max_size=math.prod(dims)))
    anchor = tuple(draw(st.integers(0, n - side)) for n in dims)
    return np.array(vals).reshape(dims), GridCube(anchor, side)


class TestRankTable:
    """Each integer density test is a comparison with a k-th largest value."""

    @given(grid_and_base())
    @settings(max_examples=150, deadline=None)
    def test_rank_tests_match_counted_tests(self, case):
        values, base = case
        d = values.ndim
        dy = dyadic_descendants(base)
        dense = kth_largest(values, dy, lambda c: math.ceil(c / 2 ** (d + 1)))
        below_half = kth_largest(values, dy, lambda c: math.ceil(c / 2))
        at_most_half = kth_largest(values, dy, lambda c: c // 2 + 1)
        strictly_dense = kth_largest(values, dy, lambda c: c // 2 ** (d + 1) + 1)
        lo, hi = density_band(values, dy)
        f = grid_from_array(values)
        assert np.array_equal([lambda_q(f, c) for c in dy], strictly_dense)
        finite = np.unique(values[np.isfinite(values)])
        ends = (finite[0] - 1.0, finite[-1] + 1.0) if finite.size else (-1.0, 1.0)
        for lam in (ends[0], *finite, ends[1]):
            want = counted_density_tests(values, dy, lam)
            assert np.array_equal(lam <= dense, want.dense)
            assert np.array_equal(lam > below_half, want.below_half)
            assert np.array_equal(lam > at_most_half, want.at_most_half)
            assert np.array_equal(lam <= strictly_dense, want.strictly_dense)
            assert np.array_equal((lo < lam) & (lam <= hi), want.dense & want.below_half)
