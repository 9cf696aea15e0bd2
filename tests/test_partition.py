import numpy as np
import pytest

from cubemax import CubeFamily, GridCube, PixelSet, grid_from_array, lambda_breakpoints
from cubemax.generators import make_function, random_complete_family, random_family
from cubemax.partition import (
    boundary_decomposition_terms,
    boundary_of_union_check,
    decomposition_lhs,
    high_density_ratio,
    level_sweep,
    partition_at,
)
from conftest import partition_from_scratch


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


class TestLevelSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("complete", [True, False])
    def test_every_breakpoint_matches_from_scratch_oracle(self, rng, d, complete):
        grid = {1: 32, 2: 16, 3: 8}[d]
        dims = (grid,) * d
        for cls in ("spikes", "simple", "random-smooth"):
            f = make_function(rng, cls, dims, 1.0)
            fam = (random_complete_family(rng, dims, 4) if complete
                   else random_family(rng, dims, 8, pow2=False)).with_averages(f)
            bps = lambda_breakpoints(f, fam.averages)[::-1]
            for lam, p in zip(bps, level_sweep(f, fam, bps)):
                want = partition_from_scratch(f, fam, lam)
                assert p.lam == lam and p.level.equals(want.level)
                for got_q, want_q in ((p.q0, want.q0), (p.q1, want.q1), (p.q2, want.q2)):
                    assert got_q.cubes == want_q.cubes
                    assert np.array_equal(got_q.averages, want_q.averages)
                assert p.sizes == (len(want.q0), len(want.q1), len(want.q2))
                assert p.union_q01.equals(want.union_q01)
                assert p.union_q2.equals(want.union_q2)
                assert p.union_all.equals(want.union_all)

    def test_cube_turning_dense_late_joins_the_dense_union(self):
        # A = [0, 8) is selected but sparse at its own average and dense at
        # level 1; only then does B = [6, 14) reach the 1/4 overlap with the
        # dense union, exactly on the threshold, and become q1
        vals = np.zeros(16)
        vals[0], vals[1:6], vals[6:8], vals[13] = 80.0, 1.0, 0.5, 10.0
        f = grid_from_array(vals)
        a, b = GridCube((0,), 8), GridCube((6,), 8)
        fam = CubeFamily([a, b]).with_averages(f)
        bps = lambda_breakpoints(f, fam.averages)[::-1]
        seen = {}
        for lam, p in zip(bps, level_sweep(f, fam, bps)):
            assert p.q1.cubes == partition_from_scratch(f, fam, lam).q1.cubes
            seen[lam] = p
        assert seen[86 / 8].q2.cubes == (a,)
        assert seen[1.0].q0.cubes == (a,) and seen[1.0].q1.cubes == (b,)

    def test_partitions_keep_their_unions_after_the_sweep_moves_on(self, rng):
        f, fam = random_instance(rng)
        bps = lambda_breakpoints(f, fam.averages)[::-1]
        parts = list(level_sweep(f, fam, bps))
        for lam, p in zip(bps, parts):
            assert p.union_q01.equals(partition_from_scratch(f, fam, lam).union_q01)

    def test_rising_level_rejected(self, rng):
        f, fam = random_instance(rng)
        with pytest.raises(ValueError, match="non-increasing"):
            list(level_sweep(f, fam, [1.0, 2.0]))

    def test_empty_family(self):
        f = grid_from_array(np.arange(16.0).reshape(4, 4))
        for p in level_sweep(f, CubeFamily([]), [9.0, 3.0, 3.0]):
            assert p.sizes == (0, 0, 0) and p.union_all.count == 0
            assert p.level.count == int(np.sum(f.array >= p.lam))


class TestBoundaryDecomposition:
    def test_empty_q2_second_term_zero(self):
        vals = np.zeros((6, 6))
        vals[2:4, 2:4] = 1.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((2, 2), 2)]).with_averages(f)
        p = partition_at(f, fam, 1.0)
        t1, t2 = boundary_decomposition_terms(p, f)
        assert t2 == 0.0

    def test_empty_q01_first_term_zero(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = 64.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((0, 0), 8)]).with_averages(f)
        p = partition_at(f, fam, 0.5)
        t1, t2 = boundary_decomposition_terms(p, f)
        assert t1 == 0.0

    def test_split_dominates_exactly(self, rng):
        for _ in range(20):
            f, fam = random_instance(rng, dims=(9, 9))
            for lam in lambda_breakpoints(f, fam.averages):
                p = partition_at(f, fam, float(lam))
                t1, t2 = boundary_decomposition_terms(p, f)
                lhs = decomposition_lhs(p, f)
                assert lhs <= t1 + t2 + 1e-12


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
    def test_cube_indicator_ratio_zero(self):
        vals = np.zeros((8, 8))
        vals[2:6, 2:6] = 1.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((2, 2), 4)]).with_averages(f)
        p = partition_at(f, fam, 1.0)
        r = high_density_ratio(p, f)
        assert r.lhs == 0.0 and r.ratio == 0.0

    def test_empty_level_set_flagged(self):
        f = grid_from_array(np.zeros((4, 4)))
        fam = CubeFamily([GridCube((0, 0), 2)]).with_averages(f)
        p = partition_at(f, fam, 5.0)
        r = high_density_ratio(p, f)
        assert not r.defined or r.rhs > 0

    def test_random_suite_finite_max(self, rng):
        worst = 0.0
        for _ in range(15):
            f, fam = random_instance(rng, dims=(12, 12))
            for lam in lambda_breakpoints(f, fam.averages):
                r = high_density_ratio(partition_at(f, fam, float(lam)), f)
                if r.defined:
                    worst = max(worst, r.ratio)
        assert np.isfinite(worst)
