import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import CubeFamily, GridCube, GridFunction, dyadic_descendants, grid_from_array
from cubemax.errors import PremiseViolated
from cubemax.generators import random_family
from cubemax.sparse import (
    SparseFamily,
    accumulate_q2_cubes,
    default_contraction,
    dilate_overlap_count,
    disjoint_select,
    greedy_sparse,
    lambda_q,
    significant_mass_bound,
    sparse_pairwise_violations,
)
from conftest import (
    box_holds,
    broadcast_capture,
    cube_box,
    cube_holds,
    scalar_dilate,
    scalar_disjoint_select,
    scalar_overlap_count,
    scalar_pairwise_violations,
)


def lambda_q_scan_oracle(f, q):
    """Oracle: scan every candidate level from a fine superset and take the
    infimum of the levels where the density condition holds for all higher
    levels."""
    d = f.d
    vals = f.array[q.slices()].ravel()
    candidates = np.unique(vals)
    thresh = q.cell_count / 2 ** (d + 1)
    best = None
    for v in candidates:
        tail = candidates[candidates >= v]
        # condition: for every level strictly above v, count <= threshold
        ok = all(np.sum(vals >= w) <= thresh for w in tail if w > v)
        ok = ok and np.sum(vals > v) <= thresh
        if ok:
            best = v
            break
    return float(best)


class TestLambdaQ:
    def test_quarter_indicator_2x2(self):
        f = grid_from_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert lambda_q(f, GridCube((0, 0), 2)) == 1.0

    def test_constant(self):
        f = grid_from_array(np.full((4,), 2.5))
        assert lambda_q(f, GridCube((0,), 4)) == 2.5

    def test_threshold_tie_goes_down(self):
        # one heavy cell out of four in one dimension: the superlevel count at
        # the top value equals the threshold exactly, so the level drops to 0
        f = grid_from_array(np.array([4.0, 0.0, 0.0, 0.0]))
        assert lambda_q(f, GridCube((0,), 4)) == 0.0

    def test_nan_cell_is_in_no_superlevel_set(self):
        q = GridCube((0,), 4)
        # a NaN cell counted as above every level would make 1 the level
        assert lambda_q(grid_from_array(np.array([np.nan, 1.0, 0.0, 0.0])), q) == 0.0
        assert lambda_q(grid_from_array(np.array([np.nan, np.nan, np.nan, 0.0])), q) == -np.inf

    def test_matches_scan_oracle(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 3))
            side = int(rng.choice([2, 4, 8]))
            dims = (12,) * d
            f = GridFunction(dims, rng.integers(0, 5, dims).ravel().astype(float))
            anchor = tuple(int(rng.integers(0, 12 - side)) for _ in range(d))
            q = GridCube(anchor, side)
            assert lambda_q(f, q) == lambda_q_scan_oracle(f, q)


class TestGreedySparse:
    def test_single_cube(self, rng):
        f = grid_from_array(rng.random((4, 4)))
        fam = CubeFamily([GridCube((0, 0), 2)]).with_averages(f)
        sp = greedy_sparse(f, fam)
        assert sp.cubes == fam

    def test_same_scale_majority_overlap_keeps_larger_average(self):
        vals = np.zeros((4, 8))
        vals[:, :4] = 2.0
        f = grid_from_array(vals)
        a = GridCube((0, 0), 4)   # average 2
        b = GridCube((0, 1), 4)   # average 1.5, overlaps a in 3/4 of volume
        sp = greedy_sparse(f, CubeFamily([a, b]).with_averages(f))
        assert sp.cubes.cubes == (a,)

    def test_termination_and_subset(self, rng):
        f = grid_from_array(rng.random((16, 16)))
        cubes = []
        for _ in range(60):
            side = int(rng.integers(1, 9))
            anchor = tuple(int(rng.integers(0, 17 - side)) for _ in range(2))
            cubes.append(GridCube(anchor, side))
        fam = CubeFamily(cubes).with_averages(f)
        sp = greedy_sparse(f, fam)
        assert 0 < len(sp) <= len(fam)
        assert set(sp.cubes) <= set(fam.cubes)

    def test_pairwise_postcondition_random(self, rng):
        for _ in range(25):
            dims = (16,) * 2
            f = GridFunction(dims, rng.integers(0, 6, dims).ravel().astype(float))
            cubes = []
            for _ in range(int(rng.integers(5, 60))):
                side = int(rng.integers(1, 10))
                anchor = tuple(int(rng.integers(0, 17 - side)) for _ in range(2))
                cubes.append(GridCube(anchor, side))
            sp = greedy_sparse(f, CubeFamily(cubes).with_averages(f))
            assert sparse_pairwise_violations(sp, f) == []

    def test_lambdas_match_scan_oracle(self):
        # the acceptance-suite inputs: 16 x 16 integer grids, random families
        rng = np.random.default_rng(104)
        for _ in range(20):
            dims = (16, 16)
            f = GridFunction(dims, rng.integers(0, 7, dims).ravel().astype(float))
            count = int(rng.integers(20, 201))
            fam = random_family(rng, dims, count, pow2=bool(rng.integers(0, 2)))
            sp = greedy_sparse(f, fam.with_averages(f))
            assert sp.lambdas.tolist() == [lambda_q_scan_oracle(f, c) for c in sp.cubes]

    def test_rhs_sum_formula(self, rng):
        f = grid_from_array(rng.integers(0, 4, (8, 8)).astype(float))
        fam = CubeFamily([GridCube((0, 0), 4), GridCube((3, 3), 2)]).with_averages(f)
        sp = greedy_sparse(f, fam)
        want = sum((a - l) * 2 * c.d * c.side ** (c.d - 1)
                   for c, a, l in zip(sp.cubes, sp.cubes.averages, sp.lambdas))
        assert sp.rhs_sum == pytest.approx(want, rel=1e-12)

    def test_nan_average_rejected(self):
        # argmax would pick the NaN cube and no comparison with NaN would
        # discard it, so the loop would never end
        f = GridFunction((4, 4), np.arange(16.0))
        fam = CubeFamily.from_arrays([[0, 0], [1, 1]], [2, 2], [np.nan, 1.0])
        with pytest.raises(PremiseViolated, match="non-finite average"):
            greedy_sparse(f, fam)


class TestSignificantMass:
    def test_high_density_everywhere_gives_zero(self):
        vals = np.zeros((4, 4))
        vals[0:2, 0:2] = 1.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((0, 0), 2)]).with_averages(f)
        lhs, rhs = significant_mass_bound(f, fam)
        assert lhs == 0.0

    def test_nan_average_rejected(self):
        # the same premise as the evaluator's: a NaN breakpoint would make
        # the level integral NaN
        vals = np.arange(16.0).reshape(4, 4)
        vals[0, 0] = np.nan
        f = grid_from_array(vals)
        fam = dyadic_descendants(GridCube((0, 0), 4))
        with pytest.raises(PremiseViolated, match=r"side=4\) has the non-finite average nan"):
            significant_mass_bound(f, fam)

    def test_indicator_ratio_finite(self, rng):
        vals = np.zeros((8, 8))
        vals[0, 0] = 32.0
        f = grid_from_array(vals)
        from cubemax import dyadic_descendants
        fam = dyadic_descendants(GridCube((0, 0), 8)).with_averages(f)
        lhs, rhs = significant_mass_bound(f, fam)
        assert np.isfinite(lhs) and np.isfinite(rhs)
        if rhs > 0:
            assert lhs / rhs < 50

    def test_one_dimensional_exhaustive_cross_check(self):
        # small enough to enumerate the level classes by hand loops
        vals = np.array([8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        f = grid_from_array(vals)
        from cubemax import dyadic_descendants
        fam = dyadic_descendants(GridCube((0,), 8)).with_averages(f)
        lhs, rhs = significant_mass_bound(f, fam)
        thresh = 1 / 4  # 2^-(d+1), d=1
        avgs = np.asarray(fam.averages)
        bps = np.unique(np.concatenate((vals, avgs)))
        want_lhs = 0.0
        for i in range(1, bps.size):
            lam = bps[i]
            level = vals >= lam
            selected = [c for c, a in zip(fam.cubes, avgs) if a >= lam]
            q0 = [c for c in selected
                  if level[c.slices()[0]].sum() >= thresh * c.cell_count]
            u0 = np.zeros(8, dtype=bool)
            for c in q0:
                u0[c.slices()[0]] = True
            q2 = [c for c in selected if c not in q0
                  and u0[c.slices()[0]].sum() < thresh * c.cell_count]
            u2 = np.zeros(8, dtype=bool)
            for c in q2:
                u2[c.slices()[0]] = True
            faces = int(np.sum(u2[:-1] & ~u2[1:]) + np.sum(~u2[:-1] & u2[1:]))
            want_lhs += (bps[i] - bps[i - 1]) * faces
        assert lhs == pytest.approx(want_lhs, rel=1e-12)


class TestDisjointSelect:
    def test_single_cube(self, rng):
        f = grid_from_array(rng.random((8, 8)))
        q0 = GridCube((0, 0), 4)
        fam = CubeFamily([q0])
        out = disjoint_select(fam, {q0: fam}, default_contraction(2), f)
        assert out.cubes == fam
        assert out.overlap_constant == 1

    def test_default_contraction_value(self):
        assert default_contraction(2) == pytest.approx(1 / 64)
        assert default_contraction(1) == pytest.approx(1 / 16)

    def test_contraction_out_of_range_rejected(self, rng):
        f = grid_from_array(rng.random((8, 8)))
        q0 = GridCube((0, 0), 4)
        for eps in (-0.01, 1.0):
            with pytest.raises(ValueError, match="contraction eps"):
                disjoint_select(CubeFamily([q0]), {q0: CubeFamily([q0])}, eps, f)

    def test_premise_violation_raises(self, rng):
        f = grid_from_array(rng.random((8, 8)))
        big = GridCube((0, 0), 4)
        small = GridCube((1, 1), 1)
        with pytest.raises(PremiseViolated):
            disjoint_select(CubeFamily([small, big]), {big: CubeFamily([big])},
                            default_contraction(2), f)

    def test_properties_on_random_nested_families(self, rng):
        f = grid_from_array(rng.random((16, 16)))
        eps = default_contraction(2)
        for _ in range(10):
            bases = []
            for _ in range(int(rng.integers(1, 4))):
                side = int(rng.choice([4, 8]))
                anchor = tuple(int(rng.integers(0, 17 - side)) for _ in range(2))
                bases.append(GridCube(anchor, side))
            bases = list(dict.fromkeys(bases))
            d_map = {}
            for q0 in bases:
                subs = []
                for _ in range(int(rng.integers(1, 6))):
                    side = int(rng.choice([1, 2, max(1, q0.side // 2)]))
                    anchor = tuple(int(rng.integers(a, a + q0.side - side + 1))
                                   for a in q0.anchor)
                    c = GridCube(anchor, side)
                    if not any(cube_holds(c, b) and c != b for b in bases):
                        subs.append(c)
                if subs:
                    d_map[q0] = CubeFamily(subs)
            if not d_map:
                continue
            out = disjoint_select(CubeFamily(list(d_map)), d_map, eps, f)
            # property: bounded pointwise overlap of contracted dilates
            got = dilate_overlap_count(out.cubes, (1 - eps) ** 2, f.dims)
            assert got == out.overlap_constant
            assert out.overlap_constant <= 4 ** 2
            # property: capture with bounded dilations, audited geometrically
            for q0, subs in d_map.items():
                for q in subs:
                    hit = False
                    for p in out.cubes:
                        p_dilate = scalar_dilate(p, out.c1 * (1 + 1e-12))
                        base_dilate = scalar_dilate(q0, out.c2 * (1 + 1e-12))
                        if box_holds(p_dilate, cube_box(q)) \
                           and box_holds(base_dilate, cube_box(p)):
                            hit = True
                            break
                    assert hit

    def test_scaled_disjoint_overlap_bounded(self, rng):
        # same-scale families with pairwise at-most-half overlap have bounded
        # dilate overlap counts for moderate dilation factors
        f = grid_from_array(rng.random((24, 24)))
        for trial in range(10):
            side = int(rng.choice([2, 4]))
            cand = []
            for _ in range(40):
                anchor = tuple(int(rng.integers(0, 25 - side)) for _ in range(2))
                cand.append(GridCube(anchor, side))
            chosen = []
            for c in cand:
                ok = True
                for o in chosen:
                    lo = [max(a, b) for a, b in zip(c.anchor, o.anchor)]
                    hi = [min(a + side, b + side) for a, b in zip(c.anchor, o.anchor)]
                    ov = max(0, hi[0] - lo[0]) * max(0, hi[1] - lo[1])
                    if 2 * ov > side * side:
                        ok = False
                        break
                if ok:
                    chosen.append(c)
            for K in (1.0, 2.0, 3.0):
                cnt = dilate_overlap_count(CubeFamily(chosen), K, f.dims)
                assert cnt <= 16 * K * K + 8


class TestAccumulateQ2:
    def test_spiky_instance_produces_q2(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = 64.0
        f = grid_from_array(vals)
        from cubemax import dyadic_descendants
        fam = dyadic_descendants(GridCube((0, 0), 8)).with_averages(f)
        q2 = accumulate_q2_cubes(f, fam)
        assert len(q2) >= 1
        assert all(a >= 0 for a in q2.averages)

    @pytest.mark.parametrize("pipeline", [True, False], ids=["pipeline", "raw"])
    def test_matches_from_scratch_oracle(self, rng, pipeline):
        # the union over every breakpoint of the oracle's low-density class,
        # and the exact level integral of its union's perimeter
        from cubemax import integrate_breakpoints, lambda_breakpoints, perimeter
        from cubemax.generators import random_complete_family, random_family, spikes_function
        from conftest import partition_from_scratch

        dims = (16, 16)
        found_q2 = 0
        for _ in range(4):
            f = spikes_function(rng, dims)
            fam = (random_complete_family(rng, dims, 5) if pipeline
                   else random_family(rng, dims, 10, pow2=False))
            full = fam.with_averages(f)
            bps = lambda_breakpoints(f, full.averages)
            parts = [partition_from_scratch(f, full, lam) for lam in bps]
            seen = {}
            for p in parts:
                for c, a in zip(p.q2.cubes, p.q2.averages):
                    seen.setdefault(c, a)
            want_q2 = CubeFamily(list(seen), np.array(list(seen.values())))
            want_lhs = integrate_breakpoints(
                bps, np.array([perimeter(p.union_q2) for p in parts]))

            got = accumulate_q2_cubes(f, fam)
            assert got.cubes == want_q2.cubes
            assert np.array_equal(got.averages, want_q2.averages)
            assert significant_mass_bound(f, fam) == (want_lhs, greedy_sparse(f, want_q2).rhs_sum)
            found_q2 += len(want_q2)
        assert found_q2 > 0


def nested_instance(rng, d):
    """A random grid function with bases and per-base collections inside
    them: dyadic descendants or arbitrary subcubes, none strictly holding a
    base."""
    n = {1: 64, 2: 16, 3: 8}[d]
    dims = (n,) * d
    f = GridFunction(dims, rng.random(n ** d))
    bases = []
    for _ in range(int(rng.integers(1, 5))):
        side = int(2 ** rng.integers(1, int(np.log2(n))))
        bases.append(GridCube(tuple(int(a) for a in rng.integers(0, n - side + 1, d)), side))
    bases = list(dict.fromkeys(bases))
    d_map = {}
    for q0 in bases:
        if rng.random() < 0.5:
            cands = [c for c in dyadic_descendants(q0).cubes if rng.random() < 0.35]
        else:
            cands = []
            for _ in range(int(rng.integers(1, 12))):
                side = int(rng.integers(1, q0.side + 1))
                cands.append(GridCube(tuple(int(rng.integers(a, a + q0.side - side + 1))
                                            for a in q0.anchor), side))
        pick = [c for c in cands if not any(cube_holds(c, b) and c != b for b in bases)]
        if pick:
            d_map[q0] = CubeFamily(pick)
    return f, d_map


def random_selection(rng, d):
    """A hand-built selection with heavy overlaps, ties and non-dyadic sides,
    in a random order; unlike greedy output it usually has violating pairs.
    A cube drawn twice is kept once, with its last average, as in greedy
    output."""
    n = {1: 32, 2: 12, 3: 6}[d]
    f = GridFunction((n,) * d, rng.random(n ** d))
    m = int(rng.integers(2, 40))
    sides = rng.integers(1, n // 2 + 1, m)
    anchors = rng.integers(0, n - sides[:, None] + 1, (m, d))
    fam = CubeFamily.from_arrays(anchors, sides, rng.integers(0, 4, m).astype(float))
    return SparseFamily(fam.select(rng.permutation(len(fam))), np.zeros(len(fam)), 0.0), f


class TestArrayFormAgainstScalarOracles:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_disjoint_select_matches_oracle(self, rng, d):
        eps = default_contraction(d)
        done = 0
        while done < 25:
            f, d_map = nested_instance(rng, d)
            if not d_map:
                continue
            S = CubeFamily(list(d_map))
            got = disjoint_select(S, d_map, eps, f)
            assert got == scalar_disjoint_select(S, d_map, eps, f)
            done += 1

    @pytest.mark.parametrize("S, d_map", [
        ([GridCube((0, 0), 4)], {GridCube((0, 0), 4): [GridCube((3, 3), 2)]}),
        ([GridCube((1, 1), 1), GridCube((0, 0), 4)],
         {GridCube((0, 0), 4): [GridCube((0, 0), 4), GridCube((0, 0), 2)]}),
        ([GridCube((4, 4), 2), GridCube((0, 0), 8)],
         {GridCube((0, 0), 8): [GridCube((0, 0), 2), GridCube((4, 4), 4)],
          GridCube((4, 4), 2): [GridCube((4, 4), 1)]}),
    ], ids=["outside-base", "inside-selection-cube", "inside-other-collection"])
    def test_premise_messages_match_oracle(self, rng, S, d_map):
        f = grid_from_array(rng.random((8, 8)))
        d_map = {q0: CubeFamily(ds) for q0, ds in d_map.items()}
        with pytest.raises(PremiseViolated) as want:
            scalar_disjoint_select(CubeFamily(S), d_map, default_contraction(2), f)
        with pytest.raises(PremiseViolated) as got:
            disjoint_select(CubeFamily(S), d_map, default_contraction(2), f)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairwise_violations_match_oracle(self, rng, d):
        found = 0
        for _ in range(40):
            sp, f = random_selection(rng, d)
            want = scalar_pairwise_violations(sp, f)
            assert sparse_pairwise_violations(sp, f) == want
            found += len(want)
        assert found > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_overlap_count_matches_oracle(self, d, data):
        # axes down to one cell; cubes partly or wholly off the grid, whose
        # dilates reach past it on either side or are empty once clipped; few
        # anchors and sides, so that many boxes share corner coordinates; and
        # the empty family
        dims = tuple(data.draw(st.lists(st.integers(1, {1: 24, 2: 10, 3: 5}[d]),
                                        min_size=d, max_size=d), label="dims"))
        coord = st.integers(-4, max(dims) + 3)
        cubes = data.draw(st.lists(st.tuples(st.tuples(*[coord] * d), st.integers(1, 6)),
                                   max_size=40), label="cubes")
        fam = CubeFamily([GridCube(a, s) for a, s in cubes])
        K = data.draw(st.sampled_from([0.4, (1 - default_contraction(d)) ** 2, 1.0, 2.5])
                      | st.floats(0.05, 4.0), label="K")
        assert dilate_overlap_count(fam, K, dims) == scalar_overlap_count(fam, K, dims)


def test_selection_path_builds_no_grid_cubes(rng, monkeypatch):
    # the inputs, the mapping keys included, are built before counting
    f, d_map = nested_instance(rng, 2)
    while not d_map:
        f, d_map = nested_instance(rng, 2)
    fam = random_family(rng, f.dims, 60, pow2=False).with_averages(f)
    S = CubeFamily(list(d_map))
    built = []
    real = GridCube.__post_init__

    def counted(self):
        real(self)
        built.append(self)

    monkeypatch.setattr(GridCube, "__post_init__", counted)
    sp = greedy_sparse(f, fam)
    out = disjoint_select(S, d_map, default_contraction(2), f)
    assert len(sp) and len(out.cubes) and not built


class TestPairBudget:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_row_blocks_match_oracles(self, rng, one_row_blocks, d):
        # block boundaries, the swallow prefix and the conflict-row greedy
        eps = default_contraction(d)
        for _ in range(15):
            f, d_map = nested_instance(rng, d)
            if d_map:
                S = CubeFamily(list(d_map))
                got = disjoint_select(S, d_map, eps, f)
                assert got == scalar_disjoint_select(S, d_map, eps, f)
                assert (got.c1, got.c2) == broadcast_capture(d_map, got.cubes)
            sp, g = random_selection(rng, d)
            assert sparse_pairwise_violations(sp, g) == scalar_pairwise_violations(sp, g)

    def test_capture_over_several_blocks_matches_oracles(self, rng):
        # 60% of the dyadic descendants of two side-16 bases on a 32x32
        # grid: more pairs than one block holds
        from cubemax import cubes

        f = grid_from_array(rng.random((32, 32)))
        eps = default_contraction(2)
        for anchors in ([(4, 4), (16, 8)], [(0, 0), (16, 16)]):
            d_map = {}
            for a in anchors:
                q0 = GridCube(a, 16)
                dy = dyadic_descendants(q0)
                d_map[q0] = dy.select(np.append(True, rng.random(len(dy) - 1) < 0.6))
            got = disjoint_select(CubeFamily(list(d_map)), d_map, eps, f)
            assert sum(map(len, d_map.values())) * len(got.cubes) > cubes.PAIR_BUDGET
            assert got == scalar_disjoint_select(CubeFamily(list(d_map)), d_map, eps, f)
            assert (got.c1, got.c2) == broadcast_capture(d_map, got.cubes)

    def test_deep_chain_independent_of_blocks(self, rng, monkeypatch):
        from cubemax import cubes
        from cubemax.estimates import theorem_main_evaluate
        from cubemax.generators import random_complete_family, spikes_function

        selected = 0
        for _ in range(3):
            f = spikes_function(rng, (16, 16))
            fam = random_complete_family(rng, (16, 16), 8).with_averages(f)
            want = theorem_main_evaluate(f, fam, deep=True).deep
            with monkeypatch.context() as m:
                m.setattr(cubes, "PAIR_BUDGET", 1)
                assert theorem_main_evaluate(f, fam, deep=True).deep == want
            selected += want["overlap_C_max"]
        assert selected > 0
