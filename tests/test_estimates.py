import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import (
    CubeFamily,
    GridCube,
    GridFunction,
    PixelSet,
    dyadic_descendants,
    family_averages,
    grid_from_array,
    lambda_breakpoints,
    perimeter,
    superlevel,
)
from cubemax import estimates
from cubemax.errors import (
    InvariantViolated,
    NotDyadicallyComplete,
    PreconditionDensity,
    PremiseViolated,
    ZeroVariationInput,
)
from cubemax.estimates import (
    contract_density_check,
    covering_middensity,
    isoperimetric_significant,
    poincare_ratio,
    sparse_mass_estimate,
    theorem_main_evaluate,
)
from cubemax.experiments import DEFAULT_RATIO_CAPS
from cubemax.grid import boundary_faces_outside, integrate_breakpoints
from cubemax.generators import random_family
from cubemax.partition import DensityLevels, density_levels
from cubemax.sparse import default_contraction, lambda_q
from conftest import counted_density_tests, cube_holds, directed_face_columns, draw_nan_cells


def enumerate_dyadic_1d(anchor, side):
    out = []
    s = side
    while s >= 1:
        for a in range(anchor, anchor + side, s):
            out.append((a, s))
        s //= 2
    return out


def sparse_mass_rhs_oracle(f, q0):
    """Exhaustive oracle for the right-hand side: enumerate dyadic intervals
    and integrate the step function between consecutive candidate levels."""
    vals = f.values
    d = 1
    cubes = enumerate_dyadic_1d(q0.anchor[0], q0.side)
    avgs = {c: float(np.mean(vals[c[0]:c[0] + c[1]])) for c in cubes}
    fq0 = float(np.mean(vals[q0.slices()[0]]))
    bps = np.unique(np.concatenate((vals, np.array(list(avgs.values())), [fq0])))
    total = 0.0
    for i in range(1, bps.size):
        if bps[i - 1] < fq0:
            continue
        lam = bps[i]
        level = vals >= lam
        union = np.zeros(vals.size, dtype=bool)
        for (a, s) in cubes:
            if avgs[(a, s)] >= lam and 2 * int(level[a:a + s].sum()) <= s:
                union[a:a + s] = True
        total += (bps[i] - bps[i - 1]) * float(np.sum(level & union))
    return 2 ** (d + 1) * total


class TestSparseMassEstimate:
    def test_constant_function_both_zero(self):
        f = grid_from_array(np.full(4, 2.0))
        lhs, rhs = sparse_mass_estimate(f, GridCube((0,), 4))
        assert lhs == 0.0 and rhs == 0.0

    def test_heavy_corner_interval(self):
        f = grid_from_array(np.array([4.0, 0.0, 0.0, 0.0]))
        q0 = GridCube((0,), 4)
        # at the threshold the superlevel count equals the allowed fraction,
        # so the density level is 0, not 4
        assert lambda_q(f, q0) == 0.0
        lhs, rhs = sparse_mass_estimate(f, q0)
        assert lhs == pytest.approx(4.0)
        assert lhs <= rhs + 1e-12
        assert rhs == pytest.approx(sparse_mass_rhs_oracle(f, q0), rel=1e-12)

    def test_matches_exhaustive_oracle_1d(self, rng):
        for _ in range(40):
            side = int(rng.choice([4, 8, 16]))
            n = side + int(rng.integers(0, 5))
            vals = rng.integers(0, 6, n).astype(float)
            f = GridFunction((n,), vals)
            q0 = GridCube((int(rng.integers(0, n - side + 1)),), side)
            lhs, rhs = sparse_mass_estimate(f, q0)
            assert rhs == pytest.approx(sparse_mass_rhs_oracle(f, q0), rel=1e-12)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_explicit_constant_random(self, rng, d):
        for _ in range(60):
            side = int(rng.choice([4, 8]))
            dims = (side + int(rng.integers(0, 3)),) * d
            kind = rng.integers(0, 3)
            if kind == 0:
                vals = rng.integers(0, 5, dims).astype(float)
            elif kind == 1:
                vals = np.zeros(dims)
                hot = rng.integers(0, np.prod(dims), size=max(1, int(np.prod(dims)) // 6))
                vals.ravel()[hot] = rng.integers(1, 20, hot.size)
            else:
                vals = np.round(rng.random(dims) * 8) / 2
            f = GridFunction(dims, vals.ravel())
            anchor = tuple(int(rng.integers(0, n - side + 1)) for n in dims)
            lhs, rhs = sparse_mass_estimate(f, GridCube(anchor, side))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("d", [2, 3])
    def test_rhs_matches_counted_oracle(self, rng, d):
        # the per-level form: count each dyadic cube's superlevel cells at
        # every breakpoint above the average
        for _ in range(15):
            side = 4
            dims = (side + int(rng.integers(0, 3)),) * d
            f = GridFunction(dims, rng.integers(0, 4, dims).ravel().astype(float))
            q0 = GridCube(tuple(int(rng.integers(0, n - side + 1)) for n in dims), side)
            dy = dyadic_descendants(q0)
            avgs = family_averages(f, dy)
            fq0 = float(np.mean(f.array[q0.slices()]))
            bps = lambda_breakpoints(f, np.concatenate((avgs, [fq0])))
            vols = np.zeros(bps.size)
            for k in range(1, bps.size):
                sel = (avgs >= bps[k]) & counted_density_tests(f.array, dy, bps[k]).at_most_half
                u = dy.select(sel).union_pixels(dims).mask
                vols[k] = np.count_nonzero(u & (f.array >= bps[k]))
            want = 2 ** (d + 1) * integrate_breakpoints(bps, vols, lower=fq0)
            assert sparse_mass_estimate(f, q0)[1] == want

    def test_nan_cell_rejected(self):
        f = grid_from_array(np.array([np.nan, 4, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(PremiseViolated, match="non-finite average nan"):
            sparse_mass_estimate(f, GridCube((0,), 8))

    def test_explicit_level_precondition(self, rng):
        f = grid_from_array(np.array([4.0, 0.0, 0.0, 0.0]))
        q0 = GridCube((0,), 4)
        # lam0 = 0.5 satisfies the density hypothesis with the closed level set
        lhs, rhs = sparse_mass_estimate(f, q0, lam0=0.5)
        assert lhs == pytest.approx(4 * (1.0 - 0.5))
        assert lhs <= rhs
        with pytest.raises(PreconditionDensity):
            sparse_mass_estimate(f, q0, lam0=-1.0)


class TestCoveringMiddensity:
    def test_empty_intersection_vacuous(self):
        E = PixelSet.empty((8, 8))
        r = covering_middensity(E, GridCube((0, 0), 4))
        assert r.exact and len(r.band) == 0

    def test_one_cell_in_side4(self):
        E = PixelSet((8, 8), np.arange(64).reshape(8, 8) == 9)
        r = covering_middensity(E, GridCube((0, 0), 4))
        assert r.exact
        assert any(c.side == 2 for c in r.band.cubes)

    def test_random_exact_cover_and_band(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 3))
            side = int(rng.choice([4, 8]))
            dims = (side,) * d
            q0 = GridCube((0,) * d, side)
            m = rng.random(dims) < rng.uniform(0.05, 0.45)
            if 2 * m.sum() >= side ** d:
                continue
            E = PixelSet(dims, m)
            r = covering_middensity(E, q0)
            assert r.exact, "every set cell must be covered by a band cube"
            dy = dyadic_descendants(q0)
            counted = counted_density_tests(m.astype(float), dy, 1.0)
            assert r.band.cubes == dy.select(counted.dense & counted.below_half).cubes
            # re-verify the band predicate with direct volume counts
            for c in r.band.cubes:
                cnt = int(m[c.slices()].sum())
                assert cnt * 2 ** (d + 1) >= c.cell_count
                assert 2 * cnt < c.cell_count

    def test_precondition_enforced(self):
        E = PixelSet.full((4, 4))
        with pytest.raises(PreconditionDensity):
            covering_middensity(E, GridCube((0, 0), 4))


class TestContractDensity:
    def test_zero_contraction_recovers_band(self, rng):
        for _ in range(20):
            m = rng.random((8, 8)) < 0.3
            q = GridCube((0, 0), 8)
            cnt = int(m.sum())
            in_band = cnt * 8 >= 64 and 2 * cnt < 64
            if not in_band:
                continue
            # eps = 0 widens the band limits, so band membership implies it
            assert contract_density_check(PixelSet((8, 8), m), q, 0.0)

    def test_default_contraction_2d(self):
        assert default_contraction(2) == pytest.approx(1 / 64)

    def test_band_instances_pass_default(self, rng):
        eps = default_contraction(2)
        passed = 0
        for _ in range(60):
            side = int(rng.choice([4, 8]))
            m = rng.random((side, side)) < rng.uniform(0.15, 0.45)
            cnt = int(m.sum())
            q = GridCube((0, 0), side)
            if not (cnt * 8 >= side * side and 2 * cnt < side * side):
                continue
            assert contract_density_check(PixelSet((side, side), m), q, eps)
            passed += 1
        assert passed > 5


class TestPoincare:
    def test_affine_profile_finite(self):
        vals = np.add.outer(np.arange(4.0), np.arange(4.0))
        f = grid_from_array(vals)
        r = poincare_ratio(f, GridCube((0, 0), 4))
        assert np.isfinite(r) and r > 0

    def test_constant_raises(self):
        f = grid_from_array(np.ones((4, 4)))
        with pytest.raises(ZeroVariationInput):
            poincare_ratio(f, GridCube((0, 0), 4))

    def test_single_cell_indicator_matches_hand_value(self):
        # large cube, one hot cell: the ratio approaches the isoperimetric
        # value 1/4; with the mean subtracted the exact value is computable
        n = 16
        vals = np.zeros((n, n))
        vals[8, 8] = 1.0
        f = grid_from_array(vals)
        q = GridCube((0, 0), n)
        mean = 1.0 / (n * n)
        norm = np.sqrt((1 - mean) ** 2 + (n * n - 1) * mean ** 2)
        assert poincare_ratio(f, q) == pytest.approx(norm / 4.0, rel=1e-12)

    def test_one_dimensional_uses_max_norm(self):
        f = grid_from_array(np.array([0.0, 1.0, 0.0, 1.0]))
        q = GridCube((0,), 4)
        # mean 1/2, max deviation 1/2, variation inside = 3
        assert poincare_ratio(f, q) == pytest.approx(0.5 / 3.0)


class TestIsoperimetric:
    def test_empty_set(self):
        E = PixelSet.empty((6, 6))
        a, b = isoperimetric_significant(E, GridCube((0, 0), 4), 0.5)
        assert (a, b) == (0.0, 0.0)

    def test_single_cell_hand_values(self):
        E = PixelSet((6, 6), np.arange(36).reshape(6, 6) == 14)
        a, b = isoperimetric_significant(E, GridCube((0, 0), 4), 0.5)
        assert (a, b) == (16.0, 1.0)

    def test_random_min_ratio_positive(self, rng):
        worst = np.inf
        for _ in range(40):
            m = rng.random((8, 8)) < 0.3
            if not 0 < m.sum() <= 32:
                continue
            E = PixelSet((8, 8), m)
            a, b = isoperimetric_significant(E, GridCube((0, 0), 8), 0.5)
            if b > 0:
                worst = min(worst, a / b)
        assert worst > 0

    def test_precondition(self):
        E = PixelSet.full((4, 4))
        with pytest.raises(PreconditionDensity):
            isoperimetric_significant(E, GridCube((0, 0), 4), 0.5)


class TestTheoremEvaluate:
    def test_empty_family_zero_lhs(self, rng):
        f = grid_from_array(rng.random((6, 6)))
        rep = theorem_main_evaluate(f, CubeFamily([]).with_averages(f), deep=False)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_deep_keys_do_not_depend_on_the_selection(self):
        # a zero grid selects no sparse cube; one spike selects some
        reps = []
        for n, vals in ((4, np.zeros((4, 4))), (8, np.eye(1, 64, 27).reshape(8, 8))):
            f = grid_from_array(vals)
            fam = dyadic_descendants(GridCube((0, 0), n)).with_averages(f)
            reps.append(theorem_main_evaluate(f, fam, deep=True))
        assert [r.subterms["sparse_size"] == 0 for r in reps] == [True, False]
        assert set(reps[0].deep) == set(reps[1].deep)

    def test_incomplete_family_rejected(self, rng):
        f = grid_from_array(rng.random((8, 8)))
        fam = CubeFamily([GridCube((0, 0), 4), GridCube((0, 0), 1)]).with_averages(f)
        with pytest.raises(NotDyadicallyComplete):
            theorem_main_evaluate(f, fam)

    def test_incomplete_family_in_selection_order_rejected(self, rng):
        # smallest side first: the check must not read it from the last row
        f = grid_from_array(rng.random(4))
        fam = CubeFamily([GridCube((0,), 4), GridCube((0,), 1)]).with_averages(f)
        with pytest.raises(NotDyadicallyComplete):
            theorem_main_evaluate(f, fam.select(np.array([1, 0])))

    def test_split_domination_violation_raises(self, rng, monkeypatch):
        # a q2-boundary column that loses one face breaks the exact
        # face-count bound lhs <= term1 + term2 at a level where it is tight
        real = DensityLevels.q2_boundary_faces
        monkeypatch.setattr(DensityLevels, "q2_boundary_faces",
                            lambda self, bps: real(self, bps) - 1)
        f = grid_from_array(rng.random((8, 8)))
        fam = dyadic_descendants(GridCube((0, 0), 8)).with_averages(f)
        with pytest.raises(InvariantViolated, match="at level "):
            theorem_main_evaluate(f, fam, deep=False)

    def test_nan_average_rejected(self):
        # the cubes that hold the NaN cell average to NaN; a NaN breakpoint
        # would make both sides NaN, so the evaluator stops
        vals = np.arange(16.0).reshape(4, 4)
        vals[0, 0] = np.nan
        f = grid_from_array(vals)
        fam = dyadic_descendants(GridCube((0, 0), 4)).with_averages(f)
        with pytest.raises(PremiseViolated, match=r"side=4\) has the non-finite average nan"):
            theorem_main_evaluate(f, fam, deep=False)

    def test_indicator_cross_check_direct_sums(self):
        # one hot cell, full dyadic family on an 8x8 grid: recompute both
        # integrals from scratch with direct set arithmetic
        dims = (8, 8)
        vals = (np.arange(64).reshape(dims) == 27).astype(float)
        f = grid_from_array(vals)
        fam = dyadic_descendants(GridCube((0, 0), 8)).with_averages(f)
        rep = theorem_main_evaluate(f, fam, deep=True)

        avgs = np.asarray(fam.averages)
        bps = lambda_breakpoints(f, avgs)
        union_all = fam.union_pixels(dims)
        want_lhs = want_rhs = 0.0
        for i in range(1, bps.size):
            lam = bps[i]
            level = superlevel(f, lam)
            sel = CubeFamily([c for c, a in zip(fam.cubes, avgs) if a >= lam])
            u = sel.union_pixels(dims)
            faces = 0
            for ax in range(2):
                um = np.moveaxis(u.mask, ax, 0)
                lm = np.moveaxis(level.mask, ax, 0)
                faces += int(np.sum(um[:-1] & ~um[1:] & ~lm[:-1] & ~lm[1:]))
                faces += int(np.sum(um[1:] & ~um[:-1] & ~lm[1:] & ~lm[:-1]))
            want_lhs += (bps[i] - bps[i - 1]) * faces
            want_rhs += (bps[i] - bps[i - 1]) * perimeter(level, mask=union_all)
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(want_rhs, rel=1e-12)

    def test_reduction_does_not_change_sides(self, rng):
        # evaluating on the family or on its maximal reduction gives the same
        # integrals; the evaluator reduces internally, so compare against a
        # direct sweep over the unreduced family
        dims = (8, 8)
        f = grid_from_array(rng.integers(0, 4, dims).astype(float))
        seeds = [GridCube((0, 0), 8), GridCube((2, 2), 2), GridCube((5, 1), 1)]
        from cubemax import dyadic_completion
        fam = dyadic_completion(CubeFamily(seeds)).with_averages(f)
        rep = theorem_main_evaluate(f, fam, deep=False)
        avgs = np.asarray(fam.averages)
        bps = lambda_breakpoints(f, avgs)
        union_all = fam.union_pixels(dims)
        want_lhs = 0.0
        for i in range(1, bps.size):
            lam = bps[i]
            level = superlevel(f, lam)
            sel = CubeFamily([c for c, a in zip(fam.cubes, avgs) if a >= lam])
            u = sel.union_pixels(dims)
            faces = 0
            for ax in range(2):
                um = np.moveaxis(u.mask, ax, 0)
                lm = np.moveaxis(level.mask, ax, 0)
                faces += int(np.sum(um[:-1] & ~um[1:] & ~lm[:-1] & ~lm[1:]))
                faces += int(np.sum(um[1:] & ~um[:-1] & ~lm[1:] & ~lm[:-1]))
            want_lhs += (bps[i] - bps[i - 1]) * faces
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_instances_finite_and_capped(self, rng, d):
        from cubemax.generators import random_complete_family, simple_function
        grid = {1: 32, 2: 16, 3: 8}[d]
        for k in range(6):
            f = simple_function(rng, (grid,) * d)
            fam = random_complete_family(rng, (grid,) * d, 5).with_averages(f)
            rep = theorem_main_evaluate(f, fam, deep=(k == 0))
            assert rep.lhs >= 0 and rep.rhs >= 0
            if rep.rhs > 0:
                assert rep.ratio <= DEFAULT_RATIO_CAPS[d]

    def test_per_lambda_table_consistent(self, rng):
        from cubemax.generators import random_complete_family, simple_function
        f = simple_function(rng, (16, 16))
        fam = random_complete_family(rng, (16, 16), 6).with_averages(f)
        rep = theorem_main_evaluate(f, fam, deep=False)
        gaps = np.diff(rep.lam_table["lam"])
        lhs_again = float(np.sum(gaps * rep.lam_table["lhs"][1:]))
        assert lhs_again == pytest.approx(rep.lhs, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_matches_direct_partition_path(self, rng, d):
        # the evaluator counts each face on its interval of levels; the
        # oracle rebuilds every level from scratch.  Each per-level table
        # entry is an integer face count and must equal the oracle's
        # exactly, and so must the high-density ratio built from them.
        # NaN-masked cells take averages over the unmasked cells (0 for a
        # cube with none).
        from cubemax import maximal_cube_reduction
        from cubemax.generators import random_complete_family, simple_function
        from conftest import partition_from_scratch

        grid = {1: 48, 2: 12, 3: 6}[d]
        dims = (grid,) * d
        for masked in (0.0, 0.0, 0.0, 0.3, 0.6, 0.9):
            vals = simple_function(rng, dims).array.copy()
            vals[rng.random(dims) < masked] = np.nan
            f = grid_from_array(vals)
            fam = random_complete_family(rng, dims, 5)
            fam = CubeFamily(fam.cubes, np.array(
                [np.nanmean(vals[c.slices()]) if np.isfinite(vals[c.slices()]).any() else 0.0
                 for c in fam.cubes]))
            rep = theorem_main_evaluate(f, fam, deep=False)
            red = maximal_cube_reduction(fam, f)
            full_union = red.union_pixels(f.dims)
            lams = rep.lam_table["lam"]
            hd_ratios = [0.0]
            for k in range(1, lams.size):
                p = partition_from_scratch(f, red, lams[k])
                assert (len(p.q0), len(p.q1), len(p.q2)) == (
                    rep.lam_table["n_q0"][k], rep.lam_table["n_q1"][k], rep.lam_table["n_q2"][k])
                faces = (boundary_faces_outside(p.union_all, p.level),
                         boundary_faces_outside(p.union_q01, p.level),
                         perimeter(p.union_q2),
                         perimeter(p.level, mask=full_union))
                assert faces == (rep.lam_table["lhs"][k], rep.lam_table["term1"][k],
                                 rep.lam_table["term2"][k], rep.lam_table["f_boundary"][k])
                den = perimeter(p.level, mask=p.union_all)
                hd_ratios.append(faces[1] / den if den else (0.0 if faces[1] == 0 else np.inf))
            finite = [r for r in hd_ratios if np.isfinite(r)]
            assert rep.subterms["high_density_ratio_max"] == (max(finite) if finite else 0.0)
            # the interval ending at the lowest breakpoint is empty
            assert all(rep.lam_table[key][0] == 0 for key in (
                "lhs", "term1", "term2", "f_boundary", "n_q0", "n_q1", "n_q2"))

    def test_q01_face_against_a_q2_only_cell(self):
        # cells 4..7 form a q0 cube up to 1.25 and cells 8..15 a q2 cube up
        # to 2; the face between cells 7 and 8 bounds the q0+q1 union outside
        # the level set while its outer cell lies in the full union
        from conftest import per_level_columns

        vals = np.zeros(16)
        vals[4], vals[15] = 5.0, 16.0
        f = grid_from_array(vals)
        fam = CubeFamily([GridCube((4,), 4), GridCube((8,), 8)]).with_averages(f)
        rep = theorem_main_evaluate(f, fam, deep=False)
        assert list(rep.lam_table["lam"]) == [0.0, 1.25, 2.0, 5.0, 16.0]
        assert list(rep.lam_table["term1"]) == [0, 1, 0, 0, 0]
        assert list(rep.lam_table["term2"]) == [0, 1, 1, 0, 0]
        assert list(rep.lam_table["lhs"]) == [0, 0, 1, 0, 0]
        want = per_level_columns(f, fam, rep.lam_table["lam"])
        for key in ("lhs", "term1", "term2", "f_boundary"):
            assert np.array_equal(rep.lam_table[key], getattr(want, key))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_columns_match_per_level_loop(self, rng, d):
        # the interval columns against the per-breakpoint loop they replace,
        # float for float, with the float columns the per-level table writes
        from cubemax import maximal_cube_reduction
        from cubemax.generators import make_function, random_complete_family
        from conftest import per_level_columns

        dims = ({1: 64, 2: 16, 3: 8}[d],) * d
        for cls in ("simple", "spikes", "random-smooth", "indicator"):
            f = make_function(rng, cls, dims)
            fam = random_complete_family(rng, dims, 5).with_averages(f)
            rep = theorem_main_evaluate(f, fam, deep=False)
            bps = rep.lam_table["lam"]
            want = per_level_columns(f, maximal_cube_reduction(fam, f), bps)
            for key in ("n_q0", "n_q1", "n_q2"):
                assert np.array_equal(rep.lam_table[key], getattr(want, key))
            for key in ("lhs", "term1", "term2", "f_boundary"):
                assert rep.lam_table[key].dtype == np.float64
                assert np.array_equal(rep.lam_table[key], getattr(want, key))
            finite = want.hd_ratios[np.isfinite(want.hd_ratios)]
            assert rep.subterms["high_density_ratio_max"] == float(np.max(finite))


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_face_columns_match_directed_oracle(d, data):
    # each face read once against both orientations read apart, count for
    # count: NaN cells, signed zeros, cells from a few values (so averages
    # and rank levels tie with cells and with each other), and families of
    # 0, 1, 2 or 6 members, some with NaN averages
    arr, rng = draw_nan_cells(data, d, {1: 48, 2: 10, 3: 5})
    if data.draw(st.booleans(), label="few values"):
        cells = ~np.isnan(arr)
        arr[cells] = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], int(cells.sum()))
    f = grid_from_array(arr)
    members = data.draw(st.sampled_from([0, 1, 2, 6]), label="members")
    fam = random_family(rng, f.dims, members, pow2=False).with_averages(f)
    split = density_levels(f, fam)
    finite = np.isfinite(fam.averages)
    bps = lambda_breakpoints(f, np.append(fam.averages[finite], 0.0))
    union = fam.union_pixels(f.dims).mask
    got = estimates._level_face_columns(f, split, union, bps)
    assert got.dtype == np.int64
    assert got.tobytes() == directed_face_columns(f, split, union, bps).tobytes()
    # the evaluator's union: members with finite averages are where the
    # paint of the averages is above -inf
    assert np.array_equal(split.paint_all > -np.inf,
                          fam.select(finite).union_pixels(f.dims).mask)


class TestAncestorMax:
    @pytest.mark.parametrize("d, side", [(1, 16), (2, 8), (3, 4), (2, 1)])
    def test_max_over_containing_cubes(self, rng, d, side):
        dy = dyadic_descendants(GridCube(tuple(range(3, 3 + d)), side))
        avgs = rng.integers(0, 9, len(dy)).astype(float)
        avgs[rng.random(len(dy)) < 0.2] = np.nan
        got = estimates._ancestor_max(dy, avgs)
        for c, g in zip(dy.cubes, got):
            chain = [a for q, a in zip(dy.cubes, avgs) if cube_holds(q, c) and not np.isnan(a)]
            assert g == max(chain) if chain else np.isnan(g)
