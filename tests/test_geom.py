import math

import numpy as np
import pytest

from conftest import (
    kdtree_blowup_hits,
    scalar_boundary_length_in_disk,
    scalar_cone_heights,
    scalar_cover_margin,
    scalar_large_boundary,
    scalar_min_angle_check,
    scalar_rotation_2d,
    scalar_rotation_3d,
)
from cubemax import geom
from cubemax.errors import CubemaxError, SearchExhausted
from cubemax.geom import (
    _COVER_BLOCK,
    BlowupResult,
    OrientedCube,
    boundary_length_in_disk,
    cube_angle_check,
    cube_cover_check,
    large_boundary_in_ball_check,
    lipschitz_blowup_check,
    min_angle_check,
    min_angle_search,
    rotation_2d,
    rotation_3d,
)


class TestCubeAngle:
    def test_face_center_angle_zero(self):
        x = np.array([1.0, 0.0])
        e = np.array([1.0, 0.0])
        cos = np.dot(x, e) / np.linalg.norm(x)
        assert math.acos(min(1.0, cos)) == 0.0

    def test_corner_attains_bound_exactly(self):
        # corner (1,1) against the face normal (1,0): angle pi/4
        ang = math.acos(1.0 / math.sqrt(2.0))
        bound = math.pi / 2 - math.asin(1.0 / math.sqrt(2.0))
        assert ang == pytest.approx(bound, abs=1e-15)
        assert cube_angle_check(2, 5000) == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_bound_never_exceeded(self, d):
        bound = math.pi / 2 - math.asin(1.0 / math.sqrt(d))
        assert cube_angle_check(d, 20000, seed=3) <= bound + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_angle_to_face_normal(self, d, seed):
        # the same points through the general angle formula against e_0
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.uniform(-1.0, 1.0, size=(3000, d)), geom._corners(d)])
        pts[:, 0] = 1.0
        e = np.broadcast_to(np.eye(d)[0], pts.shape)
        cos = np.sum(pts * e, axis=-1) / (np.linalg.norm(pts, axis=-1) * np.linalg.norm(e, axis=-1))
        assert cube_angle_check(d, 3000, seed=seed) == float(np.arccos(np.clip(cos, -1.0, 1.0)).max())

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        # the corners alone would attain the bound exactly
        with pytest.raises(ValueError):
            cube_angle_check(2, samples)


class TestMinAngle:
    def test_center_points_trivial(self):
        # y1 = y2 = 0 reduces to the angle between the viewpoints themselves
        x1 = np.array([10.0, 0.0])
        x2 = np.array([10.0, 1.0])
        eps = math.atan2(1.0, 10.0)
        ang = math.acos(np.dot(-x1, -x2) / (np.linalg.norm(x1) * np.linalg.norm(x2)))
        assert ang <= 2 * eps

    def test_shrinks_with_distance(self):
        y1, y2 = np.array([0.5, 0.0]), np.array([-0.5, 0.0])
        for N in (2, 8, 32):
            x = np.array([float(N + 1), 0.0])
            v1, v2 = y1 - x, y2 - x
            ang = math.acos(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
            assert ang <= 2.0 / N

    @pytest.mark.parametrize("d", [2, 3])
    def test_search_records_passing_n(self, d):
        eps = math.asin(1.0 / math.sqrt(d)) / 2
        n = min_angle_search(eps, 3000, d=d, seed=5)
        assert n >= 1
        assert min_angle_check(eps, n, 3000, d=d, seed=5)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [2, 5])
    def test_check_matches_reseeded_oracle(self, d, seed):
        # the distances reproduce Generator.uniform(N+1, 4(N+1)) from unit draws
        for eps in (0.01, 0.05, math.asin(1.0 / math.sqrt(d)) / 2):
            for N in (1, 2, 3, 7, 2.5, 50, 1000):
                assert min_angle_check(eps, N, 400, d=d, seed=seed) == \
                    scalar_min_angle_check(eps, N, 400, d=d, seed=seed)

    @pytest.mark.parametrize("d", [2, 3])
    def test_search_matches_a_reseeding_search(self, d):
        # the search that re-drew its samples for every candidate N
        # at eps = 0.05 the smallest passing N (about 20) differs from seed to seed
        eps, trials, seed = 0.05, 600, 5
        passing = [n for n in range(1, 48) if scalar_min_angle_check(eps, n, trials, d, seed)]
        n = min_angle_search(eps, trials, d=d, seed=seed)
        assert n == passing[0] and passing == list(range(n, 48))
        assert n != min_angle_search(eps, trials, d=d, seed=seed + 1)

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -0.1}, {"eps": math.nan}, {"eps": math.inf},
        {"trials": 0}, {"trials": -5},
    ])
    def test_invalid_search_input_rejected(self, kwargs):
        args = {"eps": 0.05, "trials": 100, **kwargs}
        with pytest.raises(ValueError):
            min_angle_search(**args)

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -0.1}, {"eps": math.nan}, {"eps": math.inf},
        {"trials": 0}, {"trials": -5},
    ])
    def test_invalid_check_input_rejected(self, kwargs):
        # zero trials would pass vacuously
        args = {"eps": 0.05, "N": 5, "trials": 100, **kwargs}
        with pytest.raises(ValueError):
            min_angle_check(**args)

    def test_exhausted_search_is_typed(self):
        # N = 1 fails at eps = 0.01, and n_max = 1 allows no doubling
        assert not min_angle_check(0.01, 1, 500, seed=2)
        with pytest.raises(SearchExhausted) as err:
            min_angle_search(0.01, 500, seed=2, n_max=1)
        assert isinstance(err.value, CubemaxError)


class TestCubeCover:
    def test_identical_cube_contained(self):
        q = OrientedCube((0.0, 0.0), 1.0, rotation_2d(0.3))
        verts = q.vertices()
        assert q.contains(verts - 1e-12 * np.sign(verts), dilation=1.0 + 1e-9).all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_failures_with_derived_delta(self, d):
        res = cube_cover_check(0.1, 20000, d=d, seed=11)
        assert res.failures == 0
        assert res.delta == pytest.approx(0.1 / (2 + 2 * math.sqrt(d)))
        assert res.min_margin > 0

    def test_stress_trials_at_limits_pass(self):
        res = cube_cover_check(0.05, 8000, d=2, seed=1)
        assert res.failures == 0
        # the default draws stress every fourth trial
        draws = geom._draw_cover_block(np.random.default_rng(1), 0, 8000, 2)
        assert np.array_equal(np.all(draws.frac == 1.0, axis=1), np.arange(8000) % 4 == 0)

    def test_nan_margin_is_a_failure(self, monkeypatch):
        # one NaN margin per block: each counts as a failure and min_margin is NaN
        real = geom._cover_margins

        def with_nan(draws, eps, delta):
            margin = real(draws, eps, delta)
            margin[3] = np.nan
            return margin

        monkeypatch.setattr(geom, "_cover_margins", with_nan)
        res = cube_cover_check(0.1, 5000, d=2, seed=0)
        assert res.failures == 2
        assert math.isnan(res.min_margin)

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -0.1}, {"eps": math.nan}, {"eps": math.inf},
        {"trials": 0}, {"trials": -5},
    ])
    def test_invalid_input_rejected(self, kwargs):
        args = {"eps": 0.1, "trials": 100, **kwargs}
        with pytest.raises(ValueError):
            cube_cover_check(**args)


class TestCubeCoverBlocks:
    """The block evaluation against the per-trial oracle on the same draws."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_margins_match_per_trial_oracle(self, d):
        # the oracle enumerates the vertices, with the unperturbed cube axis-aligned
        draws = geom._draw_cover_block(np.random.default_rng(7), 4097, 500, d)
        # a dilate of 1.04 is too tight for delta(0.1), so margins of both signs occur
        for eps in (0.1, 0.04):
            delta = 0.1 / (2 + 2 * math.sqrt(d))
            got = geom._cover_margins(draws, eps, delta)
            want = np.array([scalar_cover_margin(draws, t, eps, delta) for t in range(500)])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (want < 0).any() and (want > 0).any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_margin_is_rotation_invariant(self, d):
        # a randomly turned unperturbed cube sees the shift and the turn axis
        # turned with it: the oracle with rot_q equals the library's margin on
        # the draws (shift rot_q, axis_p rot_q)
        draws = geom._draw_cover_block(np.random.default_rng(12), 4097, 400, d)
        rng = np.random.default_rng(13)
        if d == 2:
            rot_q = np.array([scalar_rotation_2d(a) for a in rng.uniform(0, 2 * math.pi, 400)])
        else:
            rot_q = np.array([scalar_rotation_3d(ax, a) for ax, a in
                              zip(rng.normal(size=(400, 3)), rng.uniform(0, 2 * math.pi, 400))])
        turned = draws._replace(
            shift=np.einsum("tj,tjk->tk", draws.shift, rot_q),
            axis_p=None if d == 2 else np.einsum("tj,tjk->tk", draws.axis_p, rot_q))
        delta = 0.1 / (2 + 2 * math.sqrt(d))
        for eps in (0.1, 0.04):
            got = geom._cover_margins(turned, eps, delta)
            want = np.array([scalar_cover_margin(draws, t, eps, delta, rot_q=rot_q[t])
                             for t in range(400)])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (want < 0).any() and (want > 0).any()

    @pytest.mark.parametrize("trials", [1, 3, 4095, 4096, 4097, 8193])
    def test_block_edges(self, trials):
        assert _COVER_BLOCK == 4096
        d, eps, seed = 2, 0.1, 5
        delta = eps / (2 + 2 * math.sqrt(d))
        rng = np.random.default_rng(seed)
        margins, stressed = [], []
        for start in range(0, trials, _COVER_BLOCK):
            draws = geom._draw_cover_block(rng, start, min(_COVER_BLOCK, trials - start), d)
            margins += [scalar_cover_margin(draws, t, eps, delta) for t in range(len(draws.s_q))]
            stressed.append(np.all(draws.frac == 1.0, axis=1))
        res = cube_cover_check(eps, trials, d=d, seed=seed)
        assert res.failures == sum(m < 0 for m in margins) == 0
        assert res.min_margin == pytest.approx(min(margins), rel=0, abs=1e-12)
        assert np.array_equal(np.concatenate(stressed), np.arange(trials) % 4 == 0)

    @staticmethod
    def _draws(d, s_q, frac, shift, axis=(0.0, 0.0, 1.0)):
        axes = np.tile(axis, (len(s_q), 1)) if d == 3 else None
        return geom._CoverDraws(np.asarray(s_q, dtype=float), np.asarray(frac, dtype=float),
                                np.asarray(shift, dtype=float), axes)

    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_only_margin(self, d):
        # aligned, same size, no turn: margin = eps s/2 - max_j |shift_j|
        eps, delta = 0.1, 0.02
        shifts = np.random.default_rng(d).normal(size=(5, d))
        s_q = np.array([0.5, 1.0, 1.3, 2.0, 0.7])
        frac = np.column_stack([np.zeros(5), [0.0, 0.3, 0.5, 1.0, 0.9], np.zeros(5)])
        draws = self._draws(d, s_q, frac, shifts)
        shift = shifts * (delta * s_q * frac[:, 1] / np.linalg.norm(shifts, axis=1))[:, None]
        want = eps * s_q / 2 - np.abs(shift).max(axis=1)
        got = geom._cover_margins(draws, eps, delta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        for t in range(5):
            assert got[t] == pytest.approx(scalar_cover_margin(draws, t, eps, delta),
                                           rel=0, abs=1e-15)

    def test_turn_only_margin_d2(self):
        # a turn by theta in [0, pi/2]: margin = (1+eps) s/2 - (s/2)(cos theta + sin theta)
        eps, delta = 0.1, 0.5
        f_angle = np.array([0.0, 0.1, 0.4, 1.0, 2.0, math.pi / 2])  # theta = delta * f_angle
        s_q = np.linspace(0.5, 2.0, 6)
        frac = np.column_stack([np.zeros(6), np.zeros(6), f_angle])
        draws = self._draws(2, s_q, frac, np.ones((6, 2)))
        theta = delta * f_angle
        want = (1 + eps) * s_q / 2 - s_q / 2 * (np.cos(theta) + np.sin(theta))
        got = geom._cover_margins(draws, eps, delta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # turns in the plane commute, so a turned unperturbed cube gives the same margins
        for angle_q in (0.0, 0.9):
            rot_q = scalar_rotation_2d(angle_q)
            for t in range(6):
                assert got[t] == pytest.approx(scalar_cover_margin(draws, t, eps, delta, rot_q),
                                               rel=0, abs=1e-15)
        # theta = pi/4 puts a vertex on the diagonal
        assert want[-1] == pytest.approx(eps * s_q[-1] / 2 - (math.sqrt(2) - 1) * s_q[-1] / 2)

    def test_turn_only_margin_d3(self):
        # a turn by theta in [0, pi/2] about e_z: rows of |R| sum to cos + sin,
        # cos + sin and 1, so margin = (1+eps) s/2 - (s/2)(cos theta + sin theta)
        eps, delta = 0.1, 0.5
        f_angle = np.array([0.0, 0.1, 0.4, 1.0, 2.0, math.pi / 2])  # theta = delta * f_angle
        s_q = np.linspace(0.5, 2.0, 6)
        frac = np.column_stack([np.zeros(6), np.zeros(6), f_angle])
        draws = self._draws(3, s_q, frac, np.ones((6, 3)), axis=(0.0, 0.0, 2.0))
        theta = delta * f_angle
        want = (1 + eps) * s_q / 2 - s_q / 2 * (np.cos(theta) + np.sin(theta))
        got = geom._cover_margins(draws, eps, delta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # an unperturbed cube turned about e_z as well gives the same margins
        for angle_q in (0.0, 0.9):
            rot_q = scalar_rotation_3d((0.0, 0.0, 1.0), angle_q)
            for t in range(6):
                assert got[t] == pytest.approx(scalar_cover_margin(draws, t, eps, delta, rot_q),
                                               rel=0, abs=1e-15)

    def test_stress_follows_the_global_trial_index(self):
        draws = geom._draw_cover_block(np.random.default_rng(3), 4097, 4096, 3)
        limit = (4097 + np.arange(4096)) % 4 == 0
        assert np.array_equal(np.all(draws.frac == 1.0, axis=1), limit)
        # random() never returns 1, so no other trial has a fraction at its limit
        assert not np.any(draws.frac[~limit] == 1.0)


class TestLipschitzBlowup:
    def test_flat_segment_analytic(self):
        # neighborhood of a length-l segment: area 2*eps*l + pi*eps^2, below
        # the bound with constant 4
        l, eps = 1.0, 0.1
        area = 2 * eps * l + math.pi * eps * eps
        assert area <= 4 * (l + eps) * (1 + 0) * eps

    def test_mc_below_bound_with_c4(self):
        res = lipschitz_blowup_check(1.0, 1.0, 0.1, 100_000, d=2, seed=2)
        assert res.estimate + 5 * res.stderr <= res.bound

    def test_eps_trend_bounded(self):
        vals = []
        for eps in (0.2, 0.1, 0.05):
            res = lipschitz_blowup_check(0.5, 1.0, eps, 60_000, d=2, seed=4)
            vals.append(res.estimate / eps)
        assert max(vals) <= 4 * (1.0 + 0.2) * 1.5

    def test_d3_runs(self):
        res = lipschitz_blowup_check(1.0, 1.0, 0.15, 40_000, d=3, seed=6)
        assert res.estimate <= res.bound

    def test_exceeded_bound_is_returned_not_raised(self):
        res = lipschitz_blowup_check(1.0, 1.0, 0.1, 10_000, d=2, seed=2, constant=1e-6)
        assert isinstance(res, BlowupResult)
        assert res.estimate + 5 * res.stderr > res.bound

    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0}, {"eps": -0.1}, {"eps": math.nan}, {"eps": math.inf},
        {"L": -1.0}, {"L": math.nan}, {"L": math.inf},
        {"diam": 0.0}, {"diam": math.nan},
        {"mc_samples": 0}, {"mc_samples": -5},
    ])
    def test_invalid_input_rejected(self, kwargs):
        args = {"L": 1.0, "diam": 1.0, "eps": 0.1, "mc_samples": 1000, **kwargs}
        with pytest.raises(ValueError):
            lipschitz_blowup_check(**args)


class TestBlowupNeighbourSearch:
    """The index-window search decides every sample exactly as a k-d tree
    over the whole mesh does."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_hits_equal_kdtree(self, d, L, eps):
        n = 20_000 if d == 2 else 3_000
        for seed in (0, 1, 2):
            draws = geom._draw_blowup(L, 1.0, eps, n, d, seed)
            hits = geom._graph_hits(draws, L, eps)
            np.testing.assert_array_equal(hits, kdtree_blowup_hits(draws, eps))
            assert 0 < hits.sum() < n

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("L", [0.0, 1.0, 3.0])
    def test_clipped_windows(self, d, L):
        # samples whose horizontal coordinates lie in [-eps, 0) or beyond the
        # last mesh point, within eps of the graph's edge in height
        eps = 0.1
        draws = geom._draw_blowup(L, 1.0, eps, 1, d, 4)
        rng = np.random.default_rng(11)
        n, du, last = 4000, d - 1, draws.grid[-1]
        u = rng.uniform(0.0, last, size=(n, du))
        side = rng.integers(0, du, size=n)
        edge = np.where(rng.random(n) < 0.5, rng.uniform(-eps, 0.0, n),
                        rng.uniform(np.nextafter(last, np.inf), last + eps, n))
        u[np.arange(n), side] = edge
        z = draws.heights(np.clip(u, 0.0, last)) + rng.uniform(-1.2 * eps, 1.2 * eps, n)
        draws = draws._replace(x=np.column_stack([u, z]))
        hits = geom._graph_hits(draws, L, eps)
        np.testing.assert_array_equal(hits, kdtree_blowup_hits(draws, eps))
        assert 0 < hits.sum() < n

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("L", [0.0, 1.0, 3.0])
    def test_heights_equal_scalar_oracle(self, d, L):
        # the k-d tree oracle reads mesh_z from the library's own heights, so
        # the heights are checked on their own, bit for bit
        draws = geom._draw_blowup(L, 1.0, 0.1, 2000, d, 5)
        cone = draws.heights.keywords
        du = d - 1
        mesh = np.stack([g.ravel() for g in np.meshgrid(*[draws.grid] * du, indexing="ij")],
                        axis=1)
        want = scalar_cone_heights(mesh, cone["anchors"], cone["offsets"], L)
        np.testing.assert_array_equal(draws.mesh_z.ravel(), want)
        np.testing.assert_array_equal(
            draws.heights(draws.x[:, :du]),
            scalar_cone_heights(draws.x[:, :du], cone["anchors"], cone["offsets"], L))

    def test_unchanged_estimate_at_suite_config(self):
        # the geom suite's call at seed 0: every sample decided as the tree does
        draws = geom._draw_blowup(1.0, 1.0, 0.1, 100_000, 2, 0)
        hits = kdtree_blowup_hits(draws, 0.1)
        res = lipschitz_blowup_check(1.0, 1.0, 0.1, 100_000, d=2, seed=0)
        assert res.estimate == draws.box_vol * hits.mean()


class TestLargeBoundary:
    def test_empty_family_zero(self):
        assert boundary_length_in_disk([]) == 0.0

    def test_single_big_square_small_ratio(self):
        # one huge square whose edge cuts the disk: a single chord
        sq = OrientedCube((0.0, 50.0), 100.0, rotation_2d(0.0))
        length = boundary_length_in_disk([sq])
        assert length == pytest.approx(2.0)

    def test_covered_edge_not_counted(self):
        a = OrientedCube((0.0, 5.0), 10.0, rotation_2d(0.0))
        b = OrientedCube((0.0, 0.0), 10.0, rotation_2d(0.0))  # covers a's edge
        assert boundary_length_in_disk([a, b]) < boundary_length_in_disk([a]) + \
            boundary_length_in_disk([b])

    def test_suite_max_ratio_finite(self):
        res = large_boundary_in_ball_check(1.0, 200, seed=8)
        assert math.isfinite(res.max_ratio)

    def test_nan_length_reaches_max_ratio(self, monkeypatch):
        # a NaN length in the first group measured is not masked by later groups
        real = geom._boundary_lengths
        calls = []

        def with_nan(centers, sides, rots, radius):
            lengths = real(centers, sides, rots, radius)
            if not calls:
                lengths[0] = np.nan
            calls.append(len(lengths))
            return lengths

        monkeypatch.setattr(geom, "_boundary_lengths", with_nan)
        res = large_boundary_in_ball_check(1.0, 200, seed=8)
        assert len(calls) > 1
        assert math.isnan(res.max_ratio)

    @pytest.mark.parametrize("kwargs", [
        {"K": 0.0}, {"K": -1.0}, {"K": math.nan}, {"K": math.inf},
        {"trials": 0}, {"trials": -5},
    ])
    def test_invalid_input_rejected(self, kwargs):
        args = {"K": 1.0, "trials": 50, **kwargs}
        with pytest.raises(ValueError):
            large_boundary_in_ball_check(**args)

    @staticmethod
    def _random_union(rng, n, turn=None):
        return [OrientedCube(tuple(rng.normal(size=2)), float(rng.uniform(0.3, 4.0)),
                             rotation_2d(rng.uniform(0, 2 * math.pi) if turn is None else turn))
                for _ in range(n)]

    def test_random_unions_match_scalar_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(60):
            squares = self._random_union(rng, 1 + k % 11, turn=0.4 if k % 3 == 0 else None)
            want = scalar_boundary_length_in_disk(squares)
            assert boundary_length_in_disk(squares) == pytest.approx(want, rel=1e-12, abs=1e-12)

    # axis-aligned squares on dyadic coordinates: every clip is exact, so
    # edges lying on other squares' edges fall the same way in both codes
    @pytest.mark.parametrize("spec", [
        [((0.25, 0.5), 1.5), ((0.25, 0.5), 1.5)],
        [((0.25, 0.5), 1.5), ((0.25, 0.5), 1.5), ((0.25, 0.5), 1.5)],
        [((0.75, 0.0), 3.0), ((0.25, -0.25), 1.0), ((0.25, -0.25), 0.5)],
        [((-0.5, 0.0), 1.0), ((0.5, 0.0), 1.0), ((0.5, 0.25), 1.0)],
        [((-0.5, 0.0), 1.0), ((0.5, 0.5), 2.0), ((0.0, -0.75), 0.5)],
        [((5.0, 5.0), 1.0), ((-4.0, 0.0), 2.0)],
        [((5.0, 5.0), 1.0), ((0.0, 0.0), 1.0)],
    ], ids=["identical", "identical-three", "nested", "shared-edge-lines",
            "touching-parallel", "all-miss-disk", "one-misses-disk"])
    def test_degenerate_unions_match_scalar_oracle(self, spec):
        squares = [OrientedCube(c, side, rotation_2d(0.0)) for c, side in spec]
        want = scalar_boundary_length_in_disk(squares)
        assert boundary_length_in_disk(squares) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_rotated_nested_squares_add_no_boundary(self):
        # one edge of the outer square crosses the disk; the inner ones lie inside it
        outer = OrientedCube((1.22, 0.87), 4.0, rotation_2d(0.7))
        inner = OrientedCube((0.3, 0.1), 0.8, rotation_2d(0.7))
        tilted = OrientedCube((0.3, 0.1), 0.8, rotation_2d(1.9))
        assert boundary_length_in_disk([inner, tilted]) > 1.0
        got = boundary_length_in_disk([outer, inner, tilted])
        assert got > 1.0
        assert got == pytest.approx(scalar_boundary_length_in_disk([outer, inner, tilted]), rel=1e-12)
        assert got == pytest.approx(scalar_boundary_length_in_disk([outer]), rel=1e-12)

    def test_suite_matches_scalar_oracle(self):
        for K, trials, seed in ((1.0, 60, 8), (2.0, 80, 3), (0.5, 80, 11)):
            got = large_boundary_in_ball_check(K, trials, seed=seed)
            assert got.max_ratio == pytest.approx(scalar_large_boundary(K, trials, seed), rel=1e-12)

    @staticmethod
    def _stack_of_unions(rng, n):
        """Six unions of n squares: axis-aligned ones, one where a big square
        holds the others, one that misses the disk, and three turned at random."""
        centers = rng.normal(size=(6, n, 2))
        sides = rng.uniform(0.3, 4.0, (6, n))
        thetas = rng.uniform(0, 2 * math.pi, (6, n))
        thetas[0] = 0.0
        centers[1, 0], sides[1, 0] = (0.5, 0.5), 40.0
        centers[1, 1:] = rng.uniform(-1.0, 1.0, (n - 1, 2))
        sides[1, 1:] = rng.uniform(0.2, 1.0, n - 1)
        centers[2] += 20.0
        return centers, sides, thetas

    @pytest.mark.parametrize("n", range(1, 12))
    def test_stacked_lengths_equal_one_union_calls(self, n):
        centers, sides, thetas = self._stack_of_unions(np.random.default_rng(n), n)
        rots = rotation_2d(thetas)
        got = geom._boundary_lengths(centers, sides, rots, 1.0)
        assert got.shape == (6,)
        for t in range(6):
            squares = [OrientedCube(tuple(c), float(s), r)
                       for c, s, r in zip(centers[t], sides[t], rots[t])]
            assert got[t] == boundary_length_in_disk(squares)
            assert got[t] == pytest.approx(scalar_boundary_length_in_disk(squares),
                                           rel=1e-12, abs=1e-12)
        assert got[2] == 0.0
        # the big square's edges miss the disk and the small ones lie inside it
        assert got[1] == 0.0
        if n > 1:
            inner = geom._boundary_lengths(centers[1:2, 1:], sides[1:2, 1:], rots[1:2, 1:], 1.0)
            assert inner[0] > 0.0


class TestRotations:
    def test_orthogonality(self):
        r2 = rotation_2d(0.7)
        assert np.allclose(r2 @ r2.T, np.eye(2), atol=1e-15)
        r3 = rotation_3d(np.array([1.0, 2.0, -0.5]), 1.1)
        assert np.allclose(r3 @ r3.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r3) == pytest.approx(1.0)

    def test_broadcast_rotation_3d_matches_scalar_calls(self):
        rng = np.random.default_rng(4)
        axes = rng.normal(size=(4, 5, 3))
        thetas = rng.uniform(0, 2 * math.pi, (4, 5))
        rots = rotation_3d(axes, thetas)
        assert rots.shape == (4, 5, 3, 3)
        for idx in np.ndindex(4, 5):
            np.testing.assert_allclose(rots[idx], rotation_3d(axes[idx], thetas[idx]),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(rots[idx], scalar_rotation_3d(axes[idx], thetas[idx]),
                                       rtol=0, atol=1e-15)
        eye = np.broadcast_to(np.eye(3), rots.shape)
        np.testing.assert_allclose(rots @ np.swapaxes(rots, -1, -2), eye, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(rots), 1.0, rtol=0, atol=1e-12)

    def test_broadcast_rotation_2d_matches_scalar_calls(self):
        thetas = np.random.default_rng(5).uniform(0, 2 * math.pi, 50)
        rots = rotation_2d(thetas)
        assert rots.shape == (50, 2, 2) and rotation_2d(0.3).shape == (2, 2)
        for t, r in zip(thetas, rots):
            assert np.array_equal(r, rotation_2d(t))
            np.testing.assert_allclose(r, scalar_rotation_2d(t), rtol=0, atol=1e-15)

    def test_one_axis_many_angles(self):
        rots = rotation_3d(np.array([0.0, 0.0, 2.0]), np.array([0.0, math.pi / 2]))
        np.testing.assert_allclose(rots[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(rots[1], [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


class TestOrientedCube:
    def test_scaled_rotation_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            OrientedCube((0.0, 0.0), 1.0, rotation_2d(0.3) * (1 + 4e-6))

    def test_rotations_accepted(self):
        rng = np.random.default_rng(6)
        for t in rng.uniform(0, 2 * math.pi, 200):
            OrientedCube((0.0, 0.0), 1.0, rotation_2d(t))
        for axis, t in zip(rng.normal(size=(200, 3)), rng.uniform(0, 2 * math.pi, 200)):
            OrientedCube((0.0, 0.0, 0.0), 1.0, rotation_3d(axis, t))
