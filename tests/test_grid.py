from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import (
    GridFunction,
    PixelSet,
    grid_from_array,
    integrate_breakpoints,
    lambda_breakpoints,
    perimeter,
    superlevel,
    variation,
)
from cubemax.errors import DimensionMismatch
from conftest import dense_mask_variation, exact_variation, threshold_sum_variation


def brute_force_perimeter(mask, domain, h):
    """Independent oracle: scan every cell and its 2d neighbors."""
    dims = mask.shape
    d = mask.ndim
    count = 0
    for idx in np.ndindex(*dims):
        if not (mask[idx] and domain[idx]):
            continue
        for ax in range(d):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] += step
                if not 0 <= nb[ax] < dims[ax]:
                    continue
                nb = tuple(nb)
                if domain[nb] and not mask[nb]:
                    count += 1
        # faces against out-of-domain or out-of-box neighbors are not counted
    return count, count * h ** (d - 1)


class TestSuperlevel:
    def test_constant_at_level(self):
        f = grid_from_array(np.full((4, 4), 3.0))
        assert superlevel(f, 3.0).count == 16

    def test_constant_above_level(self):
        f = grid_from_array(np.full((4, 4), 3.0))
        assert superlevel(f, 3.5).count == 0

    def test_three_cells(self):
        f = grid_from_array(np.array([1.0, 0.0, 2.0]))
        got = superlevel(f, 1.0).mask
        assert got.tolist() == [True, False, True]

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_antitone_in_level(self, a, b):
        rng = np.random.default_rng(7)
        f = grid_from_array(rng.integers(-4, 5, (5, 5)).astype(float))
        lo, hi = min(a, b), max(a, b)
        assert not np.any(superlevel(f, hi).mask & ~superlevel(f, lo).mask)


class TestPerimeter:
    def test_single_cell(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        bm = perimeter(PixelSet((5, 5), m), h=1.0)
        assert bm.face_count == 4 and bm.measure == 4.0

    def test_full_grid_no_mask(self):
        bm = perimeter(PixelSet.full((6, 6)), h=0.5)
        assert bm.face_count == 0

    def test_random_vs_face_scan(self, rng):
        for _ in range(25):
            m = rng.random((8, 8)) < 0.5
            h = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            dom = np.ones((8, 8), dtype=bool)
            want = brute_force_perimeter(m, dom, h)
            got = perimeter(PixelSet((8, 8), m), h=h)
            assert got.face_count == want[0]
            assert got.measure == pytest.approx(want[1], rel=1e-12)

    def test_random_masked_vs_face_scan(self, rng):
        for _ in range(25):
            m = rng.random((7, 6)) < 0.5
            dom = rng.random((7, 6)) < 0.7
            want = brute_force_perimeter(m, dom, 1.0)
            got = perimeter(PixelSet((7, 6), m), PixelSet((7, 6), dom), h=1.0)
            assert got.face_count == want[0]

    def test_measure_scales_with_h(self, rng):
        m = rng.random((6, 6, 6)) < 0.4
        E = PixelSet((6, 6, 6), m)
        assert perimeter(E, h=2.0).measure == pytest.approx(
            4.0 * perimeter(E, h=1.0).measure)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            perimeter(PixelSet.full((3, 3)), PixelSet.full((4, 4)))


class TestVariation:
    def test_constant_is_zero(self):
        assert variation(grid_from_array(np.full((5, 5), 2.5))) == 0.0

    def test_single_bump_1d(self):
        assert variation(grid_from_array(np.array([0.0, 1.0, 0.0]))) == 2.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coarea_identity_random(self, rng, d):
        for _ in range(20):
            dims = tuple(int(rng.integers(2, 9)) for _ in range(d))
            vals = rng.random(dims)
            h = float(rng.choice([0.5, 1.0]))
            f = GridFunction(dims, h, vals.ravel())
            want = threshold_sum_variation(f)
            assert variation(f) == pytest.approx(want, rel=1e-9)

    def test_coarea_identity_masked(self, rng):
        for _ in range(10):
            dims = (7, 7)
            vals = rng.integers(0, 4, dims).astype(float)
            dom = rng.random(dims) < 0.75
            f = GridFunction(dims, 1.0, vals.ravel())
            mask = PixelSet(dims, dom)
            assert variation(f, mask) == pytest.approx(threshold_sum_variation(f, mask), rel=1e-9)

    def test_threshold_sum_matches_explicit_perimeters(self, rng):
        # few distinct integer levels: the gradient sum and the per-level
        # perimeter sum agree to rel 1e-12
        vals = rng.integers(0, 5, (6, 6)).astype(float)
        f = grid_from_array(vals)
        u = np.unique(vals)
        want = sum((u[i] - u[i - 1]) * perimeter(superlevel(f, u[i])).measure
                   for i in range(1, u.size))
        assert variation(f) == pytest.approx(want, rel=1e-12)

    def test_nan_outside_mask_ignored(self):
        vals = np.array([[np.nan, 1.0], [0.0, np.nan]])
        dom = ~np.isnan(vals)
        f = GridFunction((2, 2), 1.0, np.nan_to_num(vals, nan=np.nan).ravel())
        got = variation(f, PixelSet((2, 2), dom))
        # the two in-domain cells are not adjacent: no faces, zero variation
        assert got == 0.0

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_coarea_property_1d(self, xs):
        vals = np.array(xs, dtype=float)
        f = grid_from_array(vals)
        want = threshold_sum_variation(f)
        assert variation(f) == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_variation_bit_equal_to_dense_mask_oracle(d, data):
    # without a mask: the all-true-mask path, bit for bit; with a random mask:
    # the old compressing path; signed zeros, magnitudes 1e-8 to 1e8 and NaN
    # cells, which raise on the domain and are skipped off it (a GridFunction
    # holds no infinite value)
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 300, 2: 24, 3: 8}[d]),
                                    min_size=d, max_size=d), label="dims"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    arr = rng.choice([-1.0, 1.0], dims) * 10.0 ** rng.uniform(-8, 8, dims)
    arr[rng.random(dims) < 0.1] = 0.0
    arr[rng.random(dims) < 0.1] = -0.0
    nan = rng.random(dims) < data.draw(st.sampled_from([0.0, 0.02]), label="nan_rate")
    arr[nan] = np.nan
    f = GridFunction(dims, data.draw(st.sampled_from([1.0, 0.5, 1 / 3]), label="h"), arr.ravel())
    masks = [None, PixelSet.full(dims), PixelSet(dims, (rng.random(dims) < 0.7) & ~nan)]
    for mask in masks:
        try:
            want = dense_mask_variation(f, mask)
        except ValueError:
            with pytest.raises(ValueError, match="finite values"):
                variation(f, mask)
            continue
        assert np.float64(variation(f, mask)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("dims", [(30,), (7, 6), (4, 3, 5)])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_variation_exact_on_exact_input(rng, dims, scale):
    # integer and half-integer cells: every difference and partial sum is a
    # small multiple of 1/2, so the float gradient sum is the exact one
    for _ in range(10):
        f = GridFunction(dims, 1.0, (rng.integers(-6, 7, dims) * scale).ravel())
        assert Fraction(variation(f)) == exact_variation(f.array)


class TestBreakpoints:
    def test_values_and_extras(self):
        f = grid_from_array(np.array([1.0, 0.0, 2.0]))
        assert lambda_breakpoints(f, [0.5]).tolist() == [0.0, 0.5, 1.0, 2.0]

    def test_constant(self):
        f = grid_from_array(np.zeros(4))
        assert lambda_breakpoints(f).tolist() == [0.0]

    def test_level_sets_constant_between_breakpoints(self, rng):
        vals = rng.integers(0, 6, (5, 5)).astype(float) / 2.0
        f = grid_from_array(vals)
        bps = lambda_breakpoints(f)
        for i in range(1, bps.size):
            lo, hi = bps[i - 1], bps[i]
            a = superlevel(f, (lo + hi) / 2)
            b = superlevel(f, lo + 0.75 * (hi - lo))
            c = superlevel(f, hi)
            assert a.equals(b) and a.equals(c)

    def test_integrate_step(self):
        bps = np.array([0.0, 1.0, 3.0])
        vals = np.array([99.0, 2.0, 1.0])  # first entry is never used
        assert integrate_breakpoints(bps, vals) == pytest.approx(2.0 + 2.0)
        assert integrate_breakpoints(bps, vals, lower=1.0) == pytest.approx(2.0)
