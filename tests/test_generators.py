import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from cubemax import CubeFamily, GridCube, dyadic_completion
from cubemax.errors import ConfigError
from cubemax.generators import (
    _gaussian_nearest,
    make_function,
    random_complete_family,
    random_family,
    random_smooth_function,
    simple_function,
)
from conftest import fixed_point_completion, gridcube_random_family, mask_simple_function


@pytest.mark.parametrize("shape", [
    (1,), (5,), (8,), (9,), (300,),             # radius 8 at sigma 2: lines below and above it
    (3, 7), (16, 16), (1, 40), (40, 2),
    (2, 2, 2), (4, 9, 3), (12, 12, 12),
])
@pytest.mark.parametrize("sigma", [2.0, 0.6, 3.3])
def test_gaussian_bit_equal_to_scipy(shape, sigma):
    x = np.random.default_rng(len(shape) * 1000 + shape[-1]).standard_normal(shape)
    want = gaussian_filter(x, sigma=sigma, mode="nearest")
    assert np.array_equal(_gaussian_nearest(x, sigma), want)


@pytest.mark.parametrize("dims", [(64,), (16, 16), (8, 8, 8)])
def test_random_smooth_matches_scipy_pipeline(dims):
    # same draws, same values as the scipy-filtered generator
    f = random_smooth_function(np.random.default_rng(7), dims)
    vals = gaussian_filter(np.random.default_rng(7).standard_normal(dims), sigma=2.0, mode="nearest")
    assert np.array_equal(f.array, vals - vals.min())


@pytest.mark.parametrize("cls", ["indicator", "simple"])
@pytest.mark.parametrize("dims", [(1,), (1, 1), (1, 1, 1)])
def test_one_cell_nonconstant_classes_raise(cls, dims):
    # both classes redraw until f is not constant, which one cell never is
    with pytest.raises(ConfigError, match="at least 2 cells"):
        make_function(np.random.default_rng(0), cls, dims)


@pytest.mark.parametrize("cls", ["indicator", "simple"])
@pytest.mark.parametrize("dims", [(2,), (1, 2), (2, 1, 1)])
def test_two_cells_nonconstant_classes_draw(cls, dims):
    f = make_function(np.random.default_rng(0), cls, dims)
    assert np.unique(f.array).size == 2


@pytest.mark.parametrize("pow2", [True, False])
@pytest.mark.parametrize("dims", [(16,), (8, 5), (4, 4, 4)])
@pytest.mark.parametrize("count", [0, 1, 200])
def test_random_family_keeps_the_gridcube_draw_stream(pow2, dims, count):
    # the same scalar draws in the same order: equal families, and the
    # generator left in the same state
    for seed in range(3):
        arrays, objects = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_family(arrays, dims, count, pow2) == gridcube_random_family(objects, dims, count, pow2)
        assert arrays.random() == objects.random()


def test_complete_family_appends_the_box_as_the_gridcube_builder_did():
    for seed in range(20):
        arrays, objects = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_complete_family(arrays, (8, 8), 3)
        fam = gridcube_random_family(objects, (8, 8), 3)
        if objects.random() < 0.5:
            fam = CubeFamily([*fam, GridCube((0, 0), 8)])
        assert got == fixed_point_completion(fam)
        assert arrays.random() == objects.random()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_family_rows_have_width_d(d):
    # an empty list of cubes used to give (0, 0) anchors, kept by the completion
    fam = random_family(np.random.default_rng(0), (4,) * d, 0)
    assert fam.anchors.shape == (0, d)
    assert dyadic_completion(fam).anchors.shape == (0, d)


@pytest.mark.parametrize("dims", [(2,), (64,), (1, 2), (16, 16), (64, 64), (2, 1, 1), (8, 8, 8)])
def test_simple_function_matches_mask_oracle(dims):
    # the same draws in the same order, the same values bit for bit, and the
    # generator left in the same state (redraws of a constant grid included)
    for seed in range(20):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simple_function(rng, dims)
        assert got.array.tobytes() == mask_simple_function(want_rng, dims).tobytes()
        assert rng.random() == want_rng.random()
