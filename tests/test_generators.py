import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from cubemax.errors import ConfigError
from cubemax.generators import _gaussian_nearest, make_function, random_smooth_function


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
    f = random_smooth_function(np.random.default_rng(7), dims, 0.5)
    vals = gaussian_filter(np.random.default_rng(7).standard_normal(dims), sigma=2.0, mode="nearest")
    assert np.array_equal(f.array, vals - vals.min())


@pytest.mark.parametrize("cls", ["indicator", "simple"])
@pytest.mark.parametrize("dims", [(1,), (1, 1), (1, 1, 1)])
def test_one_cell_nonconstant_classes_raise(cls, dims):
    # both classes redraw until f is not constant, which one cell never is
    with pytest.raises(ConfigError, match="at least 2 cells"):
        make_function(np.random.default_rng(0), cls, dims, 1.0)


@pytest.mark.parametrize("cls", ["indicator", "simple"])
@pytest.mark.parametrize("dims", [(2,), (1, 2), (2, 1, 1)])
def test_two_cells_nonconstant_classes_draw(cls, dims):
    f = make_function(np.random.default_rng(0), cls, dims, 1.0)
    assert np.unique(f.array).size == 2
