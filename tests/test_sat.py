import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemax import CubeFamily, GridCube, SummedAreaTable, family_averages, grid_from_array
from cubemax.sat import _compensated_cumsum
from conftest import draw_nan_cells, loop_compensated_cumsum, nan_count_rule, signed_term_box_sum_grid


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compensated_cumsum_matches_row_loop(d, data):
    # lengths 1 and 2 on every axis occur; magnitudes span 1e-8 to 1e8 with
    # both signs and signed zeros, so both Neumaier branches and cancellation
    # are hit; bit for bit, sign of zero included
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 64, 2: 12, 3: 6}[d]),
                                    min_size=d, max_size=d), label="dims"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = rng.choice([-1.0, 1.0], dims) * 10.0 ** rng.uniform(-8, 8, dims)
    a[rng.random(dims) < 0.1] = 0.0
    a[rng.random(dims) < 0.1] = -0.0
    for axis in range(d):
        got = _compensated_cumsum(a, axis)
        assert got.shape == a.shape
        assert got.tobytes() == loop_compensated_cumsum(a, axis).tobytes()


@pytest.mark.parametrize("dims", [(1,), (2,), (1, 5), (5, 2), (2, 1, 3), (1, 1, 1)])
def test_compensated_cumsum_short_axes(rng, dims):
    a = rng.choice([-1.0, 1.0], dims) * 10.0 ** rng.uniform(-8, 8, dims)
    for axis in range(len(dims)):
        assert _compensated_cumsum(a, axis).tobytes() == loop_compensated_cumsum(a, axis).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["int", "float"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_grid_queries_bit_equal_to_signed_term_oracle(d, kind, data):
    # float cells span 1e-8 to 1e8 with both signs, signed zeros and NaN
    # cells; int cells are signed; every side, bit for bit
    dims = tuple(data.draw(st.lists(st.integers(1, {1: 40, 2: 10, 3: 6}[d]),
                                    min_size=d, max_size=d), label="dims"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if kind == "int":
        arr = rng.integers(-1000, 1000, dims)
    else:
        arr = rng.choice([-1.0, 1.0], dims) * 10.0 ** rng.uniform(-8, 8, dims)
        arr[rng.random(dims) < 0.1] = 0.0
        arr[rng.random(dims) < 0.1] = -0.0
        arr[rng.random(dims) < data.draw(st.sampled_from([0.0, 0.05]), label="nan_rate")] = np.nan
    sat = SummedAreaTable(arr)
    for side in range(1, min(dims) + 1):
        want = nan_count_rule(arr, lambda t: signed_term_box_sum_grid(t, side))
        got = sat.box_sum_grid(side)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        avg = sat.box_avg_grid(side)
        assert avg.dtype == np.float64
        assert avg.tobytes() == (want / float(side ** d)).tobytes()


def grid_entries(query, anchors, sides):
    """Per cube, its entry in the whole-grid query ``query(side)``."""
    grids = {s: query(s) for s in set(sides.tolist())}
    return [grids[s][tuple(a)] for a, s in zip(anchors.tolist(), sides.tolist())]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["int", "float"])
def test_mixed_sides_bit_equal_to_scalar_queries(rng, d, kind):
    dims = (11, 9, 7)[:d]
    arr = rng.integers(0, 2, dims) if kind == "int" else rng.random(dims) * 10 - 5
    sat = SummedAreaTable(arr)
    n = 200
    sides = rng.integers(1, min(dims) + 1, n)
    anchors = np.stack([rng.integers(0, np.array(dims)[k] - sides + 1) for k in range(d)], axis=1)
    got = sat.box_sum_many(anchors, sides)
    want = np.array(grid_entries(sat.box_sum_grid, anchors, sides))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    avg = sat.box_avg_many(anchors, sides)
    assert np.array_equal(avg, grid_entries(sat.box_avg_grid, anchors, sides))
    # a scalar side broadcasts to every anchor
    assert np.array_equal(sat.box_sum_many(anchors, 1), sat.box_sum_grid(1)[tuple(anchors.T)])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nan_cells_make_only_their_boxes_nan(rng, d):
    dims = (11, 9, 7)[:d]
    arr = rng.random(dims) * 10 - 5
    nan = rng.random(dims) < 0.05
    nan.flat[rng.integers(nan.size)] = True
    arr[nan] = np.nan
    sat = SummedAreaTable(arr)
    zeroed = SummedAreaTable(np.where(nan, 0.0, arr))
    assert sat.free is not None and zeroed.free is None
    assert np.array_equal(sat.table, zeroed.table)
    for side in range(1, min(dims) + 1):
        windows = np.lib.stride_tricks.sliding_window_view(nan, (side,) * d)
        holds = windows.reshape(windows.shape[:d] + (-1,)).any(axis=-1)
        for got, want in ((sat.box_sum_grid(side), zeroed.box_sum_grid(side)),
                          (sat.box_avg_grid(side), zeroed.box_avg_grid(side))):
            assert np.array_equal(np.isnan(got), holds)
            assert np.array_equal(got[~holds], want[~holds])
    sides = rng.integers(1, min(dims) + 1, 200)
    anchors = np.stack([rng.integers(0, np.array(dims)[k] - sides + 1) for k in range(d)], axis=1)
    holds = [nan[tuple(slice(x, x + s) for x in a)].any() for a, s in zip(anchors, sides)]
    got = sat.box_sum_many(anchors, sides)
    assert np.array_equal(np.isnan(got), holds)
    assert np.array_equal(got, grid_entries(sat.box_sum_grid, anchors, sides), equal_nan=True)
    assert np.array_equal(sat.box_avg_many(anchors, sides),
                          grid_entries(sat.box_avg_grid, anchors, sides), equal_nan=True)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_nan_rule_bit_equal_to_count_table(d, data):
    # the power-of-two NaN-free windows against the int64 NaN-count table,
    # on masks with no NaN cell, one, a border row, all cells or a random
    # set; every side of the grid query, random boxes and a scalar side for
    # the gather, bit for bit with the NaN positions
    arr, rng = draw_nan_cells(data, d, {1: 40, 2: 10, 3: 6})
    sat = SummedAreaTable(arr)
    assert (sat.free is None) == (not np.isnan(arr).any())
    for side in range(1, min(arr.shape) + 1):
        want = nan_count_rule(arr, lambda t: t.box_sum_grid(side))
        assert sat.box_sum_grid(side).tobytes() == want.tobytes()
    for sides in (rng.integers(1, min(arr.shape) + 1, 60), np.int64(rng.integers(1, min(arr.shape) + 1))):
        hi = np.array(arr.shape) - np.broadcast_to(sides, 60)[:, None] + 1
        anchors = (rng.random((60, d)) * hi).astype(np.int64)
        want = nan_count_rule(arr, lambda t: t.box_sum_many(anchors, sides))
        assert sat.box_sum_many(anchors, sides).tobytes() == want.tobytes()


def test_nan_cell_leaves_other_cubes_finite():
    vals = np.arange(16.0).reshape(4, 4)
    vals[0, 0] = np.nan
    f = grid_from_array(vals)
    cubes = CubeFamily([GridCube((0, 2), 2), GridCube((2, 0), 2), GridCube((2, 2), 2)])
    assert family_averages(f, cubes).tolist() == [4.5, 10.5, 12.5]
    assert np.isnan(family_averages(f, CubeFamily([GridCube((0, 0), 2)]))[0])
