import numpy as np
import pytest

from cubemax import SummedAreaTable


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
    want = np.array([sat.box_sum(tuple(a), int(s)) for a, s in zip(anchors, sides)])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    avg = sat.box_avg_many(anchors, sides)
    assert np.array_equal(avg, [sat.box_avg(tuple(a), int(s)) for a, s in zip(anchors, sides)])
    # a scalar side broadcasts to every anchor
    assert np.array_equal(sat.box_sum_many(anchors, 1), [sat.box_sum(tuple(a), 1) for a in anchors])
