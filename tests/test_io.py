import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubemax import CubeFamily, GridCube, GridFunction, grid_from_array
from cubemax.errors import CubemaxError, GridFormatError
from cubemax.io import (
    canonical_json,
    family_from_json,
    family_to_json,
    read_grid_binary,
    read_grid_csv,
    write_grid_binary,
    write_grid_csv,
    write_columns,
)


class TestGridFormats:
    def test_csv_round_trip_2d(self, rng, tmp_path):
        f = GridFunction((5, 7), rng.random(35))
        p = tmp_path / "g.csv"
        write_grid_csv(f, 0.25, p)
        g, h = read_grid_csv(p)
        assert g.dims == f.dims and h == 0.25
        assert np.array_equal(g.values, f.values)

    def test_csv_round_trip_1d(self, rng, tmp_path):
        f = GridFunction((9,), rng.random(9))
        p = tmp_path / "g.csv"
        write_grid_csv(f, 2.0, p)
        g, h = read_grid_csv(p)
        assert g.dims == f.dims and h == 2.0 and np.array_equal(g.values, f.values)

    def test_binary_round_trip_3d(self, rng, tmp_path):
        f = GridFunction((3, 4, 5), rng.standard_normal(60))
        p = tmp_path / "g.bin"
        write_grid_binary(f, 0.125, p)
        g, h = read_grid_binary(p)
        assert g.dims == f.dims and h == 0.125
        assert np.array_equal(g.values, f.values)

    def test_bytes_unchanged(self, tmp_path):
        # the cell width rides in the file as before: a 17-digit comment and
        # a little-endian f64 after the dims
        f = GridFunction((2,), np.array([0.5, -1.0]))
        write_grid_csv(f, 1, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_text() == "# h=1.0\n# d=1\n0.5,-1.0\n"
        write_grid_binary(f, 0.25, tmp_path / "g.bin")
        assert (tmp_path / "g.bin").read_bytes() == b"CUBEMAX1" + bytes([1, 0, 0, 0, 2, 0, 0, 0]) \
            + np.array([0.25, 0.5, -1.0], dtype="<f8").tobytes()

    @pytest.mark.parametrize("h", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_width_is_typed(self, tmp_path, h):
        f = GridFunction((2,), np.zeros(2))
        for write in (write_grid_csv, write_grid_binary):
            with pytest.raises(GridFormatError, match="finite positive h"):
                write(f, h, tmp_path / "g")
        (tmp_path / "g.csv").write_text(f"# h={h!r}\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(GridFormatError, match="finite positive h"):
            read_grid_csv(tmp_path / "g.csv")
        raw = bytearray(b"CUBEMAX1" + bytes([1, 0, 0, 0, 2, 0, 0, 0])
                        + np.array([h, 1.0, 2.0], dtype="<f8").tobytes())
        (tmp_path / "g.bin").write_bytes(bytes(raw))
        with pytest.raises(GridFormatError, match="finite positive h"):
            read_grid_binary(tmp_path / "g.bin")

    def test_binary_magic_guard(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_grid_binary(p)


def grids(dims):
    """(grid function on the given dims with finite or NaN (masked) cell
    values, any positive finite cell width h)."""
    n = int(np.prod(dims))
    return st.tuples(
        st.builds(GridFunction, st.just(dims),
                  st.lists(st.floats(allow_infinity=False), min_size=n, max_size=n)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


def small_dims(d_max):
    return st.integers(1, d_max).flatmap(
        lambda d: st.tuples(*[st.integers(1, 5)] * d))


# one-row 2-d grids included: the dimension rides in a comment
csv_dims = st.one_of(st.tuples(st.integers(1, 12)),
                     st.tuples(st.integers(1, 5), st.integers(1, 5)))
file_settings = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestGridFormatProperties:
    @given(csv_dims.flatmap(grids))
    @file_settings
    def test_csv_round_trip(self, tmp_path, case):
        f, h = case
        p = tmp_path / "g.csv"
        write_grid_csv(f, h, p)
        g, h2 = read_grid_csv(p)
        assert g.dims == f.dims and h2 == h
        assert np.array_equal(g.values, f.values, equal_nan=True)

    @given(small_dims(3).flatmap(grids))
    @file_settings
    def test_binary_round_trip(self, tmp_path, case):
        f, h = case
        p = tmp_path / "g.bin"
        write_grid_binary(f, h, p)
        g, h2 = read_grid_binary(p)
        assert g.dims == f.dims and h2 == h
        assert g.values.tobytes() == f.values.tobytes()

    @given(small_dims(3).flatmap(grids))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_binary_every_truncation_is_typed(self, tmp_path, case):
        p = tmp_path / "g.bin"
        write_grid_binary(*case, p)
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(GridFormatError):
                read_grid_binary(p)

    def test_binary_trailing_bytes_rejected(self, rng, tmp_path):
        p = tmp_path / "g.bin"
        write_grid_binary(GridFunction((2, 3), rng.random(6)), 1.0, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(GridFormatError):
            read_grid_binary(p)

    def test_ragged_csv_is_typed(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# h=1.0\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(GridFormatError) as err:
            read_grid_csv(p)
        assert isinstance(err.value, CubemaxError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("text", ["# h=1.0\n1.0,x\n", "# h=abc\n1.0,2.0\n",
                                      "# d=1\n1.0\n2.0\n", "# d=3\n1.0\n"],
                             ids=["non-numeric-cell", "malformed-h", "d1-two-rows", "d3"])
    def test_malformed_csv_is_typed(self, tmp_path, text):
        p = tmp_path / "g.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(GridFormatError):
            read_grid_csv(p)

    def test_csv_without_dimension_comment_keeps_row_rule(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# h=0.5\n1.0,2.0,3.0\n", encoding="utf-8")
        assert read_grid_csv(p)[0].dims == (3,)
        p.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        assert read_grid_csv(p)[0].dims == (2, 2)


def families(d_max):
    """(dims, h, cubes inside dims) with repeats allowed."""
    def build(dims):
        cube = st.integers(1, min(dims)).flatmap(lambda s: st.tuples(
            st.tuples(*[st.integers(0, n - s) for n in dims]), st.just(s)))
        return st.tuples(st.just(dims), st.floats(1e-3, 1e3), st.lists(cube, max_size=12))
    return small_dims(d_max).flatmap(build)


class TestFamilyJson:
    @given(families(3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, case):
        dims, h, rows = case
        fam = CubeFamily([GridCube(a, s) for a, s in rows])
        back, dims2, h2 = family_from_json(json.loads(canonical_json(family_to_json(fam, dims, h))))
        assert dims2 == dims and h2 == h
        assert back.anchors.shape == (len(fam), len(dims))
        assert back.anchors.tolist() == fam.anchors.tolist()
        assert back.sides.tolist() == fam.sides.tolist()
        assert back.cubes == fam.cubes

    @pytest.mark.parametrize("obj", [
        {"h": 1.0, "cubes": []},
        {"dims": [4, 4], "cubes": []},
        {"dims": [4, 4], "h": 1.0},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"side": 2}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, 0]}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, 0.5], "side": 1}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, 0], "side": 1.0}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, True], "side": 1}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0], "side": 2}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, 0, 0], "side": 2}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [0, 0], "side": 0}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [3, 3], "side": 4}]},
        {"dims": [4, 4], "h": 1.0, "cubes": [{"anchor": [-1, 0], "side": 1}]},
        {"dims": [4, 4], "h": "abc", "cubes": []},
        [4, 4],
        {"dims": [4], "h": -1.0, "cubes": []},
        {"dims": [4], "h": 0.0, "cubes": []},
        {"dims": [4], "h": float("nan"), "cubes": []},
        {"dims": [4], "h": "inf", "cubes": []},
        {"dims": [0], "h": 1.0, "cubes": []},
        {"dims": [4, 0], "h": 1.0, "cubes": []},
    ], ids=["no-dims", "no-h", "no-cubes", "no-anchor", "no-side", "float-anchor", "float-side",
            "bool-anchor", "short-anchor", "long-anchor", "side-0", "outside-high",
            "outside-low", "h-text", "not-object", "h-negative", "h-zero", "h-nan", "h-inf",
            "dims-0", "dims-4-0"])
    def test_bad_input_is_typed(self, obj):
        with pytest.raises(GridFormatError):
            family_from_json(obj)

    def test_round_trip(self):
        fam = CubeFamily([GridCube((0, 1), 2), GridCube((3, 3), 1)])
        obj = family_to_json(fam, (8, 8), 0.5)
        text = canonical_json(obj)
        back, dims, h = family_from_json(json.loads(text))
        assert back.cubes == fam.cubes and dims == (8, 8) and h == 0.5


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 1 / 3, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_round_trips_through_loads(self):
        obj = {"x": [1.5, 2, True, None], "y": {"z": 1e-17}}
        assert json.loads(canonical_json(obj)) == obj

    def test_special_floats(self):
        text = canonical_json([float("inf"), float("-inf")])
        got = json.loads(text)
        assert got[0] == float("inf") and got[1] == float("-inf")

    def test_deterministic_bytes(self):
        obj = {"k": [0.1, 0.2, 0.30000000000000004], "m": {"n": 7}}
        assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))


class TestPlotData:
    def test_columns_round_trip(self, tmp_path):
        p = tmp_path / "d.dat"
        xs = [0.0, 1.0, 2.0]
        ys = [3.75, 6.75, 12.75]
        write_columns(p, [xs, ys], " ", "# n variation")
        back = np.loadtxt(p, ndmin=2).T
        assert np.array_equal(back[0], xs) and np.array_equal(back[1], ys)

    def test_integers_and_floats_print_alike(self, tmp_path):
        # an integer column and the same values as floats give the same bytes
        p, q = tmp_path / "i.csv", tmp_path / "f.csv"
        write_columns(p, [[0, 3, -7], [0.5, 1e-17, float("nan")]], ",", "n,x")
        write_columns(q, [[0.0, 3.0, -7.0], [0.5, 1e-17, float("nan")]], ",", "n,x")
        assert p.read_text() == q.read_text() == "n,x\n0,0.5\n3,1.0000000000000001e-17\n-7,NaN\n"


class TestMaxFunctionEmission:
    def test_maximal_function_round_trips_formats(self, rng, tmp_path):
        from cubemax.maximal import maximal_global
        mf = maximal_global(grid_from_array(rng.random((6, 6))))
        p_csv = tmp_path / "m.csv"
        p_bin = tmp_path / "m.bin"
        write_grid_csv(mf, 0.5, p_csv)
        write_grid_binary(mf, 0.5, p_bin)
        assert np.array_equal(read_grid_csv(p_csv)[0].values, mf.values)
        assert np.array_equal(read_grid_binary(p_bin)[0].values, mf.values)
