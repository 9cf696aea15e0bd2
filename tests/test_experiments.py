import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cubemax.cli import COMMANDS, emit_tables, main
from cubemax.errors import ConfigError, InvariantViolated
from cubemax.experiments import (
    ExperimentConfig,
    dumbbell_domain,
    checkerboard_family,
    report_passed,
    run_checkerboard,
    run_dumbbell,
    run_ratio_suite,
    run_refinement_stability,
    run_sparse_audit,
    run_theorem_suite,
)
from cubemax.grid import GridFunction, variation
from cubemax.io import canonical_json
from cubemax.maximal import maximal_family
import cubemax
from cubemax import is_dyadically_complete


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.dims == (32, 32)

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dimension=4)

    def test_bad_class(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(function_class="nope")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"grib": 16})


class TestRatioSuite:
    def test_one_dimensional_never_increases(self):
        cfg = ExperimentConfig(seed=5, dimension=1, grid=48, repetitions=40,
                               function_class="simple")
        rep, _ = run_ratio_suite(cfg)
        assert report_passed(rep)
        assert rep["constants"]["ratio_max"] <= 1.0 + 1e-9

    def test_indicator_suite_finite(self):
        cfg = ExperimentConfig(seed=6, dimension=2, grid=32, repetitions=8,
                               function_class="indicator")
        rep, _ = run_ratio_suite(cfg)
        assert np.isfinite(rep["constants"]["ratio_max"])

    def test_generators_never_constant(self):
        # constant functions would raise; the suite must complete
        cfg = ExperimentConfig(seed=7, dimension=2, grid=16, repetitions=15,
                               function_class="block-decreasing")
        rep, _ = run_ratio_suite(cfg)
        assert len(rep["results"]["ratios"]) == 15

    def test_one_operator_pass_per_instance(self, monkeypatch):
        import cubemax.experiments as experiments

        calls = {"make_function": 0, "maximal_global": 0}

        def counted(name):
            real = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counted(name))
        cfg = ExperimentConfig(seed=13, dimension=2, grid=16, repetitions=10,
                               function_class="indicator")
        rep, _ = run_ratio_suite(cfg)
        assert calls == {"make_function": 10, "maximal_global": 10}
        assert list(rep["results"]) == ["ratios"]
        assert len(rep["results"]["ratios"]) == 10
        assert report_passed(rep)


class TestCheckerboard:
    def test_growth_in_window(self):
        rep, _ = run_checkerboard(5)
        assert report_passed(rep)
        ratios = rep["results"]["growth_ratios"]
        assert all(1.5 <= r <= 2.5 for r in ratios[2:])

    def test_baseline_family_comparable_to_var_f(self):
        rep, _ = run_checkerboard(4)
        # var f of the unit square indicator is 4; the family-only maximal
        # function at depth 0 stays within a small factor
        assert 0.5 <= rep["results"]["variation"][0] / 4.0 <= 2.0

    def test_one_table_per_run(self, monkeypatch):
        import cubemax.sat as sat

        builds = []
        real = sat.SummedAreaTable.__init__

        def counted(self, array):
            builds.append(np.shape(array))
            real(self, array)

        monkeypatch.setattr(sat.SummedAreaTable, "__init__", counted)
        run_checkerboard(4)
        assert builds == [(64, 64)]

    def test_variations_match_unshared_tables(self):
        # per depth, maximal_family averages the family with its own table
        n_max = 4
        unit = 2 ** n_max
        vals = np.zeros((4 * unit, 4 * unit))
        vals[unit:2 * unit, unit:2 * unit] = 1.0
        f = GridFunction(vals.shape, vals.ravel())
        # in cell units; the report takes them to the cell width 2^-n_max
        want = [variation(maximal_family(f, checkerboard_family(n, n_max))) * 2.0 ** -n_max
                for n in range(n_max + 1)]
        assert run_checkerboard(n_max)[0]["results"]["variation"] == want

    def test_families_never_complete(self):
        for n in (1, 3):
            fam = checkerboard_family(n, 5)
            ok, witness = is_dyadically_complete(fam)
            assert not ok and witness is not None


class TestDumbbell:
    def test_all_assertions_pass(self):
        rep, _ = run_dumbbell()
        assert report_passed(rep)

    def test_neck_zero_and_floor(self):
        rep, _ = run_dumbbell()
        for row in rep["results"]["rows"]:
            assert row["neck_max"] == 0.0
            assert row["lower_min"] >= row["target"] * (1 - 1e-12)

    def test_domain_shape(self):
        f, omega = dumbbell_domain(0.25)
        assert f.dims == (40, 48)
        # neck columns: |x| < 1 -> 8 columns at h = 1/4
        neck = omega.mask[:, 40:]
        assert int(neck.any(axis=1).sum()) == 8

    @pytest.mark.parametrize("h", [0.25, 0.125, 0.0625])
    def test_values_bit_equal_to_whole_grid_formula(self, h):
        # the ramp's antiderivative evaluated on every cell, then masked
        f, omega = dumbbell_domain(h)
        xc = -5.0 + (np.arange(f.dims[0]) + 0.5) * h
        yc = -10.0 + (np.arange(f.dims[1]) + 0.5) * h
        w = 1.0 - np.add.outer((xc - 0.5 * h) + 5.0, (yc - 0.5 * h) + 10.0)

        def antideriv(t):
            return np.where(t > 0, t ** 3 / 6.0, 0.0)

        want = (antideriv(w) - 2.0 * antideriv(w - h) + antideriv(w - 2.0 * h)) / (h * h)
        want[~omega.mask] = 0.0
        assert f.values.tobytes() == want.ravel().tobytes()

    def test_integral_matches_quadrature_oracle(self):
        # triangle with affine integrand: exact value 1/6 by vertex rule;
        # the discrete cell averages must reproduce it
        from scipy import integrate
        # restrict to the support triangle so the integrand is smooth
        oracle, err = integrate.dblquad(
            lambda y, x: -14.0 - x - y, -5.0, -4.0,
            lambda x: -10.0, lambda x: -14.0 - x)
        assert oracle == pytest.approx(1 / 6, abs=1e-12)
        for h in (0.25, 0.125):
            f, omega = dumbbell_domain(h)
            assert float(f.values[np.isfinite(f.values)].sum()) * h * h == \
                pytest.approx(1 / 6, rel=1e-12)


class TestTheoremSuite:
    def test_smoke_config(self):
        cfg = ExperimentConfig(seed=7, dimension=2, grid=8, repetitions=5,
                               function_class="simple")
        rep, _ = run_theorem_suite(cfg)
        assert report_passed(rep)
        assert len(rep["results"]["instances"]) == 5

    def test_refinement_stability(self):
        cfg = ExperimentConfig(seed=11, dimension=2, grid=16, repetitions=6,
                               function_class="simple")
        rep = run_refinement_stability(cfg, pairs=6)
        assert report_passed(rep)
        assert rep["constants"]["relative_change"] < 0.2


class TestDeterminism:
    def test_identical_bodies_across_repeated_runs(self):
        bodies = []
        for _ in range(3):
            cfg = ExperimentConfig(seed=42, dimension=2, grid=16, repetitions=8,
                                   function_class="simple")
            bodies.append(canonical_json(run_theorem_suite(cfg)[0]).encode())
        assert bodies[0] == bodies[1] == bodies[2]

    def test_theorem_body_unchanged_by_earlier_runs(self, tmp_path):
        # a fresh interpreter runs theorem, then ratio, geom and sparse-audit,
        # then theorem again: no state may carry from one run to the next
        script = (
            "import sys; from cubemax.cli import main; out = sys.argv[1]\n"
            "for cmd, name in [('theorem', 'fresh'), ('ratio', 'r'), ('geom', 'g'),\n"
            "                  ('sparse-audit', 's'), ('theorem', 'again')]:\n"
            "    assert main([cmd, '--seed', '5', '--out', f'{out}/{name}']) == 0\n")
        src = str(Path(cubemax.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": src})
        fresh = (tmp_path / "fresh" / "report.json").read_bytes()
        assert fresh == (tmp_path / "again" / "report.json").read_bytes()
        assert b'"command": "theorem"' in fresh

    def test_seed_replay_identical(self):
        cfg = ExperimentConfig(seed=9, dimension=1, grid=32, repetitions=10,
                               function_class="simple")
        a = canonical_json(run_ratio_suite(cfg)[0])
        b = canonical_json(run_ratio_suite(cfg)[0])
        assert a == b


class TestSparseAudit:
    def test_audit_passes_and_exercises_selection(self):
        cfg = ExperimentConfig(seed=2, dimension=2, grid=16, repetitions=10,
                               function_class="simple", family_seeds=5)
        rep, _ = run_sparse_audit(cfg)
        assert report_passed(rep)
        assert rep["constants"]["selected_max"] >= 1


class TestGeomCommand:
    def test_geom_command_passes_and_is_deterministic(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"geom_samples": 2000}))
        bodies = []
        for run in range(3):
            out = tmp_path / f"o{run}"
            assert main(["geom", "--config", str(cfgfile), "--out", str(out)]) == 0
            bodies.append((out / "report.json").read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]
        rep = json.loads(bodies[0])
        assert len(rep["assertions"]) == 7
        assert all(a["passed"] for a in rep["assertions"])
        assert sorted(rep["results"]["geom_checks"]) == [
            "cube_angle_d2", "cube_angle_d3", "cube_cover_d2", "cube_cover_d3",
            "large_boundary_K1", "large_boundary_K2", "lipschitz_blowup",
            "min_angle_d2", "min_angle_d3"]


class TestCli:
    def test_checkerboard_command(self, tmp_path):
        code = main(["checkerboard", "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["command"] == "checkerboard"
        cols = np.loadtxt(tmp_path / "checkerboard_growth.dat", ndmin=2).T
        assert np.array_equal(cols[1], report["results"]["variation"])

    def test_ratio_command_with_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"dimension": 1, "grid": 24,
                                       "repetitions": 10,
                                       "function_class": "simple"}))
        code = main(["ratio", "--config", str(cfgfile), "--seed", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ratios.csv").exists()
        assert (tmp_path / "o" / "timings.json").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"dimension": 9}))
        assert main(["ratio", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("config", [
        {"caps": {"2": "a"}},
        {"caps": {"1": 4.0}},
        {"grid": 2.5},
        {"seed": -1},
        {"family_class": "dyadic"},
        {"geom_samples": 0},
        {"geom_samples": -5},
        {"family_seeds": 0},
        {"family_seeds": 25},
        {"checkerboard_n_max": 0},
        {"checkerboard_n_max": 2},
        {"deep_instances": -1},
        {"checkerboard_n_max": 11},
        {"checkerboard_n_max": 40},
        {"grid": 4097},
        {"dimension": 3, "grid": 257},
        {"caps": {"2": -1}},
        {"caps": {"2": 0}},
        {"caps": {"2": float("inf")}},
        {"caps": {"2": 10 ** 400}},
        {"threads": 2},
        {"threads": 0},
        {"threads": True},
        {"threads": "1"},
        {"h": float("inf")},
        {"h": float("nan")},
        {"h": 0},
        {"h": 1e200},
        {"h": 10 ** 400},
        {"h": 1.4e154, "dimension": 2},
        {"h": 6e102, "dimension": 3},
    ], ids=["caps-value", "caps-missing-dimension", "grid-float", "seed-negative",
            "family-class-removed", "geom-samples-0", "geom-samples-negative",
            "family-seeds-0", "family-seeds-25", "checkerboard-n-max-0",
            "checkerboard-n-max-2", "deep-instances-negative", "checkerboard-n-max-11",
            "checkerboard-n-max-40", "grid-cells-2d", "grid-cells-3d", "caps-negative",
            "caps-zero", "caps-infinite", "caps-overflow", "threads-2", "threads-0",
            "threads-true", "threads-string", "h-infinite", "h-nan", "h-zero",
            "h-squared-overflows", "h-int-overflows-float", "h-squared-overflows-d2",
            "h-cubed-overflows-d3"])
    def test_invalid_config_exit_2(self, tmp_path, config):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"repetitions": 1, **config}))
        assert main(["theorem", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2

    def test_h_that_reads_as_infinity_names_h(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"h": 1e309}')
        assert main(["ratio", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: h must be positive with a finite h ** dimension, got h=inf\n")

    @pytest.mark.parametrize("h, d", [(1.3e154, 2), (5e102, 3), (1e-300, 3)])
    def test_extreme_h_with_finite_cell_volume_accepted(self, h, d):
        assert ExperimentConfig(h=h, dimension=d).h == h

    def test_theorem_without_positive_rhs_pair_reports_zero_change(self, tmp_path):
        # a 2-cell indicator whose one refinement pair has rhs = 0
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"dimension": 1, "grid": 2, "function_class": "indicator",
                                       "family_seeds": 1, "repetitions": 1}))
        assert main(["theorem", "--config", str(cfgfile), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert rep["results"]["refinement"] == {"coarse_ratios": [], "fine_ratios": []}
        assert {k: v for k, v in rep["constants"].items() if k.startswith("refinement_")} == {
            "refinement_max_ratio_coarse": 0.0, "refinement_max_ratio_fine": 0.0,
            "refinement_relative_change": 0.0}

    def test_report_body_excludes_timings(self, tmp_path):
        main(["dumbbell", "--out", str(tmp_path)])
        body = (tmp_path / "report.json").read_text()
        assert "seconds" not in body

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_threads_config_key_other_than_1_names_the_removed_option(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"threads": 2}))
        assert main(["ratio", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: the threads option is gone (runs are serial), got threads=2\n")

    def test_threads_1_config_key_dropped(self, tmp_path):
        bodies = []
        for extra in ({}, {"threads": 1}):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"grid": 16, "repetitions": 4, **extra}))
            out = tmp_path / f"o{len(bodies)}"
            assert main(["theorem", "--config", str(cfgfile), "--out", str(out)]) == 0
            bodies.append({p.name: p.read_bytes() for p in out.iterdir()
                           if p.name != "timings.json"})
        assert bodies[0] == bodies[1] and "report.json" in bodies[0]

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(b'{"grid": 16, "function_class": "\xff"}')
        assert main(["ratio", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_out_is_a_file_exit_2_before_the_run(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        assert main(["ratio", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert target.read_text() == "not a directory"

    def test_plot_emission_round_trip(self, tmp_path):
        rep, tables = run_checkerboard(3)
        files = emit_tables(tables, tmp_path)
        assert [p.name for p in files] == ["checkerboard_growth.dat"]
        cols = np.loadtxt(files[0], ndmin=2).T
        assert cols[0].tolist() == rep["results"]["n"]
        assert cols[1].tolist() == rep["results"]["variation"]


class TestTables:
    def test_per_lambda_tables_hold_instance_0_levels_bit_for_bit(self, tmp_path):
        from cubemax.estimates import theorem_main_evaluate
        from cubemax.generators import make_function, random_complete_family

        cfg = ExperimentConfig(seed=5, grid=16, repetitions=3, function_class="random-smooth")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg.to_json()))
        assert main(["theorem", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        rng = np.random.default_rng([cfg.seed, 0])
        f = make_function(rng, cfg.function_class, cfg.dims)
        fam = random_complete_family(rng, cfg.dims, cfg.family_seeds).with_averages(f)
        want = theorem_main_evaluate(f, fam, cap=cfg.caps[2], deep=True).lam_table
        assert want["lam"].size > 10
        for name, sep in (("per_lambda.csv", ","), ("per_lambda_trace.dat", " ")):
            header, *rows = (tmp_path / "o" / name).read_text().splitlines()
            keys = header.lstrip("# ").split(sep)
            cols = zip(*([float(x) for x in row.split(sep)] for row in rows))
            for key, col in zip(keys, cols, strict=True):
                assert np.array(col).tobytes() == np.asarray(want[key], float).tobytes(), key
        body = (tmp_path / "o" / "report.json").read_text()
        assert "per_lambda" not in body and '"lhs"' in body


# every config that once ended in a traceback or a run on non-finite values
CONTRACT_CONFIGS = [
    None,
    {"dimension": 1, "grid": 2, "function_class": "indicator", "family_seeds": 1,
     "repetitions": 1},
    {"h": 1e-300, "dimension": 3},
    {"h": 1e309},
    {"h": 1e200},
    {"h": 1.3e154, "dimension": 2},
    {"h": 5e102, "dimension": 3},
]


def _ratios(out: Path) -> dict:
    """The ratios of a ``ratio`` or ``theorem`` report in ``out``."""
    rep = json.loads((out / "report.json").read_text())
    res = rep["results"]
    per_instance = res["ratios"] if "ratios" in res else [r["ratio"] for r in res["instances"]]
    return {"instances": per_instance, "max": rep["constants"]["ratio_max"],
            "median": rep["constants"]["ratio_median"]}


@pytest.mark.parametrize("config", CONTRACT_CONFIGS,
                         ids=["default", "indicator-2-cells", "h-tiny-d3", "h-infinite",
                              "h-squared-overflows", "h-largest-d2", "h-largest-d3"])
@pytest.mark.parametrize("command", COMMANDS)
def test_exit_code_contract(command, config, tmp_path, capsys):
    # 0 pass, 2 bad config, 3 library error; 1 only with a report that fails
    # an assertion; never a traceback
    def run(cfg, out):
        argv = [command, "--seed", "3", "--out", str(out)]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / "cfg.json")]
        return main(argv)

    code = run(config, tmp_path / "o")
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert code in (0, 1, 2, 3)
    if code == 1:
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert not report_passed(rep)
    if command in ("ratio", "theorem") and code != 2 and "h" in (config or {}):
        # a valid h sets units only: the run passes as at h = 1, with its ratios
        at_1 = {k: v for k, v in config.items() if k != "h"}
        assert code == run(at_1, tmp_path / "h1") == 0
        assert _ratios(tmp_path / "o") == _ratios(tmp_path / "h1")


class TestCliFailurePath:
    def test_assertion_failure_exit_1_and_replay_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "dimension": 2, "grid": 16, "repetitions": 4,
            "function_class": "simple",
            "caps": {"1": 1e-12, "2": 1e-12, "3": 1e-12},
        }))
        code = main(["theorem", "--config", str(cfgfile), "--seed", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "replay configuration" in err
        assert '"seed": 4' in err


    def test_library_error_exit_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise InvariantViolated("at level 0.5: 7 level-union boundary faces exceed 3 + 2")

        monkeypatch.setattr("cubemax.cli.run_theorem_suite", broken)
        code = main(["theorem", "--seed", "4", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0] == ("error: InvariantViolated: at level 0.5: 7 level-union "
                            "boundary faces exceed 3 + 2")
        assert lines[1] == "replay configuration:"
        assert '"seed": 4' in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()
