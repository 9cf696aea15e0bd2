"""Command-line front door.

    cubemax ratio|theorem|checkerboard|dumbbell|geom|sparse-audit
            [--config file.json] [--seed N] [--out DIR] [--threads N]

Exit codes: 0 all assertions passed, 1 an assertion failed (the failing
configuration is printed for replay), 2 invalid configuration, 3 a library
error (a ``CubemaxError`` such as ``InvariantViolated``) stopped the run
(one ``error: <ErrorType>: <message>`` line and the replay configuration go
to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, CubemaxError
from .experiments import (
    ExperimentConfig,
    report_passed,
    run_checkerboard,
    run_dumbbell,
    run_geom_suite,
    run_ratio_suite,
    run_refinement_stability,
    run_sparse_audit,
    run_theorem_suite,
)
from .io import canonical_json, write_plot_columns, write_report, write_table_csv

COMMANDS = ("ratio", "theorem", "checkerboard", "dumbbell", "geom", "sparse-audit")


def _write_histogram(path: Path, ratios: np.ndarray) -> Path:
    counts, edges = np.histogram(ratios, bins=min(20, max(4, ratios.size // 4)))
    write_plot_columns(path, [edges[:-1], edges[1:], counts],
                       comment="bin_left bin_right count")
    return path


def emit_plot_data(report: dict, out_dir) -> list[Path]:
    """Gnuplot-ready whitespace data files derived from a report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    cmd = report.get("command")
    if cmd == "checkerboard":
        path = out / "checkerboard_growth.dat"
        write_plot_columns(path, [report["results"]["n"],
                                  report["results"]["variation"]],
                           comment="n variation")
        written.append(path)
    if cmd == "ratio":
        written.append(_write_histogram(out / "ratio_histogram.dat",
                                        np.asarray(report["results"]["ratios"])))
    if cmd == "theorem":
        inst = report["results"]["instances"]
        if inst and "per_lambda" in inst[0]:
            tab = inst[0]["per_lambda"]
            path = out / "per_lambda_trace.dat"
            write_plot_columns(path, [tab["lam"], tab["lhs"], tab["f_boundary"],
                                      tab["term1"], tab["term2"]],
                               comment="lam lhs f_boundary term1 term2")
            written.append(path)
        ratios = np.asarray([r["ratio"] for r in inst if np.isfinite(r["ratio"])])
        if ratios.size:
            written.append(_write_histogram(out / "theorem_ratio_histogram.dat", ratios))
    return written


def _emit_tables(report: dict, out_dir) -> None:
    out = Path(out_dir)
    cmd = report.get("command")
    if cmd == "theorem":
        inst = report["results"]["instances"]
        if inst and "per_lambda" in inst[0]:
            tab = inst[0]["per_lambda"]
            write_table_csv(out / "per_lambda.csv",
                            ["lam", "n_q0", "n_q1", "n_q2", "term1", "term2",
                             "lhs", "f_boundary"],
                            [tab["lam"], tab["n_q0"], tab["n_q1"], tab["n_q2"],
                             tab["term1"], tab["term2"], tab["lhs"],
                             tab["f_boundary"]])
        write_table_csv(out / "theorem_ratios.csv",
                        ["instance", "lhs", "rhs", "ratio"],
                        [[r["instance"] for r in inst],
                         [r["lhs"] for r in inst],
                         [r["rhs"] for r in inst],
                         [r["ratio"] for r in inst]])
    if cmd == "ratio":
        ratios = report["results"]["ratios"]
        write_table_csv(out / "ratios.csv", ["instance", "ratio"],
                        [list(range(len(ratios))), ratios])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubemax", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    return p


def load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        data["seed"] = args.seed
    if args.threads is not None:
        data["threads"] = args.threads
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, json.JSONDecodeError, OSError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        if args.command == "ratio":
            report = run_ratio_suite(cfg)
        elif args.command == "theorem":
            report = run_theorem_suite(cfg)
            stability = run_refinement_stability(cfg, pairs=min(cfg.repetitions, 12))
            report["results"]["refinement"] = stability["results"]
            report["constants"].update(
                {f"refinement_{k}": v for k, v in stability["constants"].items()})
            report["assertions"].extend(stability["assertions"])
        elif args.command == "checkerboard":
            report = run_checkerboard(cfg.checkerboard_n_max, seed=cfg.seed)
        elif args.command == "dumbbell":
            report = run_dumbbell(seed=cfg.seed)
        elif args.command == "geom":
            report = run_geom_suite(cfg)
        else:
            report = run_sparse_audit(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CubemaxError as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        _print_replay(cfg.to_json())
        return 3
    elapsed = time.perf_counter() - t0

    out = Path(args.out)
    path = write_report(report, out)
    _emit_tables(report, out)
    emit_plot_data(report, out)
    (out / "timings.json").write_text(
        json.dumps({"command": args.command, "seconds": elapsed}) + "\n",
        encoding="utf-8")

    ok = report_passed(report)
    status = "PASS" if ok else "FAIL"
    print(f"{args.command}: {status} ({elapsed:.2f} s) -> {path}")
    for a in report["assertions"]:
        mark = "ok" if a["passed"] else "FAILED"
        detail = f" [{a['detail']}]" if a.get("detail") else ""
        print(f"  {mark:6s} {a['name']}{detail}")
    if not ok:
        _print_replay(report["config"])
        return 1
    return 0


def _print_replay(config: dict) -> None:
    print("replay configuration:", file=sys.stderr)
    print(canonical_json(config), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
