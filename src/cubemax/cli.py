"""Command-line front door.

    cubemax ratio|theorem|checkerboard|dumbbell|geom|sparse-audit
            [--config file.json] [--seed N] [--out DIR]

One serial path: read the config, create the output directory, run the
command's runner, which returns the whole report, then write ``report.json``,
the command's tables and ``timings.json``.

Exit codes: 0 all assertions passed, 1 an assertion failed (the failing
configuration is printed for replay), 2 invalid configuration or output
directory, 3 a library error (a ``CubemaxError`` such as
``InvariantViolated``) stopped the run (one ``error: <ErrorType>: <message>``
line and the replay configuration go to stderr).
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
    run_sparse_audit,
    run_theorem_suite,
)
from .io import canonical_json, write_columns, write_report

COMMANDS = ("ratio", "theorem", "checkerboard", "dumbbell", "geom", "sparse-audit")


def emit_tables(report: dict, out_dir) -> list[Path]:
    """Write a report's CSV tables and gnuplot-ready ``.dat`` columns into
    ``out_dir``; return their paths."""
    out = Path(out_dir)
    res = report["results"]
    written = []

    def table(name: str, header: list[str], columns) -> None:
        path = out / name
        if name.endswith(".csv"):
            write_columns(path, columns, ",", ",".join(header))
        else:
            write_columns(path, columns, " ", "# " + " ".join(header))
        written.append(path)

    def histogram(name: str, ratios: np.ndarray) -> None:
        counts, edges = np.histogram(ratios, bins=min(20, max(4, ratios.size // 4)))
        table(name, ["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts])

    cmd = report["command"]
    if cmd == "checkerboard":
        table("checkerboard_growth.dat", ["n", "variation"], [res["n"], res["variation"]])
    elif cmd == "ratio":
        ratios = res["ratios"]
        table("ratios.csv", ["instance", "ratio"], [range(len(ratios)), ratios])
        histogram("ratio_histogram.dat", np.asarray(ratios))
    elif cmd == "theorem":
        inst = res["instances"]
        tab = inst[0]["per_lambda"]
        names = ["lam", "n_q0", "n_q1", "n_q2", "term1", "term2", "lhs", "f_boundary"]
        table("per_lambda.csv", names, [tab[k] for k in names])
        names = ["lam", "lhs", "f_boundary", "term1", "term2"]
        table("per_lambda_trace.dat", names, [tab[k] for k in names])
        names = ["instance", "lhs", "rhs", "ratio"]
        table("theorem_ratios.csv", names, [[r[k] for r in inst] for k in names])
        ratios = np.asarray([r["ratio"] for r in inst if np.isfinite(r["ratio"])])
        if ratios.size:
            histogram("theorem_ratio_histogram.dat", ratios)
    return written


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubemax", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--out", type=str, default="out", help="output directory")
    return p


def load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        data["seed"] = args.seed
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, json.JSONDecodeError, UnicodeDecodeError, OSError,
            TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # module-level names, so that a tracer that rebinds them sees every call
    t0 = time.perf_counter()
    try:
        if args.command == "ratio":
            report = run_ratio_suite(cfg)
        elif args.command == "theorem":
            report = run_theorem_suite(cfg)
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

    path = write_report(report, out)
    emit_tables(report, out)
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
