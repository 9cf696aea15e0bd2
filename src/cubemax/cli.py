"""Command-line front door.

    cubemax ratio|theorem|checkerboard|dumbbell|geom|sparse-audit
            [--config file.json] [--seed N] [--out DIR]

One serial path: read the config, create the output directory, run the
command's runner, which returns the whole report and the command's tables,
then write ``report.json``, the tables and ``timings.json``.  A command reads
the config keys that ``experiments.READS`` names for it, and its report's
``config`` block holds exactly those.

Exit codes: 0 all assertions passed; 1 an assertion failed (the replay
configuration, the report's ``config`` block, goes to stderr); 2 an invalid
config or output directory, found before the run: a value out of range, a
file that is not one UTF-8 JSON object, or a key that the command does not
read; 3 a library error (a ``CubemaxError`` such as ``InvariantViolated``)
stopped the run (one ``error: <ErrorType>: <message>`` line and the replay
configuration go to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import ConfigError, CubemaxError
from .experiments import (
    READS,
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

COMMANDS = tuple(READS)


def emit_tables(tables: dict, out_dir) -> list[Path]:
    """Write each ``name: (header, columns)`` table into ``out_dir``: a
    ``.csv`` name as comma-separated values, any other as gnuplot-ready
    space-separated columns under a ``#`` header; return their paths.  A
    column array that several tables share is formatted once."""
    written, memo = [], {}
    for name, (header, columns) in tables.items():
        path = Path(out_dir) / name
        sep, mark = (",", "") if name.endswith(".csv") else (" ", "# ")
        write_columns(path, columns, sep, mark + sep.join(header), memo)
        written.append(path)
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
        if not isinstance(data, dict):
            raise ConfigError(f"a config file holds one JSON object, got {type(data).__name__}")
    if args.seed is not None:
        data["seed"] = args.seed
    return ExperimentConfig.from_dict(data, args.command)


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

    # looked up by module-level name at each call, so that a tracer that
    # rebinds the names sees every call
    runner = {"ratio": run_ratio_suite, "theorem": run_theorem_suite,
              "checkerboard": run_checkerboard, "dumbbell": run_dumbbell,
              "geom": run_geom_suite, "sparse-audit": run_sparse_audit}[args.command]
    t0 = time.perf_counter()
    try:
        report, tables = runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CubemaxError as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        _print_replay(cfg.to_json(args.command))
        return 3
    t1 = time.perf_counter()
    elapsed = t1 - t0

    path = write_report(report, out)
    emit_tables(tables, out)
    write_seconds = time.perf_counter() - t1
    (out / "timings.json").write_text(
        json.dumps({"command": args.command, "seconds": elapsed,
                    "write_seconds": write_seconds}) + "\n", encoding="utf-8")

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
