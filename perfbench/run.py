"""Benchmark of the cubemax command-line jobs.

    python3 perfbench/run.py --workload operator|levels|selection|geom|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the benchmark imports cubemax from
``src/`` and refuses to run (exit 2) without it.  Each job is one
``cubemax.cli.main`` call with a generated config file, a job seed derived
from ``--seed`` and a fresh ``--out`` directory, at ``threads = 1``, in this
single process.

``--trace 0`` runs cycles of the workload's jobs for about ``--seconds``
seconds and reports the end-to-end metrics, the timed ones scaled to a
reference host speed measured between jobs (see README.md).  ``--trace 1`` runs cycle 0
untraced twice, then traced twice, and reports per-layer metrics: totals
over one traced cycle.  ``--workload all`` runs every workload in its own
process and prints one table.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; run
details (machine, versions, per-job sizes) go to ``perfbench/out/``.

A job fails if it raises, exits non-zero or reports a false assertion; on
the default seed also if a headline constant differs from ``golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 3
GOLDEN_CYCLES = 12
REFERENCE_NOMINAL_S = 0.02  # reference_seconds() on a quiet 2-core x86_64 VM


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    if not (SRC / "cubemax" / "__init__.py").is_file():
        raise BenchError(f"no cubemax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubemax
    import cubemax.cli
    import cubemax.geom  # noqa: F401  (imported by every geom job; part of set-up)

    if SRC not in Path(cubemax.__file__).resolve().parents:
        raise BenchError(f"cubemax imported from {cubemax.__file__}, not {SRC}")
    return cubemax.cli


# ------------------------------------------------------------------ set-up

def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to its first job being ready."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_PROBES):
        cfg_dir = tempfile.mkdtemp(dir=work)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed),
                               cfg_dir], stdout=subprocess.PIPE, text=True, env=env) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        shutil.rmtree(cfg_dir)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
    return times


# -------------------------------------------------------------------- jobs

class Runner:
    """Runs jobs through cubemax.cli.main and checks their outputs."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.work = work
        self.tracer: spans.Tracer | None = None
        self.configs = workloads.write_configs(workloads.cycle_jobs(workload, seed, 0),
                                               work / "configs")
        golden = {}
        if seed == workloads.DEFAULT_SEED and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, {})
        self.golden = golden

    def run(self, job: workloads.Job, label: str = "") -> dict:
        out = Path(tempfile.mkdtemp(dir=self.work))
        argv = [job.kind.command, "--config", str(self.configs[job.kind.name]),
                "--seed", str(job.seed), "--out", str(out)]
        problems = []
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    self.tracer.job = label + job.id
                    code = self.tracer.span("cli.main", self.cli.main, argv)
        except Exception as exc:  # a job that raises is a failed job, not a failed benchmark
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if code != 0:
            problems.append(f"exit {code}")
        body = b""
        report = None
        path = out / "report.json"
        if path.is_file():
            body = path.read_bytes()
            report = json.loads(body)
            problems += [f"assertion {a['name']} failed"
                         for a in report["assertions"] if not a["passed"]]
            want = self.golden.get(job.id)
            if want is not None:
                problems += [f"golden {m}" for m in
                             workloads.mismatches(workloads.headline(report), want)]
        elif code == 0:
            problems.append("no report.json written")
        shutil.rmtree(out)
        return {"job": job.id, "kind": job.kind.name, "seed": job.seed, "cells": job.cells,
                "seconds": seconds,
                "instances": workloads.instance_count(report) if report else 0,
                "body": body, "report": report, "problems": problems}


def record(result: dict) -> dict:
    """A job result as written to the run file."""
    return {k: v for k, v in result.items() if k not in ("body", "report")}


# --------------------------------------------------------------- untraced

def reference_seconds() -> float:
    """Time of a fixed piece of Python and numpy work that uses no cubemax code.

    The shared host's speed drifts by 10-20% over minutes; sampled between
    jobs, this tracks it, and the timed metrics are scaled by it.
    """
    values = np.random.default_rng(0).random(4096)
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(150):
        total += np.unique(np.round(np.cumsum(np.sort(values)), 3)).size
    return time.perf_counter() - start


def measure(cli, workload: str, seed: int, seconds: float,
            work: Path) -> tuple[list[dict], list[float], float]:
    """One whole cycle, then further jobs in cycle order while each is predicted
    (by the last run of its kind) to end within ``seconds``.  After each job the
    reference runs once per started second of the job, so its samples weight
    the host's speed by time."""
    runner = Runner(cli, workload, seed, work)
    results, last, refs = [], {}, [reference_seconds() for _ in range(3)]
    start = time.perf_counter()
    cycle = 0
    while True:
        for job in workloads.cycle_jobs(workload, seed, cycle):
            elapsed = time.perf_counter() - start
            if cycle and elapsed + last[job.kind.name] > seconds:
                return results, refs, elapsed
            results.append(runner.run(job))
            last[job.kind.name] = results[-1]["seconds"]
            refs += [reference_seconds() for _ in range(int(last[job.kind.name]) + 1)]
        cycle += 1


def end_to_end(results: list[dict], refs: list[float], setup: list[float]) -> dict:
    """The user-facing metrics.  Job kinds differ in cost, so each kind enters
    through its median job time: ``report_s.p50`` is the median over kinds,
    and ``instances_per_s`` is the verified instances of one cycle over the sum
    of the kinds' median times.  A partly run last cycle then does not shift
    the mix of kinds.  Both are scaled to the host speed at which the reference
    takes ``REFERENCE_NOMINAL_S``."""
    kinds: dict[str, list[dict]] = {}
    for r in results:
        kinds.setdefault(r["kind"], []).append(r)
    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    medians = [scale * statistics.median(r["seconds"] for r in rs) for rs in kinds.values()]
    cycle_instances = sum(statistics.mean(0 if r["problems"] else r["instances"] for r in rs)
                          for rs in kinds.values())
    passed = sum(1 for r in results if not r["problems"])
    return {
        "report_s.p50": (statistics.median(medians), "s", len(results)),
        "instances_per_s": (cycle_instances / sum(medians), "1/s", len(results)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "passed_frac": (passed / len(results), "ratio", len(results)),
    }


# ----------------------------------------------------------------- traced

# per-job sizes in the run file: (key, span name, count)
SIZES = [("breakpoints", "estimates.theorem_main_evaluate", "breakpoints"),
         ("family_before_reduction", "cubes.maximal_cube_reduction", "family_in"),
         ("family_after_reduction", "cubes.maximal_cube_reduction", "family_reduced"),
         ("selected_cubes", "sparse.greedy_sparse", "kept")]


def layer_metrics(tracer: spans.Tracer, first: int, label: str) -> tuple[dict, dict]:
    """Per-layer totals over the spans from index ``first`` on (one cycle), and
    every count that must repeat exactly: calls and the counters of the jobs
    whose label starts with ``label``."""
    out = {}
    for module, attr, _ in spans.TARGETS:
        name = spans.span_name(module, attr)
        out[f"{name}.calls"], out[f"{name}.self_s"] = 0, 0.0
    job_s = unattributed = 0.0
    for idx, own in tracer.self_times(first).items():
        name, start, end, parent, _ = tracer.spans[idx]
        if parent is None:
            job_s += end - start
            unattributed += own
        else:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
    counts: dict[str, int] = {}
    for job, found in tracer.counts.items():
        if job.startswith(label):
            for key, value in found.items():
                counts[key] = counts.get(key, 0) + value
    for key in spans.COUNTS:
        out[key] = counts.get(key, 0)
    for key, (num, den) in spans.RATIOS.items():
        out[key] = counts[num] / counts[den] if counts.get(den) else 0.0
    out["trace.job_s"] = job_s
    out["trace.unattributed_s"] = unattributed
    counts.update((key, value) for key, value in out.items() if key.endswith(".calls"))
    return out, counts


def traced(cli, workload: str, seed: int, work: Path) -> tuple[list[dict], dict, list[dict]]:
    """Cycle 0 untraced twice (the first also warms up), then traced twice."""
    tracer = spans.Tracer()
    runner = Runner(cli, workload, seed, work)
    jobs = workloads.cycle_jobs(workload, seed, 0)
    passes, walls, layers, counts = [], [], [], []
    for p in range(4):
        if p == 2:
            tracer.install()
            runner.tracer = tracer
        first = len(tracer.spans)
        t0 = time.perf_counter()
        passes.append([runner.run(job, f"p{p}/") for job in jobs])
        walls.append(time.perf_counter() - t0)
        if runner.tracer is not None:
            found_layers, found_counts = layer_metrics(tracer, first, f"p{p}/")
            layers.append(found_layers)
            counts.append(found_counts)
    for same_job in zip(*passes):
        if len({r["body"] for r in same_job}) != 1:
            same_job[-1]["problems"].append("report bodies differ between untraced and traced runs")
    results = [r for rs in passes for r in rs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        results[-1]["problems"].append(f"counts differ between traced runs: {diff}")
    metrics = {key: (value + layers[1][key]) / 2 if key.endswith("_s") else value
               for key, value in layers[0].items()}
    metrics["trace.overhead_frac"] = min(walls[2:]) / min(walls[:2]) - 1
    sizes = []
    for job in jobs:
        found = tracer.counts[f"p2/{job.id}"]
        sizes.append({"job": job.id, "seed": job.seed, "cells": job.cells,
                      **{key: found.get(f"{layer}.{count}", 0) for key, layer, count in SIZES}})
    tracer.write(OUT / f"{workload}-seed{seed}-spans.jsonl")
    return results, metrics, sizes


# ----------------------------------------------------------------- output

def machine() -> dict:
    import scipy

    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_one(cli, args, work: Path) -> int:
    meta = {**machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        results, values, sizes = traced(cli, args.workload, args.seed, work)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
        detail = {"meta": meta, "sizes": sizes}
        for name in sorted(values):
            print(f"{name:58s} {values[name]:14.6g} {spans.unit(name)}")
    else:
        setup = measure_setup(args.workload, args.seed, work)
        results, refs, wall = measure(cli, args.workload, args.seed, args.seconds, work)
        table = end_to_end(results, refs, setup)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()}
        detail = {"meta": meta, "wall_s": wall, "setup_s": setup, "reference_s": refs}
        print(f"host reference: median {statistics.median(refs):.5f} s over {len(refs)} runs, "
              f"nominal {REFERENCE_NOMINAL_S} s")
        for name, (value, unit, n) in table.items():
            print(f"{name:16s} {value:12.6g} {unit:6s} n={n}")
    failed = sum(1 for r in results if r["problems"])
    for r in results:
        for problem in r["problems"]:
            print(f"FAILED {r['job']} (seed {r['seed']}): {problem}")
    detail["jobs"] = [record(r) for r in results]
    detail["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one table."""
    print(f"{'workload':10s} {'metric':16s} {'value':>12s} unit")
    code = 0
    for workload in workloads.KINDS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload:10s} benchmark failed with exit code {proc.returncode}")
            code = 1
            continue
        counts = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if " n=" in ln}
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:10s} {name:16s} {m['value']:12.6g} {m['unit']:6s} {counts[name]}")
        print(f"{workload:10s} {'failed_frac':16s} "
              f"{result['failed'] / result['attempted']:12.6g} ratio  n={result['attempted']}")
        code = max(code, proc.returncode)
    return code


def write_golden(cli, work: Path) -> int:
    """Record the headline constants of the first cycles at the default seed."""
    golden = {}
    for workload in workloads.KINDS:
        runner = Runner(cli, workload, workloads.DEFAULT_SEED, work / workload)
        runner.golden = {}
        entries = {}
        for cycle in range(GOLDEN_CYCLES):
            for job in workloads.cycle_jobs(workload, workloads.DEFAULT_SEED, cycle):
                if job.kind.command == "geom":
                    continue  # no headline constants: geom is checked by its assertions
                result = runner.run(job)
                if result["problems"]:
                    print(f"{job.id}: {result['problems']}", file=sys.stderr)
                    return 1
                value = workloads.headline(result["report"])
                if value:
                    entries[job.id] = value
        if entries:
            golden[workload] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*workloads.KINDS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help=f"record golden.json from cycles 0-{GOLDEN_CYCLES - 1} at seed "
                        f"{workloads.DEFAULT_SEED} (only when results change on purpose)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    try:
        if args.workload == "all":
            return run_all(args)
        cli = import_cli()
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as work:
            if args.write_golden:
                return write_golden(cli, Path(work))
            return run_one(cli, args, Path(work))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
