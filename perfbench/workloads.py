"""Workload definitions: the CLI jobs each workload runs, and what a report counts.

A workload is a fixed list of job kinds.  The benchmark runs the list in
cycles; cycle ``c`` runs every kind once with a fresh job seed derived from
the workload seed, so the same workload seed always yields the same inputs.
Every job runs at ``threads = 1``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple


class Kind(NamedTuple):
    name: str
    command: str
    config: dict


KINDS = {
    "operator": [
        Kind("ratio-smooth-64x64", "ratio",
             {"dimension": 2, "grid": 64, "function_class": "random-smooth", "repetitions": 1}),
        Kind("ratio-simple-128x128", "ratio",
             {"dimension": 2, "grid": 128, "function_class": "simple", "repetitions": 1}),
        Kind("ratio-smooth-2048", "ratio",
             {"dimension": 1, "grid": 2048, "function_class": "random-smooth", "repetitions": 1}),
        Kind("ratio-simple-32x32x32", "ratio",
             {"dimension": 3, "grid": 32, "function_class": "simple", "repetitions": 1}),
        Kind("dumbbell", "dumbbell", {}),
        Kind("checkerboard", "checkerboard", {}),
    ],
    "levels": [
        Kind("theorem-smooth-32x32", "theorem",
             {"dimension": 2, "grid": 32, "function_class": "random-smooth", "repetitions": 1}),
        Kind("theorem-smooth-8x8x8", "theorem",
             {"dimension": 3, "grid": 8, "function_class": "random-smooth", "repetitions": 1}),
        Kind("theorem-simple-64x64", "theorem",
             {"dimension": 2, "grid": 64, "function_class": "simple", "family_seeds": 16,
              "repetitions": 8}),
    ],
    "selection": [
        Kind("sparse-audit-16x16", "sparse-audit", {"grid": 16, "repetitions": 16}),
    ],
    "geom": [
        Kind("geom", "geom", {}),
    ],
}

DEFAULT_SEED = 0


class Job(NamedTuple):
    cycle: int
    kind: Kind
    seed: int

    @property
    def id(self) -> str:
        return f"c{self.cycle}/{self.kind.name}"

    @property
    def config(self) -> dict:
        return {**self.kind.config, "threads": 1}

    @property
    def cells(self) -> int:
        if self.kind.command == "checkerboard":
            return (4 * 2 ** 6) ** 2            # run_checkerboard's default n_max = 6
        if self.kind.command == "dumbbell":
            return 40 * 48 + 80 * 96 + 160 * 192  # its three resolutions
        if self.kind.command == "geom":
            return 0
        cfg = self.config
        return cfg.get("grid", 32) ** cfg.get("dimension", 2)


def cycle_jobs(workload: str, seed: int, cycle: int) -> list[Job]:
    """The jobs of one cycle; job seeds are a pure function of the arguments."""
    return [Job(cycle, kind, seed * 100_000 + cycle * 100 + j)
            for j, kind in enumerate(KINDS[workload])]


def write_configs(jobs: list[Job], directory: Path) -> dict[str, Path]:
    """One JSON config file per job kind, as a user would write it."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = directory / f"{job.kind.name}.json"
        path.write_text(json.dumps(job.config, sort_keys=True) + "\n", encoding="utf-8")
        paths[job.kind.name] = path
    return paths


def instance_count(report: dict) -> int:
    """Rows of verified results: ratios, theorem instances and refinement pairs,
    sparse-audit instances, dumbbell resolutions, checkerboard depths, geom checks."""
    res = report["results"]
    command = report["command"]
    if command == "ratio":
        return len(res["ratios"])
    if command == "theorem":
        return len(res["instances"]) + len(res["refinement"]["coarse_ratios"])
    if command == "sparse-audit":
        return len(res["instances"])
    if command == "dumbbell":
        return len(res["rows"])
    if command == "checkerboard":
        return len(res["n"])
    return len(res["geom_checks"])


def headline(report: dict) -> dict:
    """The constants the golden check pins; geom has none (its RNG order may change)."""
    res = report["results"]
    command = report["command"]
    if command == "ratio":
        c = report["constants"]
        return {"ratio_max": c["ratio_max"], "ratio_median": c["ratio_median"]}
    if command == "theorem":
        return {"lhs": [r["lhs"] for r in res["instances"]],
                "rhs": [r["rhs"] for r in res["instances"]]}
    if command == "checkerboard":
        return {"variation": res["variation"]}
    if command == "dumbbell":
        return {"rows": res["rows"]}
    if command == "sparse-audit":
        return {key: [r[key] for r in res["instances"]]
                for key in ("selected", "violations", "overlap_C")}
    return {}


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between two headline values: integers exactly, floats within rel 1e-9."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        if abs(got - want) <= 1e-9 * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
