"""Outside-in tracing of cubemax: spans around calls into each module's public functions.

``Tracer.install`` rebinds every name under which a ``cubemax`` module holds a
traced function (``experiments.maximal_global`` as well as
``maximal.maximal_global``) to a wrapper that records a span and, for some
functions, counts computed from the call's arguments and return value.
Micro-helpers (``cubes.dilate``, ``RealBox.*``, ``GridCube.*``,
``SummedAreaTable.box_sum``) stay unwrapped: they run 10^5-10^6 times per
selection cycle, so their cost lands in the caller's self time.

Spans are ``(name, start, end, parent, job)`` tuples kept in memory; a
span's interval includes the counting done for it, which is cheap against
the call it wraps.  Nothing here changes what the library computes.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _distinct_values(args, kwargs, out, *_):
    f = args[0]
    mask = args[1] if len(args) > 1 else kwargs.get("mask")
    vals = f.values if mask is None else f.values[mask.mask.ravel()]
    return {"distinct_values": np.unique(vals[np.isfinite(vals)]).size}


def _sat_cells(args, kwargs, out, *_):
    return {"cells": int(np.prod(args[0].dims))}


def _queries(args, kwargs, out, *_):
    return {"queries": len(out)}


def _reduction(args, kwargs, out, own, parent):
    parent["reduced_averages"] = np.asarray(out.averages)
    return {"family_in": len(args[0]), "family_reduced": len(out)}


def _cell_side_passes(args, kwargs, out, *_):
    dims = args[0].dims
    return {"cell_side_passes": int(np.prod(dims)) * min(dims) * len(dims)}


def _disjoint_select(args, kwargs, out, *_):
    cubes_in = len({q for ds in args[1].values() for q in ds})
    return {"cubes_in": cubes_in, "kept": len(out.cubes)}


def _greedy(args, kwargs, out, *_):
    return {"cubes_in": len(args[1]), "kept": len(out)}


def _theorem(args, kwargs, out, own, parent):
    bps = np.asarray(out.lam_table["lam"])
    reduced = own.get("reduced_averages", np.empty(0))
    return {"breakpoints": bps.size,
            "cell_levels": args[0].cell_count * bps.size,
            "union_changes": int(np.count_nonzero(np.isin(bps, reduced)))}


def _trials(args, kwargs, out, *_):
    return {"trials": args[1] if len(args) > 1 else kwargs["trials"]}


def _report_bytes(args, kwargs, out, *_):
    return {"bytes": out.stat().st_size}


# (module, attribute, counter).  A counter gets the call's arguments and
# result plus two note dicts: its own span's, where child spans leave values,
# and its parent's.  SummedAreaTable methods are wrapped on the class.
TARGETS = [
    ("grid", "variation", _distinct_values),
    ("grid", "perimeter", None),
    ("grid", "boundary_faces_outside", None),
    ("sat", "SummedAreaTable.__init__", _sat_cells),
    ("sat", "SummedAreaTable.box_sum_many", _queries),
    ("cubes", "dyadic_completion", None),
    ("cubes", "is_dyadically_complete", None),
    ("cubes", "maximal_cube_reduction", _reduction),
    ("cubes", "family_averages", None),
    ("maximal", "maximal_global", _cell_side_passes),
    ("maximal", "maximal_local", None),
    ("maximal", "maximal_family", None),
    ("partition", "partition_at", None),
    ("sparse", "disjoint_select", _disjoint_select),
    ("sparse", "greedy_sparse", _greedy),
    ("sparse", "sparse_pairwise_violations", None),
    ("sparse", "accumulate_q2_cubes", None),
    ("estimates", "theorem_main_evaluate", _theorem),
    ("geom", "cube_cover_check", _trials),
    ("geom", "cube_angle_check", None),
    ("geom", "min_angle_search", None),
    ("geom", "lipschitz_blowup_check", None),
    ("geom", "large_boundary_in_ball_check", None),
    ("generators", "make_function", None),
    ("generators", "random_complete_family", None),
    ("io", "write_report", _report_bytes),
    ("experiments", "run_ratio_suite", None),
    ("experiments", "run_checkerboard", None),
    ("experiments", "run_dumbbell", None),
    ("experiments", "run_theorem_suite", None),
    ("experiments", "run_refinement_stability", None),
    ("experiments", "run_sparse_audit", None),
    ("experiments", "run_geom_suite", None),
]

# published counts, summed over the calls of one cycle
COUNTS = [
    "grid.variation.distinct_values",
    "sat.SummedAreaTable.cells",
    "sat.box_sum_many.queries",
    "maximal.maximal_global.cell_side_passes",
    "sparse.disjoint_select.cubes_in",
    "estimates.theorem_main_evaluate.breakpoints",
    "estimates.theorem_main_evaluate.cell_levels",
    "geom.cube_cover_check.trials",
    "io.write_report.bytes",
]

# ratio metrics: name -> (numerator count, denominator count)
RATIOS = {
    "cubes.maximal_cube_reduction.kept_frac": ("cubes.maximal_cube_reduction.family_reduced",
                                               "cubes.maximal_cube_reduction.family_in"),
    "sparse.disjoint_select.kept_frac": ("sparse.disjoint_select.kept",
                                         "sparse.disjoint_select.cubes_in"),
    "sparse.greedy_sparse.kept_frac": ("sparse.greedy_sparse.kept",
                                       "sparse.greedy_sparse.cubes_in"),
    "estimates.theorem_main_evaluate.union_change_frac": (
        "estimates.theorem_main_evaluate.union_changes",
        "estimates.theorem_main_evaluate.breakpoints"),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "B" if metric.endswith(".bytes") else "count"


def span_name(module: str, attr: str) -> str:
    """``sat.SummedAreaTable`` for the constructor, ``sat.box_sum_many`` for a method."""
    cls, _, meth = attr.rpartition(".")
    return f"{module}.{cls if meth == '__init__' else meth}"


class Tracer:
    """Records spans and counts for the wrapped cubemax functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: str | None = None
        self._stack: list[tuple[int, dict]] = []

    # ---------------------------------------------------------- recording

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            notes: dict = {}
            self.spans.append(None)
            self._stack.append((idx, notes))
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    parent_notes = self._stack[-2][1] if len(self._stack) > 1 else {}
                    job = self.counts[self.job]
                    for key, value in counter(args, kwargs, out, notes, parent_notes).items():
                        job[f"{name}.{key}"] += value
                return out
            finally:
                self._stack.pop()
                self.spans[idx] = (name, start, perf_counter(), parent, self.job)

        return traced

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span of the current job."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Rebind every traced function in every loaded cubemax module."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "cubemax" or name.startswith("cubemax.")}
        for module, attr, counter in TARGETS:
            name = span_name(module, attr)
            owner = mods[f"cubemax.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, counter)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    # ---------------------------------------------------------- reporting

    def self_times(self, first: int = 0) -> dict[int, float]:
        """Per-span self time for spans from index ``first`` on."""
        own = {}
        for idx in range(first, len(self.spans)):
            _, start, end, parent, _ = self.spans[idx]
            own[idx] = own.get(idx, 0.0) + (end - start)
            if parent is not None and parent >= first:
                own[parent] = own.get(parent, 0.0) - (end - start)
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
