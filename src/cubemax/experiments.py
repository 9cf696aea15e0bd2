"""Named experiments and suite runners behind the command-line interface.

Every runner is deterministic given the configured seed: instances run one
after another in order, and instance k draws from ``default_rng([seed, k])``,
so a seed fixes the report body byte for byte.  Each runner returns its
command's whole report and its tables: a dict from output file name to the
table's header and columns, built next to the data they show.  Wall-clock
timings are kept out of the report body and written separately.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cubes import (
    CubeFamily,
    cube_contains,
    dyadic_descendants,
    is_dyadically_complete,
    is_power_of_two,
)
from .errors import ConfigError
from .estimates import DEFAULT_RATIO_CAPS, theorem_main_evaluate
from .generators import (
    FUNCTION_CLASSES,
    make_function,
    random_complete_family,
    random_family,
)
from .grid import GridFunction, PixelSet, variation
from .maximal import maximal_family, maximal_global, maximal_local, nonzero_variation
from .sat import SummedAreaTable
from .sparse import (
    accumulate_q2_cubes,
    default_contraction,
    disjoint_select,
    greedy_sparse,
    sparse_pairwise_violations,
)

SCHEMA_VERSION = 1

# accepted value types per ExperimentConfig annotation (bool is rejected separately)
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict}

# the most cells a configured grid may hold (128 MB per float array)
MAX_CELLS = 2 ** 24


@dataclass
class ExperimentConfig:
    seed: int = 0
    dimension: int = 2
    grid: int = 32
    h: float = 1.0
    function_class: str = "simple"
    repetitions: int = 20
    family_seeds: int = 6
    deep_instances: int = 2
    checkerboard_n_max: int = 6
    geom_samples: int = 100_000
    caps: dict = field(default_factory=lambda: dict(DEFAULT_RATIO_CAPS))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.dimension not in (1, 2, 3):
            raise ConfigError(f"dimension {self.dimension} not in {{1,2,3}}")
        if self.grid < 2:
            raise ConfigError("grid must have at least 2 cells per axis")
        if self.grid ** self.dimension > MAX_CELLS:
            raise ConfigError(f"grid ** dimension must be at most {MAX_CELLS} cells")
        try:
            cell_volume = float(self.h) ** self.dimension
        except OverflowError:
            cell_volume = math.inf
        if not (self.h > 0 and math.isfinite(cell_volume)):
            raise ConfigError(f"h must be positive with a finite h ** dimension, got h={self.h!r}")
        if self.function_class not in FUNCTION_CLASSES:
            raise ConfigError(f"unknown function class {self.function_class!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be positive")
        if self.geom_samples < 1:
            raise ConfigError("geom_samples must be positive")
        if not 1 <= self.family_seeds <= 24:
            # sparse-audit draws between 8 * family_seeds and 200 cubes
            raise ConfigError(f"family_seeds must be in 1..24, got {self.family_seeds}")
        if not 3 <= self.checkerboard_n_max <= 10:
            # the checkerboard grid has (4 * 2^n_max)^2 cells, at most MAX_CELLS
            raise ConfigError(f"checkerboard_n_max must be in 3..10, got {self.checkerboard_n_max}")
        if self.deep_instances < 0:
            raise ConfigError("deep_instances must be non-negative")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and 0 < v <= sys.float_info.max for v in self.caps.values()):
            raise ConfigError(f"caps values must be finite positive numbers, got {self.caps!r}")
        try:
            self.caps = {int(k): float(v) for k, v in self.caps.items()}
        except (TypeError, ValueError):
            raise ConfigError(f"caps keys must be dimensions, got {list(self.caps)}") from None
        if self.dimension not in self.caps:
            raise ConfigError(f"caps has no entry for dimension {self.dimension}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        # The benchmark's job configs still carry "threads": 1 from when runs
        # could use a thread pool; accept exactly that and drop it until they
        # stop writing the key.
        if "threads" in obj:
            if type(obj["threads"]) is not int or obj["threads"] != 1:
                raise ConfigError(f"the threads option is gone (runs are serial), "
                                  f"got threads={obj['threads']!r}")
            obj = {k: v for k, v in obj.items() if k != "threads"}
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def to_json(self) -> dict:
        out = asdict(self)
        out["caps"] = {str(k): v for k, v in self.caps.items()}
        return out

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.grid,) * self.dimension


def _instance_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _report_skeleton(command: str, cfg: ExperimentConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": cfg.to_json(),
        "assertions": [],
        "results": {},
        "constants": {},
    }


def _assert(report: dict, name: str, passed: bool, detail: str = "") -> None:
    report["assertions"].append({"name": name, "passed": bool(passed), "detail": detail})


def report_passed(report: dict) -> bool:
    return all(a["passed"] for a in report["assertions"])


def _scale_measures(obj: dict, keys, h: float, d: int) -> None:
    """Multiply each cell-unit measure ``obj[key]`` (a variation, face count
    or level integral: a float, a list or an array) once by h ** (d - 1).
    Ratios are taken before, so an extreme ``h`` never moves one."""
    unit = float(h) ** (d - 1)
    for key in keys:
        obj[key] = [v * unit for v in obj[key]] if isinstance(obj[key], list) else obj[key] * unit


def _histogram(ratios) -> tuple[list[str], list]:
    """Histogram table of a nonempty ratio list: 4 to 20 equal bins."""
    ratios = np.asarray(ratios)
    counts, edges = np.histogram(ratios, bins=min(20, max(4, ratios.size // 4)))
    return ["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts]


# ---------------------------------------------------------------- ratio suite

def run_ratio_suite(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Variation ratios var(M f) / var(f) of the global maximal operator on
    generated functions."""
    report = _report_skeleton("ratio", cfg)
    ratios = []
    for k in range(cfg.repetitions):
        f = make_function(_instance_rng(cfg.seed, k), cfg.function_class, cfg.dims)
        ratios.append(float(variation(maximal_global(f)) / nonzero_variation(f)))
    report["results"]["ratios"] = ratios
    report["constants"]["ratio_max"] = max(ratios)
    report["constants"]["ratio_median"] = float(np.median(ratios))
    if cfg.dimension == 1:
        bad = [r for r in ratios if r > 1.0 + 1e-9]
        _assert(report, "one_dimensional_non_increase", not bad,
                f"{len(bad)} ratios above 1+1e-9" if bad else "all ratios <= 1+1e-9")
    _assert(report, "ratios_finite", all(math.isfinite(r) for r in ratios))
    tables = {"ratios.csv": (["instance", "ratio"], [range(len(ratios)), ratios]),
              "ratio_histogram.dat": _histogram(ratios)}
    return report, tables


# -------------------------------------------------------------- checkerboard

def checkerboard_family(n: int, n_max: int) -> CubeFamily:
    """Large dyadic cubes of the 4x4 box plus the even-parity scale-n subcells
    of the centered unit square, on the grid with cell 2^-n_max."""
    unit = 2 ** n_max            # cells per unit length
    sub = 2 ** (n_max - n)       # cells per parity subcell
    cells = np.indices((2 ** n, 2 ** n)).reshape(2, -1).T
    even = cells[cells.sum(axis=1) % 2 == 0]
    anchors = np.concatenate((unit * np.array([[0, 0], [0, 0], [0, 2], [2, 0], [2, 2]]),
                              unit + even * sub))
    sides = np.concatenate((unit * np.array([4, 2, 2, 2, 2]), np.full(len(even), sub)))
    return CubeFamily.from_arrays(anchors, sides)


def run_checkerboard(n_max: int = 6, seed: int = 0) -> tuple[dict, dict]:
    """Family-average maximal function of a unit-square indicator whose
    variation grows geometrically with the parity-cell depth."""
    cfg = ExperimentConfig(seed=seed, dimension=2, grid=4 * 2 ** n_max,
                           h=2.0 ** (-n_max), checkerboard_n_max=n_max)
    report = _report_skeleton("checkerboard", cfg)
    unit = 2 ** n_max
    dims = (4 * unit, 4 * unit)
    vals = np.zeros(dims)
    vals[unit:2 * unit, unit:2 * unit] = 1.0
    f = GridFunction(dims, vals.ravel())

    sat = SummedAreaTable(f.array)  # f is the same at every depth
    variations = []
    incomplete_each = []
    for n in range(0, n_max + 1):
        fam = checkerboard_family(n, n_max).with_averages(f, sat)
        mf = maximal_family(f, fam)
        variations.append(variation(mf))
        if n >= 1:
            ok, witness = is_dyadically_complete(fam)
            incomplete_each.append(not ok and witness is not None)
    ratios = [variations[i + 1] / variations[i] for i in range(len(variations) - 1)]
    report["results"]["n"] = list(range(0, n_max + 1))
    report["results"]["variation"] = [float(v) for v in variations]
    _scale_measures(report["results"], ("variation",), cfg.h, 2)
    report["results"]["growth_ratios"] = [float(r) for r in ratios]
    window = [float(ratios[n]) for n in range(2, n_max)]
    _assert(report, "geometric_growth",
            all(1.5 <= r <= 2.5 for r in window),
            f"ratios for n=2..{n_max - 1}: {[round(r, 3) for r in window]}")
    _assert(report, "families_not_dyadically_complete", all(incomplete_each),
            "witness found for every n >= 1")
    res = report["results"]
    return report, {"checkerboard_growth.dat": (["n", "variation"], [res["n"], res["variation"]])}


# ------------------------------------------------------------------ dumbbell

DUMBBELL_INTEGRAL = 1.0 / 6.0  # exact integral of the corner ramp over its support


def dumbbell_domain(h: float) -> tuple[GridFunction, PixelSet]:
    """The two-chamber domain (-5,5)x(-10,0) joined to (-1,1)x[0,2) by a neck,
    with the ramp max(0, -14 - x - y) discretized by exact cell averages."""
    nx = round(10 / h)
    ny = round(12 / h)
    dims = (nx, ny)
    xc = -5.0 + (np.arange(nx) + 0.5) * h
    yc = -10.0 + (np.arange(ny) + 0.5) * h
    lower = (yc < 0)
    neckx = (np.abs(xc) < 1)
    necky = (yc >= 0) & (yc < 2)
    omega = np.zeros(dims, dtype=bool)
    omega[:, lower] = True
    omega[np.ix_(neckx, necky)] = True

    def antideriv(t):
        # t ** 3 / 6 on the ramp's support t > 0 only, a small corner of the grid
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = t[pos] ** 3 / 6.0
        return out

    # cell average of max(0, 1 - u - v), u = x + 5, v = y + 10
    u0 = (xc - 0.5 * h) + 5.0
    v0 = (yc - 0.5 * h) + 10.0
    w = 1.0 - np.add.outer(u0, v0)
    integral = antideriv(w) - 2.0 * antideriv(w - h) + antideriv(w - 2.0 * h)
    vals = integral / (h * h)
    vals[~omega] = 0.0
    return GridFunction(dims, vals.ravel()), PixelSet(dims, omega)


def run_dumbbell(seed: int = 0, resolutions=(0.25, 0.125, 0.0625)) -> tuple[dict, dict]:
    cfg = ExperimentConfig(seed=seed, dimension=2, grid=4, h=resolutions[0])
    report = _report_skeleton("dumbbell", cfg)
    target = DUMBBELL_INTEGRAL / 100.0
    rows = []
    for h in resolutions:
        f, omega = dumbbell_domain(h)
        mf = maximal_local(f, omega)
        yc = -10.0 + (np.arange(f.dims[1]) + 0.5) * h
        neck_cells = omega.mask & (yc >= 0)[None, :]
        lower_cells = omega.mask & (yc < 0)[None, :]
        rows.append({"h": h, "neck_max": float(np.max(np.abs(mf.array[neck_cells]))),
                     "lower_min": float(np.min(mf.array[lower_cells])),
                     "target": target, "variation": float(variation(mf, omega))})
        _scale_measures(rows[-1], ("variation",), h, 2)
    report["results"]["rows"] = rows
    jump_floor = 2.0 * target * (1 - 1e-9)  # waist length 2 times the chamber level
    _assert(report, "neck_values_zero", all(r["neck_max"] == 0.0 for r in rows))
    _assert(report, "lower_chamber_floor",
            all(r["lower_min"] >= target * (1 - 1e-12) for r in rows), f"floor {target!r}")
    _assert(report, "jump_persists_under_refinement",
            all(r["variation"] >= jump_floor for r in rows))
    return report, {}


# ------------------------------------------------------------- theorem suite

def _theorem_instance(cfg: ExperimentConfig, k: int) -> tuple[dict, dict]:
    """Instance k's report row and its per-level table, in cell units."""
    rng = _instance_rng(cfg.seed, k)
    f = make_function(rng, cfg.function_class, cfg.dims)
    fam = random_complete_family(rng, cfg.dims, cfg.family_seeds).with_averages(f)
    rep = theorem_main_evaluate(
        f, fam, cap=cfg.caps[cfg.dimension], deep=(k < cfg.deep_instances))
    row = {
        "instance": k, "family_size": len(fam),
        "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
        "within_cap": rep.within_cap,
        "subterms": rep.subterms,
    }
    if rep.deep is not None:
        row["deep"] = rep.deep
    return row, rep.lam_table


def run_theorem_suite(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Main-inequality ratios per instance, then the refinement check of
    :func:`run_refinement_stability` on up to 12 pairs.  Instance 0's
    per-level table goes to the tables only.  The measures go to the cell
    width after every ratio and constant is taken."""
    report = _report_skeleton("theorem", cfg)
    row, lam = _theorem_instance(cfg, 0)
    rows = [row] + [_theorem_instance(cfg, k)[0] for k in range(1, cfg.repetitions)]
    report["results"]["instances"] = rows
    finite = [r["ratio"] for r in rows if math.isfinite(r["ratio"]) and r["rhs"] > 0]
    report["constants"]["ratio_max"] = max(finite) if finite else 0.0
    report["constants"]["ratio_median"] = float(np.median(finite)) if finite else 0.0
    _assert(report, "all_within_cap", all(r["within_cap"] for r in rows),
            f"cap {cfg.caps[cfg.dimension]}")
    stability = run_refinement_stability(cfg, pairs=min(cfg.repetitions, 12))
    report["results"]["refinement"] = stability["results"]
    report["constants"].update(
        {f"refinement_{k}": v for k, v in stability["constants"].items()})
    report["assertions"].extend(stability["assertions"])
    d = cfg.dimension
    for r in rows:
        _scale_measures(r, ("lhs", "rhs"), cfg.h, d)
        _scale_measures(r["subterms"], ("high_density_integral", "q2_boundary_integral",
                                        "sparse_rhs_sum"), cfg.h, d)
    _scale_measures(lam, ("term1", "term2", "lhs", "f_boundary"), cfg.h, d)
    level = ["lam", "n_q0", "n_q1", "n_q2", "term1", "term2", "lhs", "f_boundary"]
    trace = ["lam", "lhs", "f_boundary", "term1", "term2"]
    names = ["instance", "lhs", "rhs", "ratio"]
    tables = {"per_lambda.csv": (level, [lam[k] for k in level]),
              "per_lambda_trace.dat": (trace, [lam[k] for k in trace]),
              "theorem_ratios.csv": (names, [[r[k] for r in rows] for k in names])}
    ratios = [r["ratio"] for r in rows if math.isfinite(r["ratio"])]
    if ratios:
        tables["theorem_ratio_histogram.dat"] = _histogram(ratios)
    return report, tables


def refine_instance(f: GridFunction, fam: CubeFamily) -> tuple[GridFunction, CubeFamily]:
    """The same function/family shape at doubled grid resolution.

    Each cell splits into 2^d children carrying the parent value and every
    cube doubles its anchor and side, so averages and level sets are the
    exact refinements of the coarse ones.
    """
    arr = f.array
    for ax in range(f.d):
        arr = np.repeat(arr, 2, axis=ax)
    f2 = GridFunction(arr.shape, arr.ravel())
    return f2, CubeFamily.from_arrays(2 * fam.anchors, 2 * fam.sides).with_averages(f2)


def run_refinement_stability(cfg: ExperimentConfig, pairs: int = 12) -> dict:
    """Max main-inequality ratio at the base resolution and at double
    resolution for identical shapes; returns the ``results``, ``constants``
    and ``assertions`` that :func:`run_theorem_suite` merges, with maxima and
    relative change 0 when no pair has a positive right-hand side."""
    coarse = []
    fine = []
    for k in range(pairs):
        rng = _instance_rng(cfg.seed, 10_000 + k)
        f = make_function(rng, cfg.function_class, cfg.dims)
        fam = random_complete_family(rng, cfg.dims, cfg.family_seeds).with_averages(f)
        rep1 = theorem_main_evaluate(f, fam, cap=cfg.caps[cfg.dimension], deep=False)
        f2, fam2 = refine_instance(f, fam)
        rep2 = theorem_main_evaluate(f2, fam2, cap=cfg.caps[cfg.dimension], deep=False)
        if rep1.rhs > 0 and rep2.rhs > 0:
            coarse.append(rep1.ratio)
            fine.append(rep2.ratio)
    mx1, mx2 = max(coarse, default=0.0), max(fine, default=0.0)
    change = abs(mx2 - mx1) / mx1 if mx1 > 0 else 0.0
    report = {"results": {"coarse_ratios": [float(r) for r in coarse],
                          "fine_ratios": [float(r) for r in fine]},
              "constants": {"max_ratio_coarse": mx1, "max_ratio_fine": mx2,
                            "relative_change": change},
              "assertions": []}
    _assert(report, "max_ratio_stable_under_refinement", change < 0.2,
            f"relative change {change:.4f}")
    return report


# -------------------------------------------------------------- sparse audit

def run_sparse_audit(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Postcondition audits of the greedy selection and of the
    bounded-overlap thinning, on pipeline-grown and raw random inputs."""
    report = _report_skeleton("sparse-audit", cfg)
    rows = []
    for k in range(cfg.repetitions):
        rng = _instance_rng(cfg.seed, k)
        if k % 2 == 0:
            # genuine pipeline: spiky function, completion family with the box
            f = make_function(rng, "spikes", cfg.dims)
            fam = random_complete_family(rng, cfg.dims, cfg.family_seeds).with_averages(f)
            q2 = accumulate_q2_cubes(f, fam)
        else:
            # raw input: the greedy postconditions hold for any cube set
            f = make_function(rng, cfg.function_class, cfg.dims)
            count = int(rng.integers(cfg.family_seeds * 8, 200))
            q2 = random_family(rng, cfg.dims, count, pow2=False).with_averages(f)
        sp = greedy_sparse(f, q2)
        violations = sparse_pairwise_violations(sp, f)
        # bounded-overlap instance: bases are power-of-two selected cubes,
        # the per-base collections are random dyadic descendants
        eps = default_contraction(f.d)
        bases = sp.cubes.select(is_power_of_two(sp.cubes.sides))
        ba, bs = bases.anchors, bases.sides
        d_map = {}
        for q0 in bases:
            dy = dyadic_descendants(q0)
            # a containing cube of another side holds that base strictly
            holds = cube_contains(dy.anchors[:, None], dy.sides[:, None], ba, bs) \
                & (dy.sides[:, None] != bs)
            pick = dy.select((rng.random(len(dy)) < 0.35) & ~holds.any(axis=1))
            if len(pick):
                d_map[q0] = pick
        overlap_c = 0
        if d_map:
            fl = disjoint_select(CubeFamily(list(d_map)), d_map, eps, f)
            overlap_c = fl.overlap_constant
        rows.append({"instance": k, "input_cubes": len(q2), "selected": len(sp),
                     "violations": len(violations), "overlap_C": overlap_c})
    report["results"]["instances"] = rows
    worst_c = max((r["overlap_C"] for r in rows), default=0)
    report["constants"]["overlap_C_max"] = worst_c
    report["constants"]["selected_max"] = max((r["selected"] for r in rows), default=0)
    _assert(report, "greedy_pairwise_postconditions",
            all(r["violations"] == 0 for r in rows))
    _assert(report, "overlap_constant_cap", worst_c <= 4 ** cfg.dimension,
            f"observed {worst_c} <= 4^d")
    return report, {}


# ---------------------------------------------------------------- geom suite

def run_geom_suite(cfg: ExperimentConfig) -> tuple[dict, dict]:
    from . import geom

    report = _report_skeleton("geom", cfg)
    samples = cfg.geom_samples
    checks = {}
    for d in (2, 3):
        bound = math.pi / 2 - math.asin(1 / math.sqrt(d))
        mx = geom.cube_angle_check(d, samples, seed=cfg.seed)
        checks[f"cube_angle_d{d}"] = {"max": mx, "bound": bound}
        _assert(report, f"cube_angle_within_bound_d{d}", mx <= bound + 1e-9)
        cover = geom.cube_cover_check(0.1, samples, d=d, seed=cfg.seed)
        checks[f"cube_cover_d{d}"] = {"failures": cover.failures,
                                      "delta": cover.delta,
                                      "min_margin": cover.min_margin}
        _assert(report, f"cube_cover_zero_failures_d{d}", cover.failures == 0)
        eps = math.asin(1 / math.sqrt(d)) / 2
        n = geom.min_angle_search(eps, max(10_000, samples // 10), d=d, seed=cfg.seed)
        checks[f"min_angle_d{d}"] = {"eps": eps, "smallest_passing_N": n}
    blow = geom.lipschitz_blowup_check(1.0, 1.0, 0.1, max(samples, 10_000),
                                       d=2, seed=cfg.seed)
    checks["lipschitz_blowup"] = {"estimate": blow.estimate, "bound": blow.bound,
                                  "stderr": blow.stderr}
    _assert(report, "lipschitz_blowup_below_bound",
            blow.estimate + 5 * blow.stderr <= blow.bound)
    for K in (1.0, 2.0):
        lb = geom.large_boundary_in_ball_check(K, max(100, samples // 500), seed=cfg.seed)
        checks[f"large_boundary_K{K:g}"] = {"max_ratio": lb.max_ratio,
                                            "trials": lb.trials}
        _assert(report, f"large_boundary_finite_K{K:g}", math.isfinite(lb.max_ratio))
    report["results"]["geom_checks"] = checks
    return report, {}
