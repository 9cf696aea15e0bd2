"""The cell width h sets units and nothing else.

A metamorphic test: ``ratio``, ``theorem`` and ``sparse-audit`` run on small
configs in d = 1, 2 and 3, for every function class, at h from 2^-1000 to
2^1000.  Every dimensionless field of a report and of its tables is
byte-identical to the run at h = 1.  Each dimensional field (a variation,
a face count or a level integral, of dimension d - 1) is the h = 1 value
times h ** (d - 1), in one rounding.  An h whose h ** d overflows is a
config error, exit 2.
"""

import copy
import json

import numpy as np
import pytest

from cubemax.cli import main
from cubemax.errors import ConfigError
from cubemax.experiments import (
    ExperimentConfig,
    run_ratio_suite,
    run_sparse_audit,
    run_theorem_suite,
)
from cubemax.generators import FUNCTION_CLASSES
from cubemax.io import canonical_json

RUNNERS = {"ratio": run_ratio_suite, "theorem": run_theorem_suite,
           "sparse-audit": run_sparse_audit}
WIDTHS = (2.0 ** -1000, 0.1, 3.0, 2.0 ** 1000)
GRIDS = {1: 16, 2: 8, 3: 8}

# the dimensional fields of a theorem report and of the theorem tables
ROW_MEASURES = ("lhs", "rhs")
SUBTERM_MEASURES = ("high_density_integral", "q2_boundary_integral", "sparse_rhs_sum")
LEVEL_MEASURES = ("term1", "term2", "lhs", "f_boundary")
TABLE_MEASURES = {"per_lambda.csv": LEVEL_MEASURES, "per_lambda_trace.dat": LEVEL_MEASURES,
                  "theorem_ratios.csv": ROW_MEASURES}


def split_measures(report: dict, tables: dict) -> tuple[list[bytes], np.ndarray]:
    """The report without ``config.h`` and the tables, both without their
    dimensional fields, as bytes; and those fields, in a fixed order."""
    report = copy.deepcopy(report)
    del report["config"]["h"]
    measures = []
    for row in report["results"]["instances"] if report["command"] == "theorem" else ():
        measures += [row.pop(k) for k in ROW_MEASURES]
        measures += [row["subterms"].pop(k) for k in SUBTERM_MEASURES]
    rest = [canonical_json(report).encode()]
    for name, (header, columns) in sorted(tables.items()):
        for key, col in zip(header, columns):
            col = np.asarray(col)
            if key in TABLE_MEASURES.get(name, ()):
                measures += col.tolist()
            else:
                rest.append(f"{name}:{key}:{col.dtype}".encode() + col.tobytes())
    return rest, np.array(measures, dtype=np.float64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("command", RUNNERS)
def test_h_sets_units_only(command, d):
    for cls in FUNCTION_CLASSES:
        config = {"seed": 3, "dimension": d, "grid": GRIDS[d], "function_class": cls,
                  "repetitions": 2, "family_seeds": 3}
        rest_1, measures_1 = split_measures(*RUNNERS[command](ExperimentConfig(**config)))
        for h in WIDTHS:
            try:
                cfg = ExperimentConfig(**config, h=h)
            except ConfigError:
                assert d > 1 and h > 1  # h ** d overflows: exit 2, tested below
                continue
            rest, measures = split_measures(*RUNNERS[command](cfg))
            assert rest == rest_1, (cls, h)
            assert measures.tobytes() == (measures_1 * float(h) ** (d - 1)).tobytes(), (cls, h)
        if command == "theorem":
            assert measures_1.size > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("command", RUNNERS)
def test_h_with_overflowing_cell_volume_exits_2(command, d, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"dimension": d, "h": 2.0 ** 1000}))
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: h must be positive")
