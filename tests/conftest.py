from types import SimpleNamespace

import numpy as np
import pytest

from cubemax import CubeFamily, PixelSet, perimeter, superlevel

# formatted pass lines per acceptance criterion, filled in by the tests
ACCEPTANCE_LINES: dict[int, str] = {}
_OUTCOMES: list[tuple[int, str, str]] = []


def threshold_sum_variation(f, mask=None):
    """Coarea oracle for ``variation``: the sum over consecutive distinct
    in-domain values v_{i-1} < v_i of (v_i - v_{i-1}) * perimeter({f >= v_i})."""
    dom = mask.mask if mask is not None else np.ones(f.dims, dtype=bool)
    u = np.unique(f.array[dom])
    return float(sum((u[i] - u[i - 1]) * perimeter(superlevel(f, u[i]), mask, h=f.h).measure
                     for i in range(1, u.size)))


def partition_from_scratch(f, fam, lam):
    """Oracle for the level sweep: the density split at one level rebuilt
    with no state from other levels, counting each cube's cells directly."""
    d = f.d
    cubes = fam.cubes
    avgs = np.asarray(fam.averages)
    sel = avgs >= lam
    level = superlevel(f, lam)
    cells = np.array([c.cell_count for c in cubes], dtype=np.int64)

    def counts_in(mask):
        return np.array([int(np.count_nonzero(mask[c.slices()])) for c in cubes], dtype=np.int64)

    def union(members):
        u = np.zeros(f.dims, dtype=bool)
        for i in np.flatnonzero(members):
            u[cubes[i].slices()] = True
        return u

    q0 = sel & (counts_in(level.mask) * 2 ** (d + 1) >= cells)
    u0 = union(q0)
    q1 = sel & ~q0 & (counts_in(u0) * 2 ** (d + 1) >= cells)
    q2 = sel & ~q0 & ~q1
    u01, u2 = union(q0 | q1), union(q2)

    def fam_of(m):
        idx = np.flatnonzero(m)
        return CubeFamily([cubes[i] for i in idx], avgs[idx])

    return SimpleNamespace(
        level=level, q0=fam_of(q0), q1=fam_of(q1), q2=fam_of(q2),
        union_q0=PixelSet(f.dims, u0), union_q01=PixelSet(f.dims, u01),
        union_q2=PixelSet(f.dims, u2), union_all=PixelSet(f.dims, u01 | u2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::test_c" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        num = int(name.split("_")[1][1:])
        _OUTCOMES.append((num, name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _OUTCOMES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, name, outcome in sorted(_OUTCOMES):
        line = ACCEPTANCE_LINES.get(num) if outcome == "PASSED" else None
        terminalreporter.write_line(line or f"ACCEPTANCE {num:02d} {name}: {outcome}")
