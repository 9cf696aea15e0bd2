import numpy as np
import pytest

from cubemax import perimeter, superlevel

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
