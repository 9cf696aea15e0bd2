"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and runtime budget is pinned here.  Oracles are independent
reimplementations (explicit loops, exhaustive enumeration, or quadrature),
never the code path under test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cubemax import (
    GridCube,
    GridFunction,
    PixelSet,
    SummedAreaTable,
    grid_from_array,
    variation,
)
from cubemax.errors import ZeroVariationInput
from cubemax.estimates import DEFAULT_RATIO_CAPS, covering_middensity, sparse_mass_estimate
from cubemax.experiments import (
    ExperimentConfig,
    run_checkerboard,
    run_dumbbell,
    run_refinement_stability,
    run_theorem_suite,
    report_passed,
)
from cubemax.generators import random_family
from cubemax.geom import cube_angle_check, cube_cover_check
from cubemax.io import canonical_json
from cubemax.maximal import maximal_global
from cubemax.partition import boundary_of_union_check
from cubemax.sparse import greedy_sparse
from conftest import scalar_pairwise_violations


import conftest


def _announce(num, name, t0, detail=""):
    extra = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.2f} s){extra}"
    conftest.ACCEPTANCE_LINES[num] = line
    print("\n" + line)


def _random_grid(rng, d, max_side):
    dims = tuple(int(rng.integers(2, max_side + 1)) for _ in range(d))
    kind = rng.integers(0, 3)
    if kind == 0:
        vals = rng.random(dims)
    elif kind == 1:
        vals = rng.integers(0, 5, dims).astype(float)
    else:
        vals = np.round(rng.random(dims) * 8) / 4
    return GridFunction(dims, vals.ravel())


def test_c01_coarea_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for d in (1, 2, 3):
        max_side = {1: 16, 2: 16, 3: 16}[d]
        for _ in range(200):
            f = _random_grid(rng, d, max_side if d < 3 else 16)
            # oracle: gap times the perimeter of each superlevel set
            want = conftest.threshold_sum_variation(f)
            got = variation(f)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(1, "coarea identity (600 grids, rel 1e-9)", t0)


def test_c02_maximal_global_oracle_equality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for d in (1, 2, 3):
        for _ in range(200):
            dims = tuple(int(rng.integers(2, 13)) for _ in range(d))
            f = GridFunction(dims, rng.random(dims).ravel())
            got = maximal_global(f).array
            sat = SummedAreaTable(f.array)
            want = f.array.copy()  # each single cell's average is its value
            for side in range(2, min(dims) + 1):
                avg = sat.box_avg_grid(side)
                for anchor in np.ndindex(*avg.shape):
                    v = avg[anchor]
                    region = want[tuple(slice(a, a + side) for a in anchor)]
                    np.maximum(region, v, out=region)
            assert np.array_equal(got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(2, "maximal operator bit-equal to brute force (600 grids)", t0)


def test_c03_sparse_mass_estimate_explicit_constant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    violations = 0
    for d in (1, 2):
        done = 0
        while done < 200:
            side = int(rng.choice([4, 8, 16] if d == 1 else [4, 8]))
            dims = tuple(side + int(rng.integers(0, 4)) for _ in range(d))
            kind = rng.integers(0, 3)
            if kind == 0:
                vals = rng.integers(0, 6, dims).astype(float)
            elif kind == 1:
                vals = np.zeros(dims)
                k = max(1, int(np.prod(dims)) // 8)
                hot = rng.choice(int(np.prod(dims)), size=k, replace=False)
                vals.ravel()[hot] = rng.integers(1, 32, k)
            else:
                vals = np.round(rng.random(dims) * 6) / 2
            f = GridFunction(dims, vals.ravel())
            anchor = tuple(int(rng.integers(0, n - side + 1)) for n in dims)
            lhs, rhs = sparse_mass_estimate(f, GridCube(anchor, side))
            if lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
                violations += 1
            done += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(3, "sparse mass estimate, explicit constant 2^(d+1) (400 instances)", t0)


def test_c04_greedy_selection_postconditions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for k in range(100):
        d = 2
        dims = (16, 16)
        f = GridFunction(dims, rng.integers(0, 7, dims).ravel().astype(float))
        count = int(rng.integers(20, 201))
        fam = random_family(rng, dims, count, pow2=bool(rng.integers(0, 2)))
        sp = greedy_sparse(f, fam.with_averages(f))
        assert len(sp) <= len(fam)
        bad = scalar_pairwise_violations(sp, f)
        assert bad == [], f"instance {k}: {len(bad)} violating pairs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(4, "greedy selection pairwise postconditions (100 instances)", t0)


def test_c05_middensity_covering_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    done = 0
    while done < 200:
        d = int(rng.integers(1, 4))
        side = int(rng.choice([4, 8] if d < 3 else [4]))
        dims = (side,) * d
        m = rng.random(dims) < rng.uniform(0.05, 0.45)
        if 2 * int(m.sum()) >= side ** d:
            continue
        r = covering_middensity(PixelSet(dims, m), GridCube((0,) * d, side))
        assert r.uncovered.count == 0
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(5, "mid-density covering exact (200 instances, zero uncovered)", t0)


def test_c06_boundary_of_union_inclusion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(500):
        d = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 17 if d < 3 else 7)) for _ in range(d))
        A = PixelSet(dims, rng.random(dims) < rng.uniform(0.1, 0.9))
        B = PixelSet(dims, rng.random(dims) < rng.uniform(0.1, 0.9))
        ok, witness = boundary_of_union_check(A, B)
        assert ok, f"counterexample face {witness}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(6, "boundary-of-union inclusion (500 pairs, exact)", t0)


def test_c07_one_dimensional_variation_non_increase():
    t0 = time.perf_counter()
    # exhaustive oracle first: every {0,1}-valued function of length <= 10
    for n in range(1, 11):
        for bits in itertools.product((0.0, 1.0), repeat=n):
            f = grid_from_array(np.array(bits))
            var_f = variation(f)
            if var_f == 0.0:
                continue
            var_m = variation(maximal_global(f))
            assert var_m <= var_f * (1 + 1e-9)
    # then random step functions
    rng = np.random.default_rng(107)
    for _ in range(500):
        n = int(rng.integers(2, 64))
        steps = int(rng.integers(1, 8))
        edges = np.sort(rng.integers(0, n, steps))
        vals = np.zeros(n)
        level = 0.0
        prev = 0
        for e in list(edges) + [n]:
            vals[prev:e] = level
            level = float(rng.integers(0, 9)) / 2
            prev = e
        f = grid_from_array(vals)
        try:
            var_f = variation(f)
            if var_f == 0:
                continue
            var_m = variation(maximal_global(f))
        except ZeroVariationInput:
            continue
        assert var_m <= var_f * (1 + 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _announce(7, "1-d variation non-increase (exhaustive + 500 random)", t0)


def test_c08_theorem_empirical_boundedness_and_stability():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=108, dimension=2, grid=32, repetitions=100,
                           function_class="simple", family_seeds=8,
                           deep_instances=3)
    rep, _ = run_theorem_suite(cfg)
    assert report_passed(rep), [a for a in rep["assertions"] if not a["passed"]]
    assert rep["constants"]["ratio_max"] <= DEFAULT_RATIO_CAPS[2]
    stab_cfg = ExperimentConfig(seed=108, dimension=2, grid=16, repetitions=12,
                                function_class="simple", family_seeds=8)
    stab = run_refinement_stability(stab_cfg, pairs=12)
    assert report_passed(stab)
    assert stab["constants"]["relative_change"] < 0.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(8, "main inequality below cap + stable under refinement",
              t0, f"max ratio {rep['constants']['ratio_max']:.3f}, "
                  f"change {stab['constants']['relative_change']:.4f}")


def test_c09_checkerboard_growth():
    t0 = time.perf_counter()
    rep, _ = run_checkerboard(6)
    assert report_passed(rep), rep["assertions"]
    ratios = rep["results"]["growth_ratios"]
    for n in range(2, 6):
        assert 1.5 <= ratios[n] <= 2.5, f"ratio at n={n}: {ratios[n]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(9, "checkerboard variation doubles per depth (n=2..5)", t0,
              f"ratios {[round(r, 3) for r in ratios[2:6]]}")


def test_c10_dumbbell_jump():
    t0 = time.perf_counter()
    rep, _ = run_dumbbell(resolutions=(0.25, 0.125, 0.0625))
    assert report_passed(rep), rep["assertions"]
    for row in rep["results"]["rows"]:
        assert row["neck_max"] == 0.0
        assert row["lower_min"] >= row["target"] * (1 - 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(10, "dumbbell: zero on the neck, 1/100 integral floor below", t0)


def test_c11_geometry_lemmas():
    t0 = time.perf_counter()
    for d in (2, 3):
        bound = math.pi / 2 - math.asin(1 / math.sqrt(d))
        assert cube_angle_check(d, 100_000, seed=111) <= bound + 1e-9
        res = cube_cover_check(0.1, 100_000, d=d, seed=111)
        assert res.failures == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(11, "cube angle bound and cube cover, 1e5 samples/trials per d", t0)


def test_c12_repeated_run_determinism():
    t0 = time.perf_counter()
    bodies = []
    for _ in range(3):
        cfg = ExperimentConfig(seed=112, dimension=2, grid=16, repetitions=10,
                               function_class="simple")
        bodies.append(canonical_json(run_theorem_suite(cfg)[0]).encode())
    assert bodies[0] == bodies[1] == bodies[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(12, "byte-identical report body across 3 repeated runs", t0)
