"""Seeded generators for test functions, pixel sets, and cube families."""

from __future__ import annotations

import numpy as np

from .cubes import CubeFamily, dyadic_completion
from .errors import ConfigError
from .grid import GridFunction


def _random_box_mask(rng: np.random.Generator, dims, k: int) -> np.ndarray:
    m = np.zeros(tuple(dims), dtype=bool)
    for _ in range(k):
        sl = []
        for n in dims:
            a = int(rng.integers(0, n))
            b = int(rng.integers(a + 1, n + 1))
            sl.append(slice(a, b))
        m[tuple(sl)] = True
    return m


def _require_two_cells(dims, cls: str) -> None:
    """The indicator and simple classes redraw until f is not constant,
    which a single cell never is."""
    if int(np.prod(dims)) < 2:
        raise ConfigError(f"a non-constant {cls} function needs at least 2 cells, "
                          f"got dims {tuple(dims)}")


def indicator_function(rng: np.random.Generator, dims, boxes: int = 3) -> GridFunction:
    _require_two_cells(dims, "indicator")
    while True:
        m = _random_box_mask(rng, dims, boxes)
        if 0 < m.sum() < m.size:
            return GridFunction(dims, m.astype(np.float64).ravel())


def simple_function(rng: np.random.Generator, dims, terms: int = 4) -> GridFunction:
    _require_two_cells(dims, "simple")
    levels = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    while True:
        vals = np.zeros(tuple(dims))
        for _ in range(terms):
            m = _random_box_mask(rng, dims, 1)
            vals[m] += float(rng.choice(levels))
        if np.unique(vals).size > 1:
            return GridFunction(dims, vals.ravel())


def block_decreasing_function(rng: np.random.Generator, dims) -> GridFunction:
    """Nonincreasing in the distance from a center cell along every axis."""
    centers = [int(rng.integers(0, n)) for n in dims]
    profiles = []
    for n, c in zip(dims, centers):
        reach = max(abs(c), abs(n - 1 - c)) + 1
        p = np.sort(rng.random(reach))[::-1]
        idx = np.abs(np.arange(n) - c)
        profiles.append(p[idx])
    vals = profiles[0]
    for p in profiles[1:]:
        vals = np.multiply.outer(vals, p)
    return GridFunction(dims, vals.ravel())


def radial_function(rng: np.random.Generator, dims, steps: int = 6) -> GridFunction:
    center = np.array([rng.uniform(0, n) for n in dims])
    grids = np.meshgrid(*[np.arange(n) + 0.5 for n in dims], indexing="ij")
    r = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))  # in cells
    edges = np.sort(rng.uniform(0, float(r.max()) + 1e-9, steps))
    heights = np.sort(rng.random(steps + 1))[::-1]
    vals = heights[np.searchsorted(edges, r)]
    return GridFunction(dims, vals.ravel())


def _gaussian_nearest(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x, sigma, mode="nearest")`` bit for bit.

    The same kernel (radius ``int(4*sigma + 0.5)``, normalised, reversed) and
    the same symmetric tap order, ``acc = x[c]*w[r]`` then
    ``acc += (x[c+j] + x[c-j]) * w[r+j]`` for j = -r..-1, run along one axis
    after another on edge-padded lines.  Kept here so that generating a
    function does not import ``scipy.ndimage`` (about 26 MB and 0.5 s).
    """
    r = int(4.0 * sigma + 0.5)
    t = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * t ** 2)
    w = (w / w.sum())[::-1]
    out = np.asarray(x, dtype=np.float64)
    for ax in range(out.ndim):
        line = np.moveaxis(out, ax, 0)
        n = line.shape[0]
        pad = np.pad(line, [(r, r)] + [(0, 0)] * (line.ndim - 1), mode="edge")
        acc = pad[r:r + n] * w[r]
        for j in range(-r, 0):
            acc += (pad[r + j:r + j + n] + pad[r - j:r - j + n]) * w[r + j]
        out = np.moveaxis(acc, 0, ax)
    return out


def random_smooth_function(rng: np.random.Generator, dims,
                           sigma: float = 2.0) -> GridFunction:
    noise = rng.standard_normal(tuple(dims))
    vals = _gaussian_nearest(noise, sigma)
    vals = vals - vals.min()
    return GridFunction(dims, vals.ravel())


def spikes_function(rng: np.random.Generator, dims,
                    count: int = 4) -> GridFunction:
    """A few isolated hot cells: big cubes around them have tiny superlevel
    density, which is what feeds the low-density machinery."""
    vals = np.zeros(tuple(dims))
    n = int(np.prod(dims))
    hot = rng.choice(n, size=min(count, n), replace=False)
    vals.ravel()[hot] = rng.integers(1, 9, size=hot.size).astype(np.float64)
    return GridFunction(dims, vals.ravel())


_MAKERS = {"indicator": indicator_function, "simple": simple_function,
           "block-decreasing": block_decreasing_function, "radial": radial_function,
           "random-smooth": random_smooth_function, "spikes": spikes_function}
FUNCTION_CLASSES = tuple(_MAKERS)


def make_function(rng: np.random.Generator, cls: str, dims) -> GridFunction:
    if cls not in _MAKERS:
        raise ValueError(f"unknown function class {cls!r}")
    return _MAKERS[cls](rng, dims)


def random_family(rng: np.random.Generator, dims, count: int,
                  pow2: bool = True) -> CubeFamily:
    """Random cubes inside the box; power-of-two sides by default.  Each
    cube draws one scalar for its side, then one per anchor axis."""
    nmin = int(min(dims))
    kmax = nmin.bit_length() - 1  # floor(log2 nmin)
    anchors, sides = [], []
    for _ in range(count):
        if pow2:
            side = 2 ** int(rng.integers(0, kmax + 1))
        else:
            side = int(rng.integers(1, nmin + 1))
        sides.append(side)
        anchors.append([int(rng.integers(0, n - side + 1)) for n in dims])
    return CubeFamily.from_arrays(np.array(anchors, dtype=np.int64).reshape(count, len(dims)),
                                  np.array(sides, dtype=np.int64))


def random_complete_family(rng: np.random.Generator, dims, seeds: int) -> CubeFamily:
    """Completion of random seed cubes.

    When the box itself is a power-of-two cube it joins the seeds half of the
    time, so the completion usually grows real ancestor chains instead of
    staying an antichain.
    """
    fam = random_family(rng, dims, seeds, pow2=True)
    side = min(dims)
    if not (side & (side - 1)) and max(dims) == side and rng.random() < 0.5:
        fam = CubeFamily.from_arrays(np.vstack((fam.anchors, np.zeros((1, len(dims)), dtype=np.int64))),
                                     np.append(fam.sides, side))
    return dyadic_completion(fam)
