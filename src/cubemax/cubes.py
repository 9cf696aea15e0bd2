"""Axis-aligned grid cubes, dyadic structure, dilations, and cube families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NonDyadicSide
from .grid import GridFunction, PixelSet
from .sat import SummedAreaTable


@dataclass(frozen=True)
class GridCube:
    """A cube of ``side**d`` cells anchored at its minimal corner."""

    anchor: tuple[int, ...]
    side: int

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(int(a) for a in self.anchor))
        object.__setattr__(self, "side", int(self.side))
        if self.side < 1:
            raise ValueError("cube side must be at least one cell")

    @property
    def d(self) -> int:
        return len(self.anchor)

    @property
    def cell_count(self) -> int:
        return self.side ** self.d

    def volume(self, h: float) -> float:
        return self.cell_count * float(h) ** self.d

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, a + self.side) for a in self.anchor)

    def inside(self, dims: Sequence[int]) -> bool:
        return all(0 <= a and a + self.side <= n for a, n in zip(self.anchor, dims))

    def contains_cube(self, other: "GridCube") -> bool:
        return all(a <= b and b + other.side <= a + self.side
                   for a, b in zip(self.anchor, other.anchor))

    def contains_cell(self, cell: Sequence[int]) -> bool:
        return all(a <= c < a + self.side for a, c in zip(self.anchor, cell))

    def extent(self, h: float) -> "RealBox":
        lo = tuple(a * h for a in self.anchor)
        hi = tuple((a + self.side) * h for a in self.anchor)
        return RealBox(lo, hi)

    def center(self, h: float) -> tuple[float, ...]:
        return tuple((a + self.side / 2.0) * h for a in self.anchor)

    def pixels(self, dims: Sequence[int]) -> PixelSet:
        m = np.zeros(tuple(dims), dtype=bool)
        m[self.slices()] = True
        return PixelSet(tuple(dims), m)


def scale_index(cube: GridCube, h: float) -> int:
    """The integer n with side*h in [2**n, 2**(n+1)).

    A product within a few ulps below a power of two counts as that power:
    with h = 1/m the float side*h of a side-m cube can round to just under
    1 (m = 49 gives 0.9999999999999999), and its scale is still 0.
    """
    x = cube.side * h
    exp = math.frexp(x)[1]  # x = mantissa * 2**exp with mantissa in [0.5, 1)
    if math.ldexp(1.0, exp) - x <= 4 * math.ulp(x):
        return exp
    return exp - 1


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RealBox:
    """An axis-aligned box in real coordinates (used for dilated cubes)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= max(0.0, b - a)
        return v

    def contains_box(self, other: "RealBox") -> bool:
        return all(a <= c and d <= b for a, b, c, d in
                   zip(self.lo, self.hi, other.lo, other.hi))

    def contains_point(self, p: Sequence[float]) -> bool:
        return all(a <= x < b for a, x, b in zip(self.lo, p, self.hi))

    def intersection_volume(self, other: "RealBox") -> float:
        v = 1.0
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            v *= max(0.0, min(b, d) - max(a, c))
        return v


def dilate(q: GridCube | RealBox, K: float, h: float = 1.0) -> RealBox:
    """The box with the same center and side scaled by ``K > 0``."""
    if K <= 0:
        raise ValueError("dilation factor must be positive")
    box = q.extent(h) if isinstance(q, GridCube) else q
    lo, hi = [], []
    for a, b in zip(box.lo, box.hi):
        c = 0.5 * (a + b)
        r = 0.5 * (b - a) * K
        lo.append(c - r)
        hi.append(c + r)
    return RealBox(tuple(lo), tuple(hi))


def intersection_cells(a: GridCube, b: GridCube) -> int:
    """Exact number of cells shared by two grid cubes."""
    n = 1
    for x, y in zip(a.anchor, b.anchor):
        lo = max(x, y)
        hi = min(x + a.side, y + b.side)
        n *= max(0, hi - lo)
    return n


def intersection_volume(a: GridCube, b: GridCube, h: float = 1.0) -> float:
    return intersection_cells(a, b) * float(h) ** len(a.anchor)


def _canonical_key(c: GridCube):
    return (-c.side, c.anchor)


class CubeFamily:
    """A deduplicated, canonically ordered collection of grid cubes.

    Canonical order is side descending, then anchor lexicographic; it fixes
    every tie-break made by the selection procedures downstream.  A family
    may carry cached per-cube averages of a bound grid function.
    """

    def __init__(self, cubes: Iterable[GridCube], averages: np.ndarray | None = None):
        cubes = list(cubes)
        uniq = sorted(set(cubes), key=_canonical_key)
        if averages is not None:
            if len(cubes) != len(uniq) or cubes != uniq:
                # remap averages onto the canonical order
                lookup = {c: float(v) for c, v in zip(cubes, np.asarray(averages))}
                averages = np.array([lookup[c] for c in uniq], dtype=np.float64)
            else:
                averages = np.asarray(averages, dtype=np.float64).copy()
            averages.setflags(write=False)
        self.cubes: tuple[GridCube, ...] = tuple(uniq)
        self.averages = averages

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __getitem__(self, i: int) -> GridCube:
        return self.cubes[i]

    def __contains__(self, c: GridCube) -> bool:
        return c in set(self.cubes)

    def with_averages(self, f: GridFunction) -> "CubeFamily":
        return CubeFamily(self.cubes, family_averages(f, self.cubes))

    def select(self, mask: np.ndarray) -> "CubeFamily":
        """The members where the boolean ``mask`` is set, with their averages."""
        idx = np.flatnonzero(mask)
        return CubeFamily([self.cubes[i] for i in idx],
                          None if self.averages is None else self.averages[idx])

    def union_pixels(self, dims: Sequence[int]) -> PixelSet:
        m = np.zeros(tuple(dims), dtype=bool)
        for c in self.cubes:
            m[c.slices()] = True
        return PixelSet(tuple(dims), m)

    def sides(self) -> np.ndarray:
        return np.array([c.side for c in self.cubes], dtype=np.int64)

    def anchors(self) -> np.ndarray:
        d = self.cubes[0].d if self.cubes else 0
        return np.array([c.anchor for c in self.cubes], dtype=np.int64).reshape(len(self.cubes), d)


def family_averages(f: GridFunction, cubes: Sequence[GridCube],
                    sat: SummedAreaTable | None = None) -> np.ndarray:
    """Per-cube averages of ``f``, computed from one shared prefix-sum table."""
    if sat is None:
        sat = SummedAreaTable(f.array)
    anchors = np.array([c.anchor for c in cubes], dtype=np.int64).reshape(len(cubes), f.d)
    sides = np.array([c.side for c in cubes], dtype=np.int64)
    return sat.box_avg_many(anchors, sides)


def dyadic_descendants(q0: GridCube) -> CubeFamily:
    """All dyadic subcubes of ``q0`` down to single cells, ``q0`` included."""
    if not is_power_of_two(q0.side):
        raise NonDyadicSide(f"side {q0.side} is not a power of two")
    cubes = []
    side = q0.side
    while side >= 1:
        steps = q0.side // side
        for offsets in np.ndindex(*([steps] * q0.d)):
            anchor = tuple(a + o * side for a, o in zip(q0.anchor, offsets))
            cubes.append(GridCube(anchor, side))
        side //= 2
    return CubeFamily(cubes)


def dyadic_ancestor_chain(q0: GridCube, p: GridCube) -> list[GridCube]:
    """Cubes of ``dy(q0)`` containing ``p``, from ``q0`` down.

    At each dyadic level the tiles partition ``q0``; ``p`` has an ancestor at
    that level iff it fits inside a single tile.  The chain stops at the
    first level where ``p`` straddles a tile boundary.
    """
    if not is_power_of_two(q0.side):
        raise NonDyadicSide(f"side {q0.side} is not a power of two")
    chain = []
    tile = q0.side
    while tile >= 1:
        idx = []
        ok = True
        for a0, a in zip(q0.anchor, p.anchor):
            lo = (a - a0) // tile
            hi = (a + p.side - 1 - a0) // tile
            if lo != hi:
                ok = False
                break
            idx.append(lo)
        if not ok:
            break
        chain.append(GridCube(tuple(a0 + i * tile for a0, i in zip(q0.anchor, idx)), tile))
        if tile == p.side and chain[-1] == p:
            break
        tile //= 2
    return chain


def _containment_pairs(cubes: Sequence[GridCube]):
    """Yield (outer_index, inner_index) for strict-or-equal-side containments,
    outer cubes restricted to power-of-two sides."""
    n = len(cubes)
    if n == 0:
        return
    d = cubes[0].d
    anchors = np.array([c.anchor for c in cubes], dtype=np.int64).reshape(n, d)
    sides = np.array([c.side for c in cubes], dtype=np.int64)
    for i in range(n):
        if not is_power_of_two(int(sides[i])):
            continue
        ok = sides <= sides[i]
        ok &= np.all(anchors >= anchors[i], axis=1)
        ok &= np.all(anchors + sides[:, None] <= anchors[i] + sides[i], axis=1)
        ok[i] = False
        for j in np.flatnonzero(ok):
            yield i, int(j)


def is_dyadically_complete(fam: CubeFamily) -> tuple[bool, GridCube | None]:
    """Check dyadic completeness; on failure return a missing-cube witness.

    For every pair P, Q0 in the family with P inside Q0 and Q0 of
    power-of-two side, every dyadic cube of Q0 containing P must be present.
    Pairs whose outer cube has a non-power-of-two side are skipped.
    """
    members = set(fam.cubes)
    cubes = fam.cubes
    for i, j in _containment_pairs(cubes):
        for anc in dyadic_ancestor_chain(cubes[i], cubes[j]):
            if anc not in members:
                return False, anc
    return True, None


def dyadic_completion(fam: CubeFamily) -> CubeFamily:
    """Minimal dyadically complete superset; idempotent."""
    members = set(fam.cubes)
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for i, j in _containment_pairs(snapshot):
            for anc in dyadic_ancestor_chain(snapshot[i], snapshot[j]):
                if anc not in members:
                    members.add(anc)
                    changed = True
    return CubeFamily(members)


def maximal_cube_reduction(fam: CubeFamily, f: GridFunction) -> CubeFamily:
    """Keep cubes whose average strictly beats every strict superset in the family.

    The per-level unions of the reduced family agree with those of the input
    family at every level, so level-set boundaries are unchanged.
    """
    cubes = fam.cubes
    n = len(cubes)
    if n == 0:
        return CubeFamily([], np.empty(0))
    avgs = fam.averages if fam.averages is not None else family_averages(f, cubes)
    keep = np.ones(n, dtype=bool)
    anchors, sides = fam.anchors(), fam.sides()
    for i in range(n):
        # strict containment needs a strictly larger side
        cand = np.flatnonzero(sides > sides[i])
        if cand.size == 0:
            continue
        lo_ok = np.all(anchors[cand] <= anchors[i], axis=1)
        hi_ok = np.all(anchors[i] + sides[i] <= anchors[cand] + sides[cand, None], axis=1)
        sup = cand[lo_ok & hi_ok]
        if sup.size and np.any(avgs[sup] >= avgs[i]):
            keep[i] = False
    kept = [cubes[i] for i in np.flatnonzero(keep)]
    return CubeFamily(kept, avgs[keep])
