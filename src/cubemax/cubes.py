"""Axis-aligned grid cubes, dyadic structure, dilations, and cube families."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NonDyadicSide, PremiseViolated
from .grid import GridFunction, PixelSet
from .sat import SummedAreaTable

#: Pair elements per block of pairwise arithmetic: a block of rows against m
#: columns holds at most this many pairs per (rows, m) plane, whatever m is.
PAIR_BUDGET = 1 << 14


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

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, a + self.side) for a in self.anchor)

    def pixels(self, dims: Sequence[int]) -> PixelSet:
        return CubeFamily([self]).union_pixels(dims)


def scale_indices(sides: np.ndarray) -> np.ndarray:
    """Per side s >= 1, the scale index n with s in [2**n, 2**(n+1)), which
    is floor(log2 s): exact, since frexp of an integer below 2**53 is."""
    # s = mantissa * 2**exp with mantissa in [0.5, 1)
    return np.frexp(np.asarray(sides, dtype=np.int64))[1].astype(np.int64) - 1


def is_power_of_two(n):
    """Whether ``n``, an integer or an integer array (elementwise), is a power of two."""
    return (n >= 1) & ((n & (n - 1)) == 0)


def cube_bounds(anchors: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer corners (lo, hi) of cubes given as anchor rows and sides."""
    return anchors, anchors + sides[..., None]


def dilate_bounds(lo: np.ndarray, hi: np.ndarray, K: float) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the boxes with the same centers and sides scaled by ``K``."""
    if K <= 0:
        raise ValueError("dilation factor must be positive")
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo) * K
    return c - r, c + r


def cube_contains(outer_a: np.ndarray, outer_s, inner_a: np.ndarray, inner_s) -> np.ndarray:
    """Whether each outer cube contains its inner cube, over the broadcast
    leading axes of anchor rows (..., d) and sides (...)."""
    ok = True
    for k in range(outer_a.shape[-1]):
        lo_o, lo_i = outer_a[..., k], inner_a[..., k]
        ok = ok & (lo_o <= lo_i) & (lo_i + inner_s <= lo_o + outer_s)
    return ok


def row_blocks(n: int, m: int):
    """Consecutive slices covering ``range(n)``, each of floor(PAIR_BUDGET / m)
    rows (at least one), for pairwise arithmetic of n rows against m columns."""
    step = max(1, PAIR_BUDGET // max(m, 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def box_cover_counts(lo: np.ndarray, hi: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """How many of the index boxes [lo, hi), clipped to the grid, cover each
    cell; each box costs one slice update."""
    dims = tuple(dims)
    counts = np.zeros(dims, dtype=np.int64)
    if not np.size(lo):
        return counts
    lo = np.minimum(np.maximum(np.asarray(lo, dtype=np.int64), 0), dims)
    hi = np.minimum(np.maximum(np.asarray(hi, dtype=np.int64), lo), dims)
    for a, b in zip(lo.tolist(), hi.tolist()):
        counts[tuple(map(slice, a, b))] += 1
    return counts


def cube_arrays(cubes: Iterable[GridCube], d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Anchor rows (n, d) and sides (n,) of the cubes in their given order:
    the one place where ``GridCube`` objects become arrays.  ``d`` sets the
    row width of an empty input.  A :class:`CubeFamily` already holds these
    arrays; only its constructor and the base cubes keying the collections of
    :func:`~cubemax.sparse.disjoint_select` come through here."""
    cubes = list(cubes)
    anchors = np.array([c.anchor for c in cubes], dtype=np.int64)
    return (anchors.reshape(len(cubes), -1 if cubes else d or 0),
            np.array([c.side for c in cubes], dtype=np.int64))


def _same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two arrays agree in shape and bytes; None agrees only with None."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class CubeFamily:
    """A deduplicated, canonically ordered collection of grid cubes.

    The cubes are stored as two read-only int64 arrays, ``anchors`` of shape
    (n, d) and ``sides`` of shape (n,).  Canonical order is side descending,
    then anchor lexicographic; it fixes every tie-break made by the
    selection procedures downstream.  A family may carry cached per-cube
    averages of a bound grid function.  :meth:`select` with an index array
    keeps the order of its indices, so a selection (such as the greedy
    sparse one) stays a family in selection order.

    Two families are equal when their anchors, sides and averages agree bit
    for bit, row by row in order; a family without averages equals only
    another without.  ``GridCube`` objects are built only when ``cubes``,
    iteration or indexing asks for them: for reports, error messages and
    the base cubes that key per-base collections.
    """

    def __init__(self, cubes: Iterable[GridCube], averages: np.ndarray | None = None):
        self._canonicalize(*cube_arrays(cubes), averages)

    @classmethod
    def from_arrays(cls, anchors: np.ndarray, sides: np.ndarray,
                    averages: np.ndarray | None = None) -> "CubeFamily":
        """The family of the cubes with the given anchor rows and sides."""
        fam = cls.__new__(cls)
        fam._canonicalize(np.asarray(anchors, dtype=np.int64),
                          np.asarray(sides, dtype=np.int64), averages)
        return fam

    def _canonicalize(self, anchors: np.ndarray, sides: np.ndarray, averages) -> None:
        """Store the rows in canonical order without repeats; a repeated cube
        keeps its last average."""
        if np.any(sides < 1):
            raise ValueError("cube side must be at least one cell")
        # reversed rows, so that a stable sort puts the last repeat first
        keys = np.column_stack((-sides, anchors))[::-1]
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        idx = len(sides) - 1 - order[first]
        self._set(anchors[idx], sides[idx],
                  None if averages is None else np.asarray(averages, dtype=np.float64)[idx])

    def _set(self, anchors: np.ndarray, sides: np.ndarray, averages: np.ndarray | None) -> None:
        self.anchors, self.sides, self.averages = anchors, sides, averages
        for a in (anchors, sides, averages):
            if a is not None:
                a.setflags(write=False)

    @cached_property
    def cubes(self) -> tuple[GridCube, ...]:
        return tuple(GridCube(a, s) for a, s in zip(self.anchors.tolist(), self.sides.tolist()))

    def __len__(self) -> int:
        return len(self.sides)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubeFamily):
            return NotImplemented
        return all(_same_bits(getattr(self, k), getattr(other, k))
                   for k in ("anchors", "sides", "averages"))

    def __iter__(self):
        return iter(self.cubes)

    def __getitem__(self, i: int) -> GridCube:
        return GridCube(self.anchors[i].tolist(), int(self.sides[i]))

    def with_averages(self, f: GridFunction, sat: SummedAreaTable | None = None) -> "CubeFamily":
        """This family with its averages of ``f``, read from ``sat`` when given."""
        return CubeFamily.from_arrays(self.anchors, self.sides, family_averages(f, self, sat))

    def select(self, mask: np.ndarray) -> "CubeFamily":
        """The members where the boolean ``mask`` is set, with their averages.
        An index array of distinct members picks them in its own order."""
        fam = CubeFamily.__new__(CubeFamily)
        fam._set(self.anchors[mask], self.sides[mask],
                 None if self.averages is None else self.averages[mask])
        return fam

    def union_pixels(self, dims: Sequence[int]) -> PixelSet:
        """The cells covered by at least one member."""
        counts = box_cover_counts(self.anchors, self.anchors + self.sides[:, None], dims)
        return PixelSet(tuple(dims), counts > 0)

    def max_paint(self, values: np.ndarray, dims: Sequence[int]) -> np.ndarray:
        """Per cell, the largest of the per-member ``values`` over the members
        holding the cell; -inf where none does.  A NaN value propagates, and a
        member outside the box raises :class:`PremiseViolated`.  Larger members
        paint their slices in turn, then the cells (distinct in a family) take
        one indexed ``np.maximum``.  Order only decides which zero a +0.0/-0.0
        tie keeps (the last painted), so in canonical order, cells last, this
        is bit for bit one slice per member in member order."""
        dims = tuple(dims)
        require_inside(self, dims)
        values = np.asarray(values, dtype=np.float64)
        out, cell = np.full(dims, -np.inf), self.sides == 1
        for a, s, v in zip(self.anchors[~cell].tolist(), self.sides[~cell].tolist(), values[~cell].tolist()):
            region = out[tuple(slice(x, x + s) for x in a)]
            np.maximum(region, v, out=region)
        if cell.any():
            flat, idx = out.reshape(-1), np.ravel_multi_index(self.anchors[cell].T, dims)
            flat[idx] = np.maximum(flat[idx], values[cell])
        return out


def family_averages(f: GridFunction, fam: CubeFamily,
                    sat: SummedAreaTable | None = None) -> np.ndarray:
    """Per-cube averages of ``f``, computed from one shared prefix-sum table."""
    require_inside(fam, f.dims)
    if sat is None:
        sat = SummedAreaTable(f.array)
    return sat.box_avg_many(fam.anchors, fam.sides)


def require_inside(fam: CubeFamily, dims: Sequence[int]) -> None:
    """Raise :class:`PremiseViolated` at the first member outside the box
    ``dims``, whose slices or table reads would wrap or overrun."""
    if len(fam):
        out = (fam.anchors < 0) | (fam.anchors + fam.sides[:, None] > np.asarray(dims))
        if out.any():
            raise PremiseViolated(f"cube {fam[int(np.argmax(out.any(axis=1)))]} lies outside {tuple(dims)}")


def require_finite_averages(fam: CubeFamily) -> None:
    """Raise :class:`PremiseViolated` at the first cube whose average is not
    finite; its breakpoint would make every level integral NaN."""
    bad = np.flatnonzero(~np.isfinite(fam.averages))
    if bad.size:
        raise PremiseViolated(f"cube {fam[int(bad[0])]} has the non-finite average "
                              f"{float(fam.averages[bad[0]])!r}")


def dyadic_descendants(q0: GridCube) -> CubeFamily:
    """All dyadic subcubes of ``q0`` down to single cells, ``q0`` included."""
    if not is_power_of_two(q0.side):
        raise NonDyadicSide(f"side {q0.side} is not a power of two")
    anchors, sides = [], []
    side = q0.side
    while side >= 1:
        offsets = np.indices((q0.side // side,) * q0.d).reshape(q0.d, -1).T
        anchors.append(np.asarray(q0.anchor, dtype=np.int64) + offsets * side)
        sides.append(np.full(len(offsets), side, dtype=np.int64))
        side //= 2
    return CubeFamily.from_arrays(np.concatenate(anchors), np.concatenate(sides))


def _with_dyadic_parents(fam: CubeFamily) -> CubeFamily:
    """The family joined by, for each member P strictly inside a power-of-two
    member Q0, the smallest dyadic cube of Q0 that contains P and is not P.

    Each added cube forms such a pair with Q0 in turn, so the family holds
    every dyadic cube of Q0 containing P once nothing is added.
    """
    a, s = fam.anchors, fam.sides
    # members of the smallest side, last in canonical order, hold only themselves
    pow2 = np.flatnonzero(is_power_of_two(s) & (s > s[-1:]))
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for rows in row_blocks(len(pow2), len(s)):
        hit = cube_contains(a[pow2[rows], None], s[pow2[rows], None], a, s)
        hit[np.arange(hit.shape[0]), pow2[rows]] = False
        i, j = np.nonzero(hit)
        pairs.append(np.column_stack((pow2[rows][i], j)))
    outer, inner = np.concatenate(pairs).T
    lo = a[inner] - a[outer]
    # the finest tile holding P has side 2^b, b the bit length of the XOR of
    # P's first and last cell offsets (frexp of a positive integer gives b)
    tile = 2 ** np.frexp(lo ^ (lo + s[inner, None] - 1))[1].max(axis=1, initial=0)
    tile = np.where(tile == s[inner], 2 * tile, tile)
    return CubeFamily.from_arrays(np.concatenate((a, a[outer] + lo // tile[:, None] * tile[:, None])),
                                  np.concatenate((s, tile)))


def is_dyadically_complete(fam: CubeFamily) -> tuple[bool, GridCube | None]:
    """Check dyadic completeness; on failure return a missing-cube witness.

    For every pair P, Q0 in the family with P inside Q0 and Q0 of
    power-of-two side, every dyadic cube of Q0 containing P must be present.
    Pairs whose outer cube has a non-power-of-two side are skipped.  The
    witness is the first row at which :func:`_with_dyadic_parents`, a
    canonical superset, differs from the family's canonical rows.
    """
    grown = _with_dyadic_parents(fam)
    own = CubeFamily.from_arrays(fam.anchors, fam.sides)  # fam may be in selection order
    n = len(own)
    if len(grown) == n:
        return True, None
    differ = (grown.sides[:n] != own.sides) | (grown.anchors[:n] != own.anchors).any(axis=1)
    return False, grown[int(np.argmax(np.append(differ, True)))]


def dyadic_completion(fam: CubeFamily) -> CubeFamily:
    """Minimal dyadically complete superset; idempotent."""
    grown = _with_dyadic_parents(fam)
    while len(grown) > len(fam):
        fam, grown = grown, _with_dyadic_parents(grown)
    return grown


def maximal_cube_reduction(fam: CubeFamily, f: GridFunction) -> CubeFamily:
    """Keep cubes whose average strictly beats every strict superset in the family.

    The per-level unions of the reduced family agree with those of the input
    family at every level, so level-set boundaries are unchanged.
    """
    fam = fam if fam.averages is not None else fam.with_averages(f)
    avgs, anchors, sides = fam.averages, fam.anchors, fam.sides
    keep = np.ones(len(fam), dtype=bool)
    for rows in row_blocks(len(fam), len(fam)):
        # strict containment needs a strictly larger side
        sup = (sides > sides[rows, None]) & cube_contains(anchors, sides, anchors[rows, None],
                                                           sides[rows, None])
        keep[rows] = ~np.any(sup & (avgs >= avgs[rows, None]), axis=1)
    return fam.select(keep)
