"""Sampled verification of the continuum cube-geometry lemmas.

These statements live off the grid (arbitrary orientations, balls, Lipschitz
surfaces), so they are checked by randomized sampling with explicit margins
rather than exact arithmetic.  The checks return their measurements and the
caller judges them against the bounds; Monte Carlo judgements use five-sigma
bands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import SearchExhausted, UnsupportedDimension


@functools.cache
def _corners(d: int) -> np.ndarray:
    """The 2^d sign vectors of the centered cube's vertices, in ndindex order."""
    corners = np.array(list(np.ndindex(*([2] * d)))) * 2.0 - 1.0
    corners.setflags(write=False)
    return corners


@dataclass(frozen=True)
class OrientedCube:
    """A cube with arbitrary orientation: center, side, rotation matrix."""

    center: tuple[float, ...]
    side: float
    rotation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        d = len(self.center)
        if r.shape != (d, d) or not np.allclose(r @ r.T, np.eye(d), rtol=0, atol=1e-12):
            raise ValueError("rotation must be orthogonal")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)

    def contains(self, pts: np.ndarray, dilation: float = 1.0) -> np.ndarray:
        local = (np.atleast_2d(pts) - np.asarray(self.center)) @ self.rotation
        return np.all(np.abs(local) <= dilation * self.side / 2.0, axis=1)

    def vertices(self) -> np.ndarray:
        corners = _corners(len(self.center))
        return np.asarray(self.center) + (corners * self.side / 2.0) @ self.rotation.T


def rotation_2d(theta) -> np.ndarray:
    """Rotation by ``theta``; an array of angles gives a (..., 2, 2) stack."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


def rotation_3d(axis, theta) -> np.ndarray:
    """Rotation by ``theta`` about ``axis``; axes of shape (..., 3) and angles
    of shape (...) give a (..., 3, 3) stack.

    Rodrigues' formula I + sin(theta) K + (1 - cos(theta)) K^2 with K the
    cross-product matrix of the unit axis k, written entry by entry over the
    whole stack: K^2 is k_i k_j off the diagonal and minus the other two
    squares on it.
    """
    axis = np.asarray(axis, dtype=np.float64)
    kx, ky, kz = np.moveaxis(axis / np.linalg.norm(axis, axis=-1, keepdims=True), -1, 0)
    s, t = np.sin(theta), 1 - np.cos(theta)
    xy, xz, yz = kx * ky, kx * kz, ky * kz
    out = np.empty(np.broadcast_shapes(kx.shape, np.shape(s)) + (3, 3))
    out[..., 0, 0] = 1 + t * (-kz * kz - ky * ky)
    out[..., 0, 1] = t * xy - s * kz
    out[..., 0, 2] = t * xz + s * ky
    out[..., 1, 0] = t * xy + s * kz
    out[..., 1, 1] = 1 + t * (-kz * kz - kx * kx)
    out[..., 1, 2] = t * yz - s * kx
    out[..., 2, 0] = t * xz - s * ky
    out[..., 2, 1] = t * yz + s * kx
    out[..., 2, 2] = 1 + t * (-ky * ky - kx * kx)
    return out


def _angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    dot = np.sum(u * v, axis=-1)
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    return np.arccos(np.clip(dot / (nu * nv), -1.0, 1.0))


def cube_angle_check(d: int, samples: int, seed: int = 0) -> float:
    """Max angle between a boundary point of the centered unit-scale cube and
    the outer normal of its face; the bound it is judged against is
    pi/2 - arcsin(1/sqrt d).

    Corner points are included, where the bound is attained exactly.  The
    points are projected onto the face with outer normal e_0, so the cosine
    of the angle is p . e_0 / |p| = 1 / |p|.
    """
    if d not in (2, 3):
        raise UnsupportedDimension("cube angle sampling needs d in {2,3}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, d))
    pts = np.vstack([pts, _corners(d)])
    pts[:, 0] = 1.0
    ang = np.arccos(np.clip(1.0 / np.linalg.norm(pts, axis=-1), -1.0, 1.0))
    return float(ang.max())


class _AngleDraws(NamedTuple):
    """Samples of the far-viewpoint angle check that do not depend on N.

    ``m1_u`` and ``m2_u`` are the unit-interval draws behind the viewpoint
    distances; ``_min_angle_holds`` scales them to [N+1, 4(N+1)) the way
    ``Generator.uniform`` does (low + (high - low) * u), so one set of draws
    serves every N of a search.
    """

    y: np.ndarray     # (2, trials, d) points of the unit ball
    u1: np.ndarray    # (trials, d) first viewing direction
    u2: np.ndarray    # (trials, d) second one, within eps of the first
    m1_u: np.ndarray  # (trials, 1)
    m2_u: np.ndarray  # (trials, 1)


def _draw_min_angle(eps: float, trials: int, d: int, seed: int) -> _AngleDraws:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(2, trials, d))
    y *= rng.uniform(0, 1.0, size=(2, trials, 1)) ** (1.0 / d) / np.linalg.norm(y, axis=-1, keepdims=True)
    u1 = rng.normal(size=(trials, d))
    u1 /= np.linalg.norm(u1, axis=-1, keepdims=True)
    # second direction within angle eps of the first
    perp = rng.normal(size=(trials, d))
    perp -= np.sum(perp * u1, axis=-1, keepdims=True) * u1
    perp /= np.linalg.norm(perp, axis=-1, keepdims=True)
    theta = rng.uniform(0, eps, size=(trials, 1))
    u2 = np.cos(theta) * u1 + np.sin(theta) * perp
    return _AngleDraws(y, u1, u2, rng.random((trials, 1)), rng.random((trials, 1)))


def _min_angle_holds(draws: _AngleDraws, eps: float, N: float) -> bool:
    lo = float(N + 1)  # (N+1) * diam / 2 for the unit ball
    m1 = lo + (4 * lo - lo) * draws.m1_u
    m2 = lo + (4 * lo - lo) * draws.m2_u
    ang = _angles(draws.y[0] - m1 * draws.u1, draws.y[1] - m2 * draws.u2)
    return bool(np.all(ang <= 2 * eps + 1e-12))


def min_angle_check(eps: float, N: float, trials: int, d: int = 2, seed: int = 0) -> bool:
    """Far viewpoints with nearly equal directions see a unit ball under
    nearly equal directions: checks ang(y1-x1, y2-x2) <= 2 eps.
    The statement is scale invariant, so the ball radius is 1.
    """
    return _min_angle_holds(_draw_min_angle(eps, trials, d, seed), eps, N)


def min_angle_search(eps: float, trials: int, d: int = 2, seed: int = 0,
                     n_max: int = 1 << 20) -> int:
    """Smallest integer N (by doubling, then bisection) passing all trials.

    The samples are drawn once; every candidate N is tested on them, which
    is what re-seeding ``min_angle_check`` per candidate would do.
    """
    draws = _draw_min_angle(eps, trials, d, seed)
    n = 1
    while n <= n_max and not _min_angle_holds(draws, eps, n):
        n *= 2
    if n > n_max:
        raise SearchExhausted(f"no N <= {n_max} passes all {trials} trials at eps={eps!r}")
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _min_angle_holds(draws, eps, mid):
            hi = mid
        else:
            lo = mid
    return hi


class CubeCoverResult(NamedTuple):
    failures: int
    delta: float
    min_margin: float  # smallest slack of any vertex against the dilated bound


_COVER_BLOCK = 4096  # trials drawn and evaluated together; fixes the RNG draw order


class _CoverDraws(NamedTuple):
    """Random parameters of a block of cube-cover trials, in the frame of the
    unperturbed cube Q: Q is centered at the origin with its edges along the
    axes.  No center and no orientation of Q are drawn, since the margin
    does not depend on them (see ``_cover_margins``).  ``frac`` holds the
    size, shift and angle perturbations as fractions of delta; stress trials
    have all three at 1.  ``axis_p`` is None for d = 2.
    """

    s_q: np.ndarray       # (n,) side of the unperturbed cube
    frac: np.ndarray      # (n, 3)
    shift: np.ndarray     # (n, d) direction of the center shift, not normalized
    axis_p: np.ndarray | None   # (n, 3) axis of the perturbing rotation


def _draw_cover_block(rng: np.random.Generator, start: int, n: int, d: int) -> _CoverDraws:
    """Draws for trials start .. start+n-1; every trial index t with
    t % 4 == 0 is a stress trial."""
    s_q = rng.uniform(0.5, 2.0, n)
    frac = rng.random((n, 3))
    frac[(start + np.arange(n)) % 4 == 0] = 1.0
    shift = rng.normal(size=(n, d))
    axis_p = rng.normal(size=(n, 3)) if d == 3 else None
    return _CoverDraws(s_q, frac, shift, axis_p)


def _cover_margins(draws: _CoverDraws, eps: float, delta: float) -> np.ndarray:
    """Per trial, the smallest slack of a perturbed cube's vertices against
    the (1+eps)-dilate of the unperturbed cube Q, in Q's frame.

    The perturbed cube P has side s_p, center a (the scaled shift) and
    rotation R, a turn by theta about axis_p (d = 3) or by theta (d = 2).
    Its vertex with sign vector sigma sits at a + (s_p/2) R sigma.  Every
    sign vector is a vertex and the signs can be picked per term, so the
    largest |coordinate j| over the vertices is the support function
    |a_j| + (s_p/2) sum_k |R_jk|: O(d^2) per trial instead of 2^d d^2.

    Working in Q's frame loses nothing.  Were Q turned by a rotation U drawn
    independently of the rest, P would appear in Q's frame with center a U
    and a turn about axis_p U (and by the same theta in the plane).  The
    shift direction and axis_p are independent isotropic normals, and U is
    independent of them, so (shift U, axis_p U) has the same joint law as
    (shift, axis_p): the margins have the same distribution as with a
    randomly oriented Q, just as they do with a randomly placed one.
    """
    s_q, frac = draws.s_q, draws.frac
    d = draws.shift.shape[1]
    s_p = s_q * (1 + delta * frac[:, 0])
    shift = draws.shift * (delta * s_q * frac[:, 1]
                           / np.linalg.norm(draws.shift, axis=1))[:, None]
    theta = delta * frac[:, 2]
    rot = np.abs(rotation_2d(theta) if d == 2 else rotation_3d(draws.axis_p, theta))
    # the row sums and the maximum over the d coordinates are spelled out: a
    # numpy reduction over an axis of length 2 or 3 costs more than its arithmetic
    reach = np.abs(shift) + (s_p / 2.0)[:, None] * sum(rot[:, :, k] for k in range(d))
    return (1 + eps) * s_q / 2.0 - functools.reduce(np.maximum, reach.T)


def cube_cover_check(eps: float, trials: int, d: int = 2, seed: int = 0) -> CubeCoverResult:
    """Perturbing a cube within delta = eps/(2 + 2 sqrt d) in size, center and
    orientation keeps it inside the (1+eps)-dilate.  Vertex containment test
    (through the support function, in the unperturbed cube's own frame, see
    ``_cover_margins``), run on blocks of trials; every fourth trial is a
    stress trial with all three perturbations at their limit.  A trial
    fails unless its margin is at least 0, so a NaN margin is a failure and
    makes ``min_margin`` NaN.
    """
    if d not in (2, 3):
        raise UnsupportedDimension("cube cover sampling needs d in {2,3}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    delta = eps / (2.0 + 2.0 * math.sqrt(d))
    failures = 0
    min_margin = math.inf
    for start in range(0, trials, _COVER_BLOCK):
        draws = _draw_cover_block(rng, start, min(_COVER_BLOCK, trials - start), d)
        margin = _cover_margins(draws, eps, delta)
        failures += int(np.count_nonzero(~(margin >= 0)))
        min_margin = float(np.minimum(min_margin, margin.min()))
    return CubeCoverResult(failures, delta, min_margin)


class BlowupResult(NamedTuple):
    estimate: float
    bound: float
    stderr: float


_PRUNE_SLACK = 1e-9   # relative slack of the neighbour search's prunes, on the safe side


def _cone_heights(u: np.ndarray, anchors: np.ndarray, offsets: np.ndarray,
                  L: float) -> np.ndarray:
    """min_j offsets_j + L |u - anchors_j| at the rows of u (n, d-1): an
    L-Lipschitz height field, built one anchor (cone) at a time, each
    distance summing the squared differences in axis order."""
    out = np.full(len(u), np.inf)
    for anchor, offset in zip(anchors, offsets):
        s = np.square(u[:, 0] - anchor[0])
        for k in range(1, len(anchor)):
            s += np.square(u[:, k] - anchor[k])
        np.minimum(out, offset + L * np.sqrt(s, out=s), out=out)
    return out


class _BlowupDraws(NamedTuple):
    """A random Lipschitz graph, its mesh and the Monte Carlo samples."""

    heights: Callable[[np.ndarray], np.ndarray]  # (n, d-1) -> (n,) graph heights
    spacing: float        # mesh step along each horizontal axis
    grid: np.ndarray      # (m,) mesh coordinates along each horizontal axis
    mesh_z: np.ndarray    # (m,) * (d-1) graph heights at the mesh points
    x: np.ndarray         # (mc_samples, d) samples of the bounding box
    box_vol: float


def _draw_blowup(L: float, diam: float, eps: float, mc_samples: int, d: int,
                 seed: int) -> _BlowupDraws:
    rng = np.random.default_rng(seed)
    du = d - 1
    span = diam / math.sqrt(du * (1.0 + L * L))  # graph over [0, span]^du has diameter <= diam
    anchors = rng.uniform(0, span, size=(8, du))
    offsets = rng.uniform(0, L * span / 2 if L > 0 else 1.0, size=8)
    heights = functools.partial(_cone_heights, anchors=anchors, offsets=offsets, L=L)
    spacing = eps / 20.0
    grid = np.arange(0, span + spacing, spacing)
    mesh = np.stack([g.ravel() for g in np.meshgrid(*[grid] * du, indexing="ij")], axis=1)
    mesh_z = heights(mesh)
    lo = np.array([-eps] * du + [mesh_z.min() - eps])
    hi = np.array([span + eps] * du + [mesh_z.max() + eps])
    x = rng.uniform(lo, hi, size=(mc_samples, d))
    return _BlowupDraws(heights, spacing, grid, mesh_z.reshape((len(grid),) * du), x,
                        float(np.prod(hi - lo)))


def _ring_offsets(du: int, width: int, spacing: float, reach: float):
    """Index offsets of the search window grouped into rings of increasing
    horizontal radius: yields (r_lo, r_hi, offsets) with offsets (k, du)."""
    axis = np.arange(-width, width + 1)
    off = np.stack(np.meshgrid(*[axis] * du, indexing="ij"), axis=-1).reshape(-1, du)
    near = np.sqrt(np.sum(np.maximum(np.abs(off) - 1, 0) ** 2, axis=1))  # in steps
    far = np.sqrt(np.sum((np.abs(off) + 1) ** 2, axis=1))
    keep = spacing * near < reach
    off, near, far = off[keep], near[keep], far[keep]
    ring = np.floor(near).astype(np.intp)
    order = np.lexsort((np.sum(off * off, axis=1), ring))
    for rows in np.split(order, np.flatnonzero(np.diff(ring[order])) + 1):
        yield spacing * float(near[rows].min()), spacing * float(far[rows].max()), off[rows]


class _Samples(NamedTuple):
    """The samples still in a neighbour search, one entry each."""

    rows: np.ndarray                # sample index
    cell: np.ndarray                # flat index of the sample's cell in the padded mesh
    gap: np.ndarray                 # |x_z - s(x_u)|
    z: np.ndarray                   # x_z
    index: tuple[np.ndarray, ...]   # per horizontal axis, the cell's padded mesh index
    coord: tuple[np.ndarray, ...]   # per horizontal axis, x_u

    def take(self, keep: np.ndarray) -> "_Samples":
        # one-dimensional integer gathers: a boolean or a 2-d gather costs
        # several times more
        keep = np.flatnonzero(keep)
        return _Samples(self.rows[keep], self.cell[keep], self.gap[keep], self.z[keep],
                        tuple(a[keep] for a in self.index), tuple(a[keep] for a in self.coord))


def _graph_hits(draws: _BlowupDraws, L: float, eps: float) -> np.ndarray:
    """Per sample, whether some mesh point of the graph lies closer than eps:
    the mesh point (g[i], z[i]) at distance sqrt(sum_k (x_k - p_k)^2), summed
    in axis order, below eps.  See ``lipschitz_blowup_check``."""
    x, h = draws.x, draws.spacing
    du = x.shape[1] - 1
    reach = eps * (1.0 + _PRUNE_SLACK)
    gap = np.abs(x[:, du] - draws.heights(x[:, :du]))
    rows = np.flatnonzero(gap < reach * math.sqrt(1.0 + L * L))
    width = math.ceil(eps / h) + 1
    coord = tuple(x[rows, k] for k in range(du))
    base = [np.floor(c / h).astype(np.intp) for c in coord]
    # pad the mesh with NaN heights so that every window lies inside it; a
    # NaN distance is never below eps, exactly as a missing point
    pad_lo = max(0, width - min((int(b.min(initial=0)) for b in base)))
    pad_hi = max(0, max(int(b.max(initial=0)) for b in base) + width - (len(draws.grid) - 1))
    z = np.pad(draws.mesh_z, [(pad_lo, pad_hi)] * du, constant_values=np.nan)
    g = np.pad(draws.grid, (pad_lo, pad_hi), constant_values=np.nan)
    strides = np.array(z.strides) // z.itemsize
    z = z.ravel()
    index = tuple(b + pad_lo for b in base)
    cell = sum(i * int(s) for i, s in zip(index, strides))
    live = _Samples(rows, cell, gap[rows], x[rows, du], index, coord)
    hits = np.zeros(len(x), dtype=bool)
    for r_lo, r_hi, offsets in _ring_offsets(du, width, h, reach):
        vert = np.maximum(live.gap - L * r_hi, 0.0)
        cand = live.take(r_lo * r_lo + vert * vert < reach * reach)
        for o in offsets:
            # sum_k (x_k - p_k)^2 in axis order, in place
            s = np.subtract(cand.coord[0], g[cand.index[0] + o[0]])
            s *= s
            for k in range(1, du):
                dx = np.subtract(cand.coord[k], g[cand.index[k] + o[k]])
                dx *= dx
                s += dx
            dz = np.subtract(cand.z, z[cand.cell + int(o @ strides)])
            dz *= dz
            s += dz
            hit = np.sqrt(s, out=s) < eps
            if hit.any():
                hits[cand.rows[hit]] = True
                cand = cand.take(~hit)
        live = live.take(~hits[live.rows])
    return hits


def lipschitz_blowup_check(L: float, diam: float, eps: float,
                           mc_samples: int, d: int = 2, seed: int = 0,
                           constant: float = 4.0) -> BlowupResult:
    """Monte Carlo volume of the eps-neighborhood of a random Lipschitz graph,
    returned with the bound constant * (diam + eps)^(d-1) * (1 + L) * eps it
    is judged against (estimate + 5 stderr at most the bound).

    The graph is the mesh p_i = (g[i], s(g[i])) of the L-Lipschitz height
    field s over the axis grid g = 0, h, 2h, ... (h = eps/20), and a sample
    x = (x_u, x_z) hits when some p_i has |x - p_i| < eps, the distance
    computed as sqrt(sum_k (x_k - p_k)^2) in axis order, as a k-d tree
    computes it.  ``_graph_hits`` decides this by visiting, per sample, only
    the mesh points that can be that close:

    * Window.  With b = floor(x_u / h) per horizontal axis, x_u lies in
      [b h, (b+1) h).  A point with |x_u - i h| < eps has i - b < eps/h + 1
      and b - i < eps/h, so |i - b| <= W = ceil(eps/h) + 1; the extra index
      absorbs the rounding of x_u / h and of g[i] = fl(i h).  Indices of the
      window outside the mesh (samples within eps of its edge) are padding
      with NaN heights, whose distance is never below eps.
    * Rings.  A point at offset o = i - b lies at horizontal distance at
      least r_lo = h |max(|o| - 1, 0)| and at most r_hi = h ||o| + 1|, both
      taken per axis.  Offsets with r_lo >= eps can never hit and are
      dropped; the rest are visited in rings of increasing r_lo, and a
      sample stops being tested once it hits.
    * Sample prune.  Let D = |x_z - s(x_u)|.  Since s is L-Lipschitz, a point
      at horizontal distance r has |x_z - s(p_u)| >= D - L r, so its squared
      distance is at least r^2 + max(0, D - L r)^2, whose minimum over r is
      D^2 / (1 + L^2).  A sample with D >= eps sqrt(1 + L^2) has no point
      within eps and is dropped; a ring is tested only on the samples with
      r_lo^2 + max(0, D - L r_hi)^2 < eps^2.
    * Slack.  The prunes compare with eps (1 + 1e-9) instead of eps, so
      they only keep more samples than the real-number bounds ask for.  The
      bounds are computed in floating point from heights of size about
      diam (1 + L); their rounding errors, about 1e-16 of that size, stay far
      below 1e-9 eps for any mesh that fits in memory ((20 diam/eps)^(d-1)
      points).  The hit test itself has no slack, so each sample is decided
      as the tree decides it, bit for bit.
    """
    if d not in (2, 3):
        raise UnsupportedDimension("blowup sampling needs d in {2,3}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not 0 <= L < math.inf:
        raise ValueError(f"Lipschitz constant L must lie in [0, inf), got {L!r}")
    if not 0 < diam < math.inf:
        raise ValueError(f"diam must be positive and finite, got {diam!r}")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples!r}")
    draws = _draw_blowup(L, diam, eps, mc_samples, d, seed)
    p = _graph_hits(draws, L, eps).mean()
    estimate = draws.box_vol * p
    stderr = draws.box_vol * math.sqrt(max(p * (1 - p), 1e-12) / mc_samples)
    bound = constant * (diam + eps) ** (d - 1) * (1.0 + L) * eps
    return BlowupResult(estimate, bound, stderr)


def _boundary_lengths(centers: np.ndarray, sides: np.ndarray, rots: np.ndarray,
                      radius: float) -> np.ndarray:
    """Exact length of the boundary of a union of squares inside a disk, for
    a stack of T unions of n squares each: centers (T, n, 2), sides (T, n),
    rotations (T, n, 2, 2); returns (T,).

    Each square edge contributes the part of the edge that lies in the disk
    and in no other square's interior.  All edges of a union are clipped
    against all of its squares at once; the holes of an edge are merged by
    sorting them and taking a running maximum of their ends.  Every
    reduction runs along a last axis of length 4n or n, so a union gives the
    same bits alone or in a stack.
    """
    T, n = sides.shape
    corners = _corners(2) * (sides / 2.0)[..., None, None]              # (T, n, 4, 2)
    verts = centers[..., None, :] + corners @ np.swapaxes(rots, -1, -2)
    # ndindex corner order traced as a closed loop: edge k runs from p0 to p1
    p0 = verts[:, :, [0, 1, 3, 2]].reshape(T, 4 * n, 2)
    seg = verts[:, :, [1, 3, 2, 0]].reshape(T, 4 * n, 2) - p0
    length = np.linalg.norm(seg, axis=-1)                                # (T, E)
    v = seg / length[..., None]

    # part of each edge inside the open disk: |p0 + t v|^2 < r^2
    b = np.sum(p0 * v, axis=-1)
    disc = b * b - (np.sum(p0 * p0, axis=-1) - radius * radius)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum(0.0, -b - root)
    hi = np.minimum(length, -b + root)
    in_disk = (disc > 0) & (lo < hi)

    # part of each edge inside each open square, in the square's frame, one
    # slab (frame axis) at a time: the 2x2 products and the reductions over
    # the two slabs are written out, which costs less than an einsum and a
    # reduction along an axis of length 2
    rel = p0[:, :, None, :] - centers[:, None]                           # (T, E, n, 2)
    r = rots[:, None]                                                    # (T, 1, n, 2, 2)
    half = (sides / 2.0)[:, None, :]
    t0, t1 = 0.0, length[..., None]
    hit = True
    for col in range(2):
        q0 = rel[..., 0] * r[..., 0, col] + rel[..., 1] * r[..., 1, col]        # (T, E, n)
        dv = v[..., None, 0] * r[..., 0, col] + v[..., None, 1] * r[..., 1, col]
        par = np.abs(dv) < 1e-15
        step = np.where(par, 1.0, dv)
        a, c = (-half - q0) / step, (half - q0) / step
        t0 = np.maximum(t0, np.where(par, -np.inf, np.minimum(a, c)))
        t1 = np.minimum(t1, np.where(par, np.inf, np.maximum(a, c)))
        hit = hit & (~par | (np.abs(q0) < half))
    hit &= t0 < t1
    hit &= np.repeat(np.arange(n), 4)[:, None] != np.arange(n)[None, :]  # not its own square

    # clip the holes to the disk part; a missed square becomes an empty hole at lo
    h0 = np.maximum(lo[..., None], t0)
    h1 = np.minimum(hi[..., None], t1)
    keep = hit & (h1 > h0)
    h0 = np.where(keep, h0, lo[..., None])
    h1 = np.where(keep, h1, lo[..., None])
    order = np.argsort(h0, axis=-1, kind="stable")
    h0 = np.take_along_axis(h0, order, axis=-1)
    h1 = np.take_along_axis(h1, order, axis=-1)
    reach = np.maximum.accumulate(np.concatenate([lo[..., None], h1[..., :-1]], axis=-1), axis=-1)
    covered = np.sum(np.maximum(0.0, h1 - np.maximum(h0, reach)), axis=-1)
    return np.sum(np.where(in_disk, (hi - lo) - covered, 0.0), axis=-1)


def boundary_length_in_disk(squares: list[OrientedCube], radius: float = 1.0) -> float:
    """Exact length of the boundary of a union of squares inside a disk
    (``_boundary_lengths`` on a stack of one union)."""
    if not squares:
        return 0.0
    centers = np.array([sq.center for sq in squares], dtype=np.float64)
    sides = np.array([sq.side for sq in squares], dtype=np.float64)
    rots = np.stack([sq.rotation for sq in squares])
    return float(_boundary_lengths(centers[None], sides[None], rots[None], radius)[0])


class LargeBoundaryResult(NamedTuple):
    max_ratio: float
    trials: int


def large_boundary_in_ball_check(K: float, trials: int, seed: int = 0) -> LargeBoundaryResult:
    """Boundary length of unions of big squares inside the unit disk, relative
    to (K^-2 + 1) times the circle length.  Exact segment clipping in the plane.

    Each trial is a union of 1 to 11 squares.  All draws are whole arrays:
    the square counts of the trials, then over all their squares the sides,
    angles, center directions and center distances (about half a side, so
    that an edge lies near the disk).  The unions are grouped by square
    count and each group is measured by one ``_boundary_lengths`` call;
    grouping rather than padding to 11 squares keeps every per-union
    reduction the length it has alone, so each length is bit-equal to
    ``boundary_length_in_disk`` on that union.  A NaN length makes
    ``max_ratio`` NaN.
    """
    if not 0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    bound = (K ** -2 + 1.0) * 2 * math.pi
    counts = rng.integers(1, 12, size=trials)
    total = int(counts.sum())
    sides = 2 * K * (1.0 + rng.exponential(0.7, total))
    rots = rotation_2d(rng.uniform(0, 2 * math.pi, total))
    direction = rng.normal(size=(total, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    centers = direction * (sides / 2.0 * rng.uniform(0.0, 1.2, total))[:, None]
    start = np.cumsum(counts) - counts
    worst = 0.0
    for n in np.unique(counts).tolist():
        rows = start[counts == n, None] + np.arange(n)  # (T, n) square indices
        lengths = _boundary_lengths(centers[rows], sides[rows], rots[rows], 1.0)
        worst = float(np.maximum(worst, np.max(lengths / bound)))
    return LargeBoundaryResult(worst, trials)
