"""Sampled verification of the continuum cube-geometry lemmas.

These statements live off the grid (arbitrary orientations, balls, Lipschitz
surfaces), so they are checked by randomized sampling with explicit margins
rather than exact arithmetic.  The checks return their measurements and the
caller judges them against the bounds; Monte Carlo judgements use five-sigma
bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import SearchExhausted, UnsupportedDimension


@dataclass(frozen=True)
class OrientedCube:
    """A cube with arbitrary orientation: center, side, rotation matrix."""

    center: tuple[float, ...]
    side: float
    rotation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        d = len(self.center)
        if r.shape != (d, d) or not np.allclose(r @ r.T, np.eye(d), atol=1e-12):
            raise ValueError("rotation must be orthogonal")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)

    def contains(self, pts: np.ndarray, dilation: float = 1.0) -> np.ndarray:
        local = (np.atleast_2d(pts) - np.asarray(self.center)) @ self.rotation
        return np.all(np.abs(local) <= dilation * self.side / 2.0, axis=1)

    def vertices(self) -> np.ndarray:
        d = len(self.center)
        corners = np.array(list(np.ndindex(*([2] * d)))) * 2 - 1
        return np.asarray(self.center) + (corners * self.side / 2.0) @ self.rotation.T


def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_3d(axis: np.ndarray, theta: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def _angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    dot = np.sum(u * v, axis=-1)
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    return np.arccos(np.clip(dot / (nu * nv), -1.0, 1.0))


def cube_angle_check(d: int, samples: int, seed: int = 0) -> float:
    """Max angle between a boundary point of the centered unit-scale cube and
    the outer normal of its face; the bound it is judged against is
    pi/2 - arcsin(1/sqrt d).

    Corner points are included, where the bound is attained exactly.
    """
    if d not in (2, 3):
        raise UnsupportedDimension("cube angle sampling needs d in {2,3}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, d))
    corners = np.array(list(np.ndindex(*([2] * d)))) * 2.0 - 1.0
    pts = np.vstack([pts, corners])
    pts[:, 0] = 1.0  # project onto the face with outer normal e_0
    e = np.zeros(d)
    e[0] = 1.0
    ang = _angles(pts, np.broadcast_to(e, pts.shape))
    return float(ang.max())


def min_angle_check(eps: float, N: float, trials: int, d: int = 2, seed: int = 0) -> bool:
    """Far viewpoints with nearly equal directions see a unit ball under
    nearly equal directions: checks ang(y1-x1, y2-x2) <= 2 eps.
    """
    rng = np.random.default_rng(seed)
    r = 1.0  # ball radius; the statement is scale invariant
    y = rng.normal(size=(2, trials, d))
    y *= rng.uniform(0, r, size=(2, trials, 1)) ** (1.0 / d) / np.linalg.norm(y, axis=-1, keepdims=True)
    u1 = rng.normal(size=(trials, d))
    u1 /= np.linalg.norm(u1, axis=-1, keepdims=True)
    # second direction within angle eps of the first
    perp = rng.normal(size=(trials, d))
    perp -= np.sum(perp * u1, axis=-1, keepdims=True) * u1
    perp /= np.linalg.norm(perp, axis=-1, keepdims=True)
    theta = rng.uniform(0, eps, size=(trials, 1))
    u2 = np.cos(theta) * u1 + np.sin(theta) * perp
    lo = (N + 1) * r  # (N+1) * diam / 2
    m1 = rng.uniform(lo, 4 * lo, size=(trials, 1))
    m2 = rng.uniform(lo, 4 * lo, size=(trials, 1))
    ang = _angles(y[0] - m1 * u1, y[1] - m2 * u2)
    return bool(np.all(ang <= 2 * eps + 1e-12))


def min_angle_search(eps: float, trials: int, d: int = 2, seed: int = 0,
                     n_max: int = 1 << 20) -> int:
    """Smallest integer N (by doubling, then bisection) passing all trials."""
    n = 1
    while n <= n_max and not min_angle_check(eps, n, trials, d, seed):
        n *= 2
    if n > n_max:
        raise SearchExhausted(f"no N <= {n_max} passes all {trials} trials at eps={eps!r}")
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if min_angle_check(eps, mid, trials, d, seed):
            hi = mid
        else:
            lo = mid
    return hi


class CubeCoverResult(NamedTuple):
    failures: int
    delta: float
    min_margin: float  # smallest slack of any vertex against the dilated bound


def cube_cover_check(eps: float, trials: int, d: int = 2, seed: int = 0,
                     stress: bool = True) -> CubeCoverResult:
    """Perturbing a cube within delta = eps/(2 + 2 sqrt d) in size, center and
    orientation keeps it inside the (1+eps)-dilate.  Vertex containment test.
    """
    if d not in (2, 3):
        raise UnsupportedDimension("cube cover sampling needs d in {2,3}")
    rng = np.random.default_rng(seed)
    delta = eps / (2.0 + 2.0 * math.sqrt(d))
    failures = 0
    min_margin = math.inf
    corners = np.array(list(np.ndindex(*([2] * d)))) * 2.0 - 1.0
    for t in range(trials):
        at_limit = stress and (t % 4 == 0)
        s_q = rng.uniform(0.5, 2.0)
        c_q = rng.uniform(-1.0, 1.0, d)
        if d == 2:
            rot_q = rotation_2d(rng.uniform(0, 2 * math.pi))
        else:
            rot_q = rotation_3d(rng.normal(size=3), rng.uniform(0, 2 * math.pi))
        s_p = s_q * (1 + (delta if at_limit else delta * rng.random()))
        shift = rng.normal(size=d)
        shift *= (delta * s_q * (1.0 if at_limit else rng.random())) / np.linalg.norm(shift)
        theta = delta if at_limit else delta * rng.random()
        if d == 2:
            rot_p = rotation_2d(theta) @ rot_q
        else:
            rot_p = rotation_3d(rng.normal(size=3), theta) @ rot_q
        verts = c_q + shift + (corners * s_p / 2.0) @ rot_p.T
        local = (verts - c_q) @ rot_q
        margin = (1 + eps) * s_q / 2.0 - np.abs(local).max()
        min_margin = min(min_margin, float(margin))
        if margin < 0:
            failures += 1
    return CubeCoverResult(failures, delta, min_margin)


class BlowupResult(NamedTuple):
    estimate: float
    bound: float
    stderr: float


def lipschitz_blowup_check(L: float, diam: float, eps: float,
                           mc_samples: int, d: int = 2, seed: int = 0,
                           constant: float = 4.0) -> BlowupResult:
    """Monte Carlo volume of the eps-neighborhood of a random Lipschitz graph,
    returned with the bound constant * (diam + eps)^(d-1) * (1 + L) * eps it
    is judged against (estimate + 5 stderr at most the bound).
    """
    if d not in (2, 3):
        raise UnsupportedDimension("blowup sampling needs d in {2,3}")
    rng = np.random.default_rng(seed)
    du = d - 1
    span = diam / math.sqrt(du * (1.0 + L * L))  # graph over [0, span]^du has diameter <= diam
    anchors = rng.uniform(0, span, size=(8, du))
    offsets = rng.uniform(0, L * span / 2 if L > 0 else 1.0, size=8)

    def surf(x):
        dist = np.linalg.norm(x[:, None, :] - anchors[None, :, :], axis=2)
        return np.min(offsets[None, :] + L * dist, axis=1)

    spacing = eps / 20.0
    grids = [np.arange(0, span + spacing, spacing)] * du
    mesh = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=1)
    pts = np.column_stack([mesh, surf(mesh)])
    tree = cKDTree(pts)

    zmin, zmax = pts[:, -1].min(), pts[:, -1].max()
    lo = np.array([-eps] * du + [zmin - eps])
    hi = np.array([span + eps] * du + [zmax + eps])
    box_vol = float(np.prod(hi - lo))
    x = rng.uniform(lo, hi, size=(mc_samples, d))
    dist, _ = tree.query(x, k=1)
    hits = dist < eps
    p = hits.mean()
    estimate = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1 - p), 1e-12) / mc_samples)
    bound = constant * (diam + eps) ** (d - 1) * (1.0 + L) * eps
    return BlowupResult(estimate, bound, stderr)


def _segment_interval_in_square(p0: np.ndarray, direction: np.ndarray,
                                length: float, sq: OrientedCube) -> tuple[float, float] | None:
    """Parameter interval of p0 + t*direction, t in [0, length], inside the open square."""
    c = np.asarray(sq.center)
    q0 = (p0 - c) @ sq.rotation
    dv = direction @ sq.rotation
    t0, t1 = 0.0, length
    half = sq.side / 2.0
    for k in range(2):
        if abs(dv[k]) < 1e-15:
            if abs(q0[k]) >= half:
                return None
            continue
        a = (-half - q0[k]) / dv[k]
        b = (half - q0[k]) / dv[k]
        if a > b:
            a, b = b, a
        t0, t1 = max(t0, a), min(t1, b)
        if t0 >= t1:
            return None
    return (t0, t1)


def _segment_interval_in_disk(p0: np.ndarray, direction: np.ndarray,
                              length: float, radius: float) -> tuple[float, float] | None:
    # |p0 + t v|^2 < r^2, unit v
    b = float(np.dot(p0, direction))
    c = float(np.dot(p0, p0)) - radius * radius
    disc = b * b - c
    if disc <= 0:
        return None
    r = math.sqrt(disc)
    t0, t1 = max(0.0, -b - r), min(length, -b + r)
    return (t0, t1) if t0 < t1 else None


def _subtract_intervals(base: tuple[float, float],
                        holes: list[tuple[float, float]]) -> float:
    """Length of base minus the union of holes."""
    lo, hi = base
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in holes
                     if min(hi, b) > max(lo, a))
    covered = 0.0
    cur = lo
    for a, b in clipped:
        if b <= cur:
            continue
        covered += b - max(a, cur)
        cur = b
    return (hi - lo) - covered


def boundary_length_in_disk(squares: list[OrientedCube], radius: float = 1.0) -> float:
    """Exact length of the boundary of a union of squares inside a disk.

    Each square edge contributes the part of the edge that lies in the disk
    and in no other square's interior.
    """
    total = 0.0
    for i, sq in enumerate(squares):
        verts = sq.vertices()
        order = [0, 1, 3, 2]  # ndindex corner order traced as a closed loop
        for a in range(4):
            p0 = verts[order[a]]
            p1 = verts[order[(a + 1) % 4]]
            seg = p1 - p0
            length = float(np.linalg.norm(seg))
            v = seg / length
            disk = _segment_interval_in_disk(p0, v, length, radius)
            if disk is None:
                continue
            holes = []
            for j, other in enumerate(squares):
                if j == i:
                    continue
                iv = _segment_interval_in_square(p0, v, length, other)
                if iv is not None:
                    holes.append(iv)
            total += _subtract_intervals(disk, holes)
    return total


class LargeBoundaryResult(NamedTuple):
    max_ratio: float
    trials: int


def large_boundary_in_ball_check(K: float, trials: int, seed: int = 0,
                                 d: int = 2) -> LargeBoundaryResult:
    """Boundary length of unions of big squares inside the unit disk, relative
    to (K^-d + 1) times the circle length.  Exact segment clipping; d = 2 only.
    """
    if d != 2:
        raise UnsupportedDimension("exact union boundary measure implemented for d=2")
    rng = np.random.default_rng(seed)
    circ = 2 * math.pi
    bound = (K ** (-d) + 1.0) * circ
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 12))
        squares = []
        for _ in range(n):
            side = 2 * K * (1.0 + float(rng.exponential(0.7)))
            theta = rng.uniform(0, 2 * math.pi)
            # put an edge near the disk: center at roughly half a side away
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            dist = side / 2.0 * rng.uniform(0.0, 1.2)
            center = direction * dist
            squares.append(OrientedCube(tuple(center), side, rotation_2d(theta)))
        length = boundary_length_in_disk(squares, 1.0)
        worst = max(worst, length / bound)
    return LargeBoundaryResult(worst, trials)
