"""Rotation-invariant planar grids and their fundamental-slice representation.

A grid invariant under the N discrete rotations is stored by its slice part
only: the points with polar angle in [0, 2*pi/N).  The full point set is
recovered by applying all N rotations.  The section mapping slice points back
into the plane is the identity embedding, fixed once and for all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, NotInvariant, ParseError, TrivialStabilizer

TWO_PI = 2.0 * math.pi

# Folding tolerance at the slice-angle boundary.
ANGLE_TOL = 1e-12
# Euclidean tolerance when matching a rotated point set against itself.
INVARIANCE_TOL = 1e-9
# Two points of the full grid closer than this are considered duplicates.
DUPLICATE_TOL = 1e-12


@dataclass(frozen=True)
class SlicePoint:
    """A point of the fundamental slice, in polar coordinates."""

    radius: float
    angle: float

    def xy(self) -> tuple[float, float]:
        return (self.radius * math.cos(self.angle), self.radius * math.sin(self.angle))


@dataclass(frozen=True)
class RotInvariantGrid:
    """A rotation-invariant grid, represented by its slice points.

    ``kind`` is "spatial" or "frequency"; frequency grids must not contain
    the origin (all radii strictly positive).  Instances are immutable and
    safe to share across threads.  Construction through the module functions
    (or :meth:`validate`) enforces the invariants; the raw constructor does
    not, which the test suite uses to build deliberately broken grids.
    """

    N: int
    points: tuple[SlicePoint, ...]
    kind: str = "spatial"

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def validate(self) -> "RotInvariantGrid":
        if type(self.N) is not int or self.N < 1:
            raise InvalidGrid(f"N must be a positive integer, got {self.N!r}")
        if self.kind not in ("spatial", "frequency"):
            raise InvalidGrid(f"unknown grid kind {self.kind!r}")
        if not self.points:
            raise InvalidGrid("a grid needs at least one slice point")
        width = TWO_PI / self.N
        origin_count = 0
        for p in self.points:
            if not (math.isfinite(p.radius) and math.isfinite(p.angle)):
                raise InvalidGrid(f"non-finite slice point {p}")
            if p.radius < 0:
                raise InvalidGrid(f"negative radius in {p}")
            if p.radius == 0:
                if self.kind == "frequency":
                    raise TrivialStabilizer("frequency grids cannot contain the origin")
                origin_count += 1
            if not (0.0 <= p.angle < width):
                raise InvalidGrid(f"angle {p.angle} outside slice [0, {width})")
        if origin_count > 1:
            raise InvalidGrid("the origin may appear at most once")
        # The copy of slice point j nearest to slice point i is j or j turned by +-2*pi/N,
        # so the duplicates are the pairs of ``others`` within DUPLICATE_TOL: slice points
        # against later slice points and against the turned slice, which leaves out the
        # origin, fixed by every turn, and is empty at N = 1.
        z = self.slice_xy() @ np.array([1, 1j])
        moved = np.flatnonzero((z != 0) & (self.N > 1))
        others = np.concatenate((z, z[moved] * np.exp(1j * width)))
        pair = _first_close_pair(others, len(z))
        if pair is not None:
            i, k = pair
            j = k if k < len(z) else moved[k - len(z)]
            raise InvalidGrid(f"slice point {i} duplicates a full-grid copy of slice point {j}")
        return self

    def slice_xy(self) -> np.ndarray:
        """Slice points as an (P, 2) Cartesian array."""
        r, a = self.slice_polar()
        return np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)

    def slice_polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Radii and angles of the slice points as two length-P arrays."""
        r = np.array([p.radius for p in self.points], dtype=float)
        a = np.array([p.angle for p in self.points], dtype=float)
        return r, a

    def full_xy(self) -> np.ndarray:
        """The full point set as an (N, P, 2) array; row n is the slice rotated by 2*pi*n/N."""
        t = TWO_PI * np.arange(self.N) / self.N
        c, s = np.cos(t)[:, None], np.sin(t)[:, None]
        x, y = self.slice_xy().T
        return np.stack([c * x - s * y, s * x + c * y], axis=-1)

    def same_geometry(self, other: "RotInvariantGrid") -> bool:
        return self.N == other.N and self.points == other.points


def _first_close_pair(z: np.ndarray, count: int) -> tuple[int, int] | None:
    """The first of the complex points ``z[:count]`` with a later point of ``z`` within DUPLICATE_TOL, and the nearest such point.

    Both come as indices into ``z``, the nearest point the earliest on ties;
    None when no point of ``z[:count]`` has one.  The pairs are found by a
    sweep along one direction: the points are sorted on u, their projection
    onto the direction at 1 radian, and entries k apart in u order are
    compared for k = 1, 2, ..., each entry only while its u gap to the entry
    k ahead stays within ``reach``; gaps only widen with k.  Two points
    within DUPLICATE_TOL have projections within it too, and rounding moves
    each u by under 3*eps*|z|, so ``reach`` misses no pair.  On points spread
    along u the sweep ends after a few O(P) passes; points that share u cost
    up to O(P^2).  The direction lies off the axes, where grids put whole
    slices: turned by a quarter, a slice at angle 0 has every x near 0.

    Once a pair is found, an entry stays in the sweep only while it can
    still be in a pair whose earlier index is at most the best so far: its
    own index is, or an entry ahead of it within ``reach`` has such an index.
    The sort is stable, so equal points sit in index order and a cluster of
    m copies leaves the sweep after one pass, all but its first member, which
    takes m passes of one entry each.
    """
    u = z.real * math.cos(1.0) + z.imag * math.sin(1.0)
    order = np.argsort(u, kind="stable")
    z, u = z[order], u[order]
    reach = DUPLICATE_TOL + 8 * np.finfo(float).eps * (np.abs(z).max() + DUPLICATE_TOL)
    near = np.arange(len(z))
    pairs = []  # (earlier index, distance, later index) of every close pair found
    best = count
    for k in range(1, len(z)):
        near = near[near < len(z) - k]
        near = near[u[near + k] - u[near] <= reach]
        if not near.size:
            break
        distance = np.abs(z[near + k] - z[near])
        close = distance <= DUPLICATE_TOL
        if close.any():
            a, b = order[near[close]], order[near[close] + k]
            earlier = np.minimum(a, b)
            pairs.append((earlier, distance[close], np.maximum(a, b)))
            if earlier.min() < best:
                best = int(earlier.min())
                below = np.flatnonzero(order <= best)
        if best < count:
            ahead = below[np.minimum(np.searchsorted(below, near + k, side="right"), len(below) - 1)]
            near = near[(order[near] <= best) | ((ahead > near + k) & (u[ahead] - u[near] <= reach))]
    if best == count:
        return None
    earlier, distance, later = (np.concatenate(p) for p in zip(*pairs))
    pick = np.lexsort((later, distance, earlier))[0]
    return int(earlier[pick]), int(later[pick])


def _fold(xy, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation indices, radii and slice angles of the planar points ``xy``.

    Point m is ``R_{2*pi*idx[m]/N}`` applied to the slice point
    ``(radius[m], angle[m])``; the origin folds to index 0, angle 0.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(xy)):
        raise InvalidGrid("points must be finite")
    radius = np.hypot(xy[:, 0], xy[:, 1])
    theta = np.arctan2(xy[:, 1], xy[:, 0]) % TWO_PI
    width = TWO_PI / N
    idx = theta // width
    rem = np.maximum(theta - idx * width, 0.0)
    snap = width - rem <= ANGLE_TOL
    origin = radius == 0.0
    rem[snap | origin] = 0.0
    idx = np.where(origin, 0, (idx + snap).astype(int) % N)
    return idx, radius, rem


def slice_of(point, N: int) -> tuple[int, SlicePoint]:
    """Fold a planar point into the fundamental slice.

    Returns ``(rotation_index, slice_point)`` with
    ``point = R_{2*pi*rotation_index/N} slice_point``.  The origin maps to
    index 0 with radius 0 by convention.
    """
    (idx,), (radius,), (angle,) = _fold(point, N)
    return int(idx), SlicePoint(float(radius), float(angle))


def build_polar_grid(num_rays_per_slice: int, radii, N: int, kind: str = "spatial") -> RotInvariantGrid:
    """Polar grid: ``num_rays_per_slice`` equispaced rays per slice crossed with ``radii``.

    The full point set is { rho_j * e^{i 2*pi*k / (N*num_rays_per_slice)} }.
    """
    if num_rays_per_slice < 1:
        raise InvalidGrid("num_rays_per_slice must be >= 1")
    if N < 1:
        raise InvalidGrid("N must be >= 1")
    radii = [float(r) for r in radii]
    if not radii:
        raise InvalidGrid("at least one radius required")
    for r in radii:
        if r <= 0:
            raise InvalidGrid(f"nonpositive radius {r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidGrid("radii must be strictly increasing")
    width = TWO_PI / N
    pts = [
        SlicePoint(rho, t * width / num_rays_per_slice)
        for rho in radii
        for t in range(num_rays_per_slice)
    ]
    return RotInvariantGrid(N, tuple(pts), kind).validate()


def canonicalize(points, N: int, kind: str = "spatial") -> RotInvariantGrid:
    """Fold a full rotation-invariant point set into its slice representation.

    Points within ``INVARIANCE_TOL`` of each other once folded form one
    orbit.  The set is invariant under rotation by 2*pi/N exactly when every
    orbit has N members at the N distinct rotation indices; otherwise
    :class:`NotInvariant` is raised with the orbit's first point as the
    witness.  Each orbit is represented by its member at rotation index 0,
    in order of first appearance; the origin passes through as itself.
    """
    if N < 1:
        raise InvalidGrid("N must be >= 1")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    idx, radius, angle = _fold(pts, N)
    origin = radius <= DUPLICATE_TOL
    if kind == "frequency" and origin.any():
        raise TrivialStabilizer("frequency grids cannot contain the origin")

    x, y = radius * np.cos(angle), radius * np.sin(angle)
    free = ~origin
    slice_points: list[SlicePoint] = []
    for i in range(len(pts)):
        if origin[i]:
            slice_points.append(SlicePoint(0.0, 0.0))
        elif free[i]:
            orbit = free & (np.hypot(x - x[i], y - y[i]) <= INVARIANCE_TOL)
            free &= ~orbit
            # The size test comes first, so that an orbit short of a huge N allocates nothing.
            if orbit.sum() != N or not np.array_equal(np.sort(idx[orbit]), np.arange(N)):
                witness = tuple(pts[i].tolist())
                raise NotInvariant(witness, f"orbit of {witness} has {orbit.sum()} of {N} points")
            rep = np.flatnonzero(orbit & (idx == 0))[0]
            slice_points.append(SlicePoint(float(radius[rep]), float(angle[rep])))
    return RotInvariantGrid(N, tuple(slice_points), kind).validate()


def grid_to_dict(grid: RotInvariantGrid) -> dict:
    return {
        "N": grid.N,
        "kind": grid.kind,
        "points": [{"radius": p.radius, "angle": p.angle} for p in grid.points],
    }


def grid_from_dict(data) -> RotInvariantGrid:
    try:
        N = data["N"]
        kind = data["kind"]
        pts = tuple(SlicePoint(float(p["radius"]), float(p["angle"])) for p in data["points"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed grid record: {exc}") from exc
    return RotInvariantGrid(N, pts, kind).validate()


def save_grid(grid: RotInvariantGrid, path) -> None:
    body = json.dumps(grid_to_dict(grid), indent=1)
    # 17 significant digits round-trip doubles exactly; json uses repr, which does.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or not UTF-8
            raise ParseError(f"{path}: {exc}") from exc


def load_grid(path) -> RotInvariantGrid:
    return grid_from_dict(_read_json(path))


def load_points(path) -> tuple[np.ndarray, int | None]:
    """The [x, y] pairs of a JSON list, or of an object's "points" beside an optional integer "N"."""
    data = _read_json(path)
    data = data if isinstance(data, dict) else {"points": data}
    try:
        pts = np.asarray(data["points"], dtype=float).reshape(-1, 2)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed points: {exc}") from exc
    if not np.all(np.isfinite(pts)) or type(data.get("N", 0)) is not int:
        raise ParseError(f"{path}: points must be finite [x, y] pairs and N an integer")
    return pts, data.get("N")
