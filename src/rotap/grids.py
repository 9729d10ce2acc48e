"""Rotation-invariant planar grids and their fundamental-slice representation.

A grid invariant under the N discrete rotations is stored by its slice part
only: the points with polar angle in [0, 2*pi/N).  The full point set is
recovered by applying all N rotations.  The section mapping slice points back
into the plane is the identity embedding, fixed once and for all.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidGrid, NotInvariant, ParseError, TrivialStabilizer

TWO_PI = 2.0 * math.pi

# Folding tolerance at the slice-angle boundary.
ANGLE_TOL = 1e-12
# Euclidean tolerance when matching a rotated point set against itself.
INVARIANCE_TOL = 1e-9
# Two points of the full grid closer than this are considered duplicates.
DUPLICATE_TOL = 1e-12


class SlicePoint(NamedTuple):
    """A point of the fundamental slice, in polar coordinates: the pair (radius, angle)."""

    radius: float
    angle: float

    def xy(self) -> tuple[float, float]:
        return (self.radius * math.cos(self.angle), self.radius * math.sin(self.angle))


@dataclass(frozen=True)
class RotInvariantGrid:
    """A rotation-invariant grid, represented by its slice points.

    ``kind`` is "spatial" or "frequency"; frequency grids must not contain the origin (all
    radii strictly positive).  Instances are immutable and safe to share across threads, and
    hold each point as a :class:`SlicePoint`, however given.  Construction through the module
    functions (or :meth:`validate`) enforces the invariants; the raw constructor does not,
    which the test suite uses to build deliberately broken grids.
    """

    N: int
    points: tuple[SlicePoint, ...]
    kind: str = "spatial"

    def __post_init__(self):
        object.__setattr__(self, "points", tuple([p if type(p) is SlicePoint else SlicePoint._make(p) for p in self.points]))

    def validate(self) -> "RotInvariantGrid":
        if type(self.N) is not int or not 1 <= self.N < 2**63:
            raise InvalidGrid(f"N must be a positive integer below 2**63, got {self.N!r}")
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
        head = _groups(others, DUPLICATE_TOL)
        # The first group with two members is headed by the first slice point with a later copy within DUPLICATE_TOL.
        i = head[head != np.arange(len(others))].min(initial=len(z))
        if i < len(z):
            later = np.flatnonzero(head == i)[1:]
            k = later[np.argmin(np.abs(others[later] - z[i]))]
            j = k if k < len(z) else moved[k - len(z)]
            raise InvalidGrid(f"slice point {i} duplicates a full-grid copy of slice point {j}")
        _check_addressable(self.N, len(self.points))
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


def _groups(z: np.ndarray, tol: float) -> np.ndarray:
    """The head of each complex point ``z[k]``: the earliest head within ``tol`` of it, else k itself.

    Heads are thus taken greedily in index order, distances as ``|z[k] - z[head]|``.
    The points are bucketed on a lattice of cells at least 4*tol wide, so
    points within 2*tol of each other lie in the same or adjacent cells.  Each
    round, a cell's earliest undecided point is a head when no undecided point
    of the 3x3 cells around it comes earlier; it claims the undecided points
    within ``tol``, which no earlier head can reach.  Separated clusters,
    copies included, take one round of O(M log M); a chain of points under
    ``tol`` apart, numbered along it, takes a round per cell along it.
    """
    xy = np.stack((z.real, z.imag))
    # At most 2^30 cells from the origin on each axis, so that the keys fit int64 for any finite radius.
    side = max(4 * tol, np.abs(xy).max(initial=0.0) * 2.0**-30)
    column, row = np.floor(xy / side).astype(np.int64)
    key = column * 2**32 + row
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.arange(len(z))
    # Sorted keys 0 or 1 apart are one cell or column neighbours; next-column neighbours are 2^32 +- 1 ahead.
    if np.all(np.diff(key) > 1) and not np.any(
        np.abs(key.take(np.searchsorted(key, key + 2**32 - 1), mode="clip") - key - 2**32) <= 1
    ):
        return head  # no cell holds two points or borders another
    starts = np.concatenate(([True], key[1:] != key[:-1]))
    cell, cells = np.cumsum(starts) - 1, key[starts]
    # The 3x3 cells around each cell as indices into ``cells``, absent ones as len(cells).
    wanted = cells + (np.arange(-1, 2)[:, None] * 2**32 + np.arange(-1, 2)).reshape(-1, 1)
    around = np.searchsorted(cells, wanted)
    around[cells.take(around, mode="clip") != wanted] = len(cells)
    live = head.copy()  # undecided points, as positions in ``order``
    while live.size:
        first = np.full(len(cells) + 1, len(z))  # each cell's earliest undecided point, then its head if any
        lead = live[np.concatenate(([True], cell[live[1:]] != cell[live[:-1]]))]
        first[cell[lead]] = order[lead]
        first[:-1][first[around].min(axis=0) < first[:-1]] = len(z)
        heads = first[around[:, cell[live]]]
        k, j = np.nonzero(heads < len(z))
        h, q = heads[k, j], order[live[j]]
        near = np.abs(z[q] - z[h]) <= tol
        head[q[near]] = h[near]
        live = np.delete(live, j[near])
    return head


def _check_addressable(N: int, P: int) -> None:
    """DomainError when the N x P (x, y) float pairs of ``full_xy`` would have more bytes than ``sys.maxsize``."""
    if N * P * 16 > sys.maxsize:
        raise DomainError(f"N = {N} x {P} slice points: the full point set cannot be addressed")


def _fold(xy, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation indices, radii and slice angles of the planar points ``xy``.

    Point m is ``R_{2*pi*idx[m]/N}`` applied to the slice point
    ``(radius[m], angle[m])``; the origin folds to index 0, angle 0.
    """
    if not 1 <= N < 2**63:  # rotation indices are int64
        raise InvalidGrid(f"N must be >= 1 and below 2**63, got {N}")
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

    The full point set is { rho_j * e^{i 2*pi*k / (N*num_rays_per_slice)} }; one with
    more bytes than the platform can address raises DomainError before any point is built.
    """
    if num_rays_per_slice < 1:
        raise InvalidGrid("num_rays_per_slice must be >= 1")
    if not 1 <= N < 2**63:
        raise InvalidGrid(f"N must be >= 1 and below 2**63, got {N}")
    radii = [float(r) for r in radii]
    if not radii:
        raise InvalidGrid("at least one radius required")
    for r in radii:
        if r <= 0:
            raise InvalidGrid(f"nonpositive radius {r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidGrid("radii must be strictly increasing")
    _check_addressable(N, num_rays_per_slice * len(radii))
    width = TWO_PI / N
    pts = [
        SlicePoint(rho, t * width / num_rays_per_slice)
        for rho in radii
        for t in range(num_rays_per_slice)
    ]
    return RotInvariantGrid(N, tuple(pts), kind).validate()


def canonicalize(points, N: int, kind: str = "spatial") -> RotInvariantGrid:
    """Fold a full rotation-invariant point set into its slice representation.

    Once folded, each point joins the orbit of the earliest orbit head
    within ``INVARIANCE_TOL`` of it, in index order, or heads one.  The set
    is invariant under rotation by 2*pi/N exactly when every orbit has N
    members at the N distinct rotation indices, else :class:`NotInvariant`
    has the first failing orbit's head as witness.  Each orbit's member at
    rotation index 0 stands for it, in order; the origin passes through.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    idx, radius, angle = _fold(pts, N)
    origin = radius <= DUPLICATE_TOL
    if kind == "frequency" and origin.any():
        raise TrivialStabilizer("frequency grids cannot contain the origin")

    # The orbits are the groups of the folded points; each origin point is an orbit of its own.
    n = len(pts)
    free = np.flatnonzero(~origin)
    head = np.arange(n)
    head[free] = free[_groups((radius * np.cos(angle) + 1j * (radius * np.sin(angle)))[free], INVARIANCE_TOL)]
    # An orbit fails when its size is not N or two members share a rotation index; the first to fail is reported.
    size = np.bincount(head, minlength=n)
    failed = (size != N) & (head == np.arange(n)) & ~origin
    if N <= n:  # else every orbit is short, and head * N might overflow
        key = np.sort(head[free] * N + idx[free])
        failed[key[1:][key[1:] == key[:-1]] // N] = True
    if failed.any():
        first = int(np.argmax(failed))
        witness = tuple(pts[first].tolist())
        raise NotInvariant(witness, f"orbit of {witness} has {size[first]} of {N} points")
    rep = head.copy()  # each orbit's member at rotation index 0, and each origin point
    rep[head[free[idx[free] == 0]]] = free[idx[free] == 0]
    radius, angle = (np.where(origin, 0.0, a)[rep[head == np.arange(n)]].tolist() for a in (radius, angle))
    return RotInvariantGrid(N, tuple(map(SlicePoint, radius, angle)), kind).validate()


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
