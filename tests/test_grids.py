import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotap import (
    InvalidGrid,
    NotInvariant,
    ParseError,
    RotInvariantGrid,
    SlicePoint,
    TrivialStabilizer,
    build_polar_grid,
    canonicalize,
    load_grid,
    save_grid,
    slice_of,
)

from rotap.grids import DUPLICATE_TOL

from conftest import random_slice_grid

TWO_PI = 2 * math.pi


def _rounded(pair):
    # Sort key immune to last-ulp differences that would reorder the tuples.
    return (round(pair[0], 9), round(pair[1], 9))


class TestSliceOf:
    def test_quarter_turn(self):
        idx, sp = slice_of((0.0, 1.0), 4)
        assert idx == 1
        assert sp.radius == pytest.approx(1.0)
        assert sp.angle == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_n8(self):
        idx, sp = slice_of((1.0, 1.0), 8)
        assert idx == 1
        assert sp.radius == pytest.approx(math.sqrt(2))
        assert sp.angle == pytest.approx(0.0, abs=1e-12)

    def test_interior_angle(self):
        idx, sp = slice_of((math.cos(0.3), math.sin(0.3)), 10)
        assert idx == 0
        assert sp.radius == pytest.approx(1.0)
        assert sp.angle == pytest.approx(0.3)

    def test_origin_convention(self):
        assert slice_of((0.0, 0.0), 6) == (0, SlicePoint(0.0, 0.0))

    @given(
        n=st.integers(0, 19),
        radius=st.floats(1e-3, 1e3),
        angle=st.floats(0, 1).map(lambda t: t * (TWO_PI / 20) * 0.999),
        N=st.just(20),
    )
    @settings(max_examples=200)
    def test_fold_roundtrip(self, n, radius, angle, N):
        # slice_of inverts the rotation applied to a slice point.
        theta = angle + TWO_PI * n / N
        p = (radius * math.cos(theta), radius * math.sin(theta))
        idx, sp = slice_of(p, N)
        assert idx == n
        assert sp.radius == pytest.approx(radius, rel=1e-12)
        assert abs(sp.angle - angle) < 1e-10


class TestBuildPolarGrid:
    def test_single_orbit_square(self):
        g = build_polar_grid(1, [1.0], 4)
        assert len(g.points) == 1
        assert g.points[0] == SlicePoint(1.0, 0.0)
        full = g.full_xy().reshape(-1, 2)
        expected = {(1, 0), (0, 1), (-1, 0), (0, -1)}
        got = {(round(x, 9), round(y, 9)) for x, y in full}
        assert got == expected

    def test_point_count(self):
        g = build_polar_grid(3, [0.5, 1.0, 1.5, 2.0], 6)
        assert len(g.points) == 12

    def test_two_rays_two_radii(self):
        g = build_polar_grid(2, [1.0, 2.0], 8)
        assert len(g.points) == 4
        angles = sorted({p.angle for p in g.points})
        assert angles == pytest.approx([0.0, math.pi / 8])

    def test_rejects_bad_radii(self):
        with pytest.raises(InvalidGrid):
            build_polar_grid(1, [1.0, 1.0], 4)
        with pytest.raises(InvalidGrid):
            build_polar_grid(1, [-1.0], 4)
        with pytest.raises(InvalidGrid):
            build_polar_grid(1, [2.0, 1.0], 4)


class TestCanonicalize:
    def test_one_orbit(self):
        g = canonicalize([(1, 0), (0, 1), (-1, 0), (0, -1)], 4)
        assert len(g.points) == 1
        assert g.points[0].radius == pytest.approx(1.0)
        assert g.points[0].angle == pytest.approx(0.0, abs=1e-12)

    def test_incomplete_orbit(self):
        with pytest.raises(NotInvariant) as exc:
            canonicalize([(1, 0), (0, 1)], 4)
        assert exc.value.witness is not None

    def test_repeated_point_is_not_an_orbit(self):
        # N points, but two at rotation index 0 and none at index 1.
        with pytest.raises(NotInvariant) as exc:
            canonicalize([(1, 0), (1, 0), (-1, 0), (0, -1)], 4)
        assert exc.value.witness == (1.0, 0.0)

    def test_roundtrip_with_builder(self, rng):
        g = build_polar_grid(2, [1.0, 2.0], 8)
        full = g.full_xy().reshape(-1, 2)
        rng.shuffle(full)
        g2 = canonicalize(full, 8)
        np.testing.assert_allclose(
            sorted(((p.radius, p.angle) for p in g2.points), key=_rounded),
            sorted(((p.radius, p.angle) for p in g.points), key=_rounded),
            atol=1e-12,
        )

    def test_origin_in_frequency_grid(self):
        with pytest.raises(TrivialStabilizer):
            canonicalize([(0.0, 0.0)], 4, kind="frequency")

    def test_origin_once_in_spatial_grid(self):
        g = canonicalize([(0.0, 0.0), (1, 0), (0, 1), (-1, 0), (0, -1)], 4)
        assert len(g.points) == 2

    @pytest.mark.parametrize(
        "point", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)], ids=["nan", "inf", "minus-inf"]
    )
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(InvalidGrid):
            canonicalize([point], 4)
        with pytest.raises(InvalidGrid):
            slice_of(point, 4)

    @given(
        N=st.integers(1, 12),
        count=st.integers(1, 6),
        kind=st.sampled_from(["spatial", "frequency"]),
        with_origin=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled_full_set(self, N, count, kind, with_origin, seed):
        # The slice points come back in order of first appearance; a point
        # missing from one orbit is reported by a witness from that orbit.
        rng = np.random.default_rng(seed)
        g = random_slice_grid(rng, N, count, kind)
        if with_origin and kind == "spatial":
            g = RotInvariantGrid(N, g.points + (SlicePoint(0.0, 0.0),), kind).validate()
        keep = np.ones((N, len(g.points)), dtype=bool)
        keep[1:, [p.radius == 0 for p in g.points]] = False  # the origin once, not N times
        order = rng.permutation(int(keep.sum()))
        pts = g.full_xy()[keep][order]
        labels = np.broadcast_to(np.arange(len(g.points)), keep.shape)[keep][order]

        got = canonicalize(pts, N, kind)
        expected = [g.points[k] for k in dict.fromkeys(labels.tolist())]
        np.testing.assert_allclose(
            [(p.radius, p.angle) for p in got.points],
            [(p.radius, p.angle) for p in expected],
            rtol=0,
            atol=1e-12,
        )

        if N > 1:
            cut = rng.choice(np.flatnonzero([g.points[k].radius > 0 for k in labels]))
            rest, rest_labels = np.delete(pts, cut, axis=0), np.delete(labels, cut)
            with pytest.raises(NotInvariant) as exc:
                canonicalize(rest, N, kind)
            assert exc.value.witness in {tuple(p) for p in rest[rest_labels == labels[cut]].tolist()}

    @given(n_jitter=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_full_expansion_identity(self, n_jitter):
        g = build_polar_grid(1 + n_jitter, [0.5, 1.3], 5)
        g2 = canonicalize(g.full_xy().reshape(-1, 2), 5)
        np.testing.assert_allclose(
            sorted(((p.radius, p.angle) for p in g2.points), key=_rounded),
            sorted(((p.radius, p.angle) for p in g.points), key=_rounded),
            atol=1e-12,
        )


def _reference_duplicate(grid):
    """The first duplicate pair of ``grid`` as validate names it, by a scan of every slice point, or None.

    Slice point i is compared with every later slice point and with every
    slice point turned by 2*pi/N (the origin and N = 1 excepted); the first i
    with a copy within DUPLICATE_TOL is reported with its nearest such copy.
    """
    z = grid.slice_xy() @ np.array([1, 1j])
    moved = np.flatnonzero((z != 0) & (grid.N > 1))
    others = np.concatenate((z, z[moved] * np.exp(1j * TWO_PI / grid.N)))
    index = np.concatenate((np.arange(len(z)), moved))
    for i in range(len(z)):
        d = np.abs(others[i + 1 :] - z[i])
        if d.size and d.min() <= DUPLICATE_TOL:
            return f"slice point {i} duplicates a full-grid copy of slice point {index[i + 1 + np.argmin(d)]}"
    return None


def _assert_duplicate(grid, i, j):
    message = f"slice point {i} duplicates a full-grid copy of slice point {j}"
    with pytest.raises(InvalidGrid) as exc:
        grid.validate()
    assert str(exc.value) == message


class TestValidation:
    def test_duplicate_points_rejected(self):
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0, 0.1))
        _assert_duplicate(RotInvariantGrid(4, pts), 0, 1)

    @pytest.mark.parametrize(
        "points, i, j",
        [
            ((SlicePoint(1.0, 0.0), SlicePoint(1.0, TWO_PI / 4 - 1e-14)), 1, 0),
            ((SlicePoint(1e-14, 0.3),), 0, 0),
        ],
        ids=["copies-1e-14-apart", "radius-1e-14"],
    )
    def test_full_grid_duplicates_rejected(self, points, i, j):
        # Distinct in the slice, but two points of the full grid lie within 1.4e-14.
        _assert_duplicate(RotInvariantGrid(4, points), i, j)

    def test_duplicates_at_n1(self):
        # At N = 1 a point's turned copy is itself, so only equal slice points collide.
        assert RotInvariantGrid(1, (SlicePoint(1.0, 0.1),)).validate()
        pts = (SlicePoint(1.0, 0.1), SlicePoint(2.0, 3.0), SlicePoint(1.0, 0.1))
        _assert_duplicate(RotInvariantGrid(1, pts), 0, 2)

    def test_duplicates_beside_the_origin(self):
        # The origin is its own copy under every turn; a point 1e-13 from it is a duplicate.
        _assert_duplicate(RotInvariantGrid(4, (SlicePoint(0.0, 0.0), SlicePoint(1e-13, 0.2))), 0, 1)
        pts = (SlicePoint(1.0, 0.1), SlicePoint(0.0, 0.0), SlicePoint(2.0, 0.3), SlicePoint(1.0, 0.1))
        _assert_duplicate(RotInvariantGrid(4, pts), 0, 3)

    @pytest.mark.parametrize("N", [16, 4], ids=["random-N16", "one-ray-N4"])
    def test_duplicate_at_the_end_of_a_large_grid(self, N):
        # At N = 4 the slice lies on the x axis and its quarter-turned copy on the y axis.
        rng = np.random.default_rng(7)
        angles = rng.uniform(0, TWO_PI / N, 1999) if N == 16 else np.zeros(1999)
        pts = [SlicePoint(r, a) for r, a in zip(rng.uniform(0.5, 3, 1999), angles)]
        pts.append(pts[1234])
        _assert_duplicate(RotInvariantGrid(N, tuple(pts)), 1234, 1999)

    def test_near_miss_passes(self):
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0 + 2e-12, 0.1))
        assert RotInvariantGrid(4, pts).validate()

    def test_random_duplicates_match_reference_scan(self):
        # A copy of a random slice point, moved by up to 1e-12 in x and in y, is
        # injected at a random place; half the time it sits across the slice
        # edge from its original, as a turned copy of a point near angle 0.
        # Some of the moved copies land beyond DUPLICATE_TOL and must pass.
        rng = np.random.default_rng(2024)
        raised = 0
        for _ in range(200):
            N = int(rng.integers(1, 13))
            width = TWO_PI / N
            pts = list(random_slice_grid(rng, N, int(rng.integers(1, 30))).points)
            k = int(rng.integers(len(pts)))
            shift = rng.uniform(-1, 1, 2) * 1e-12
            if N > 1 and rng.random() < 0.5:
                pts[k] = SlicePoint(pts[k].radius, float(rng.uniform(0, 1e-13)))
                turned = pts[k].angle + width
                x, y = pts[k].radius * math.cos(turned) + shift[0], pts[k].radius * math.sin(turned) + shift[1]
            else:
                x, y = np.add(pts[k].xy(), shift)
            angle = math.atan2(y, x) % TWO_PI
            pts.insert(int(rng.integers(len(pts) + 1)), SlicePoint(math.hypot(x, y), angle if angle < width else 0.0))
            grid = RotInvariantGrid(N, tuple(pts))
            expected = _reference_duplicate(grid)
            if expected is None:
                assert grid.validate() is grid
            else:
                raised += 1
                with pytest.raises(InvalidGrid) as exc:
                    grid.validate()
                assert str(exc.value) == expected
        assert 100 <= raised < 200

    def test_angle_out_of_slice(self):
        with pytest.raises(InvalidGrid):
            RotInvariantGrid(4, (SlicePoint(1.0, TWO_PI / 4),)).validate()

    def test_frequency_origin_rejected(self):
        with pytest.raises(TrivialStabilizer):
            RotInvariantGrid(4, (SlicePoint(0.0, 0.0),), "frequency").validate()


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = build_polar_grid(2, [0.5, 1.2345678901234567], 6)
        path = tmp_path / "g.json"
        save_grid(g, path)
        g2 = load_grid(path)
        assert g2 == g

    def test_boundary_angle_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"N": 4, "kind": "spatial", "points": [{"radius": 1.0, "angle": TWO_PI / 4}]}
            )
        )
        with pytest.raises(InvalidGrid):
            load_grid(path)

    def test_zero_N_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": 0, "kind": "spatial", "points": []}))
        with pytest.raises(InvalidGrid):
            load_grid(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_grid(path)
