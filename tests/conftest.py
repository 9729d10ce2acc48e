import numpy as np
import pytest

from rotap import ApCoefficients, RotInvariantGrid, SlicePoint, build_polar_grid


def random_slice_grid(rng, N, count, kind="spatial", r_lo=0.2, r_hi=3.0):
    """A random rotation-invariant grid with `count` well-separated slice points."""
    width = 2 * np.pi / N
    pts = []
    while len(pts) < count:
        cand = SlicePoint(float(rng.uniform(r_lo, r_hi)), float(rng.uniform(0, width * 0.999)))
        if all(
            np.hypot(cand.xy()[0] - p.xy()[0], cand.xy()[1] - p.xy()[1]) > 1e-3 for p in pts
        ):
            pts.append(cand)
    return RotInvariantGrid(N, tuple(pts), kind).validate()


def square_grid_pair(N, radii):
    """E = F polar grids (spatial and frequency twins) with P = Q = len(radii)."""
    E = build_polar_grid(1, radii, N, kind="spatial")
    F = build_polar_grid(1, radii, N, kind="frequency")
    return E, F


def demo_grids():
    """The acceptance tests' image-demo grid pair: N=8, 3 rays, 6 radii, E = F."""
    radii = np.geomspace(0.3, 2.5, 6)
    return build_polar_grid(3, radii, 8, kind="spatial"), build_polar_grid(3, radii, 8, kind="frequency")


def random_coefficients(rng, F):
    N, Q = F.N, len(F.points)
    return ApCoefficients(rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q)), F)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
