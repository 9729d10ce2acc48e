import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotap import (
    ApCoefficients,
    DomainError,
    GridMismatch,
    assemble_blocks,
    build_polar_grid,
    canonicalize,
    classical_bessel,
    evaluate_at_point,
    evaluate_naive,
    generalized_bessel,
    kernel_limit_error,
    translate_coefficients,
)
from rotap import bessel
from rotap.grids import RotInvariantGrid, SlicePoint
from rotap.harness import square_bench_grids

from conftest import demo_grids, square_grid_pair


def direct_sum(n_hat, product, delta, N):
    """Independent scalar-by-scalar oracle for the kernel sum."""
    total = 0j
    for r in range(N):
        total += cmath.exp(1j * product * math.cos(delta + 2 * math.pi * r / N)) * cmath.exp(
            -2j * math.pi * n_hat * r / N
        )
    return total


class TestGeneralizedBessel:
    def test_zero_radius_dc(self):
        assert generalized_bessel(0, (1.0, 0.2), (0.0, 0.1), 6) == pytest.approx(6.0)

    def test_zero_radius_character_orthogonality(self):
        assert abs(generalized_bessel(2, (1.0, 0.2), (0.0, 0.1), 6)) < 1e-13

    def test_hand_value_n4(self):
        # Four-term sum at n_hat=1, product 1, delta 0 collapses to 2i*sin(1).
        val = generalized_bessel(1, (1.0, 0.0), (1.0, 0.0), 4)
        assert val == pytest.approx(2j * math.sin(1.0), abs=1e-15)

    @pytest.mark.parametrize("N", [1, 5, 8])
    def test_slice_point_reads_as_its_pair(self, N):
        lam, y = SlicePoint(1.7, 0.2), SlicePoint(0.8, 0.3)
        for n_hat in range(N):
            a = generalized_bessel(n_hat, lam, y, N)
            b = generalized_bessel(n_hat, (1.7, 0.2), (0.8, 0.3), N)
            assert np.array(a).tobytes() == np.array(b).tobytes()

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            generalized_bessel(4, (1.0, 0.0), (1.0, 0.0), 4)
        with pytest.raises(DomainError):
            generalized_bessel(0, (1.0, 0.0), (1.0, 0.0), 0)

    @given(
        n_hat=st.integers(0, 7),
        xi=st.floats(0.0, 5.0),
        omega=st.floats(0.0, 0.78),
        rho=st.floats(0.0, 5.0),
        alpha=st.floats(0.0, 0.78),
    )
    @settings(max_examples=150)
    def test_matches_direct_sum(self, n_hat, xi, omega, rho, alpha):
        got = generalized_bessel(n_hat, (xi, omega), (rho, alpha), 8)
        want = direct_sum(n_hat, xi * rho, alpha - omega, 8)
        assert got == pytest.approx(want, abs=1e-12)

    @given(
        n_hat=st.integers(0, 5),
        xi=st.floats(0.1, 3.0),
        omega=st.floats(0.0, 1.0),
        rho=st.floats(0.1, 3.0),
        alpha=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100)
    def test_product_difference_symmetry(self, n_hat, xi, omega, rho, alpha):
        a = generalized_bessel(n_hat, (xi, omega), (rho, alpha), 6)
        b = generalized_bessel(n_hat, (xi * rho, 0.0), (1.0, alpha - omega), 6)
        assert a == pytest.approx(b, abs=1e-12)

    @given(n_hat=st.integers(0, 5), r=st.integers(0, 5), product=st.floats(0.1, 4.0))
    @settings(max_examples=100)
    def test_section_covariance(self, n_hat, r, product):
        # Rotating y by one slice step multiplies the kernel by the character.
        N = 6
        base = generalized_bessel(n_hat, (product, 0.0), (1.0, 0.3), N)
        shifted = generalized_bessel(n_hat, (product, 0.0), (1.0, 0.3 + 2 * math.pi * r / N), N)
        assert shifted == pytest.approx(base * cmath.exp(2j * math.pi * n_hat * r / N), abs=1e-11)

    @given(n_hat=st.integers(0, 5), product=st.floats(0.1, 4.0), delta=st.floats(-1.0, 1.0))
    @settings(max_examples=100)
    def test_conjugation_symmetry(self, n_hat, product, delta):
        N = 6
        a = generalized_bessel(n_hat, (-product, 0.0), (1.0, delta), N)
        b = direct_sum((N - n_hat) % N, product, delta, N)
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


class TestSincos:
    """The half-angle cos and sin of the kernel's phases, computed in place."""

    def sincos(self, phase):
        sin = np.array(phase, dtype=float)
        cos = np.empty_like(sin)
        bessel._sincos(sin, cos)
        return cos, sin

    def test_zero_phase_is_exact(self):
        cos, sin = self.sincos(np.zeros(5))
        assert np.all(cos == 1.0) and np.all(sin == 0.0)

    def test_matches_long_double_reference(self):
        # Phases over the bench range at Q = 128, plus the doubles nearest
        # k*pi/2, where tan(phase/2) is near 0, +-1 or very large.
        rng = np.random.default_rng(0)
        phase = np.concatenate((rng.uniform(0.0, 4.3e3, 100_000), math.pi / 2 * np.arange(2738)))
        cos, sin = self.sincos(phase)
        exact = phase.astype(np.longdouble)
        eps = np.finfo(float).eps
        assert np.abs(cos - np.cos(exact)).max() <= 4 * eps
        assert np.abs(sin - np.sin(exact)).max() <= 4 * eps

    @pytest.mark.parametrize("axis", [False, True], ids=["complex", "axis"])
    def test_huge_products_stay_finite(self, axis):
        # A RuntimeWarning (overflow, or an invalid value from inf/inf) is an
        # error under the test configuration.
        products = np.geomspace(1.0, 1e300, 64).reshape(8, 8)
        deltas = None if axis else np.linspace(-0.5, 0.5, 64).reshape(8, 8)
        assert np.all(np.isfinite(bessel._kernel_bins(products, deltas, 8)))
        cos, sin = self.sincos(np.concatenate((products.ravel(), -products.ravel())))
        assert np.all(np.isfinite(cos) & np.isfinite(sin))
        assert np.abs(cos**2 + sin**2 - 1).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 12, 31, 61, 64, 255, 256, 1023, 4095])
def test_kernel_bins_match_fft_reference(N):
    # N runs across _has_mirror's M > 2 threshold; products reach bench scale.
    # At N = 256 the DFT tables are split into bands of rows; odd N (31 and
    # 61 prime) takes numpy's FFT.
    # The reference takes every rotation's exponential and a length-N FFT.
    # Both sides round phases of size up to 1.1e3, each to a few ulps, so the
    # bins agree to a few eps times the largest product, not to eps.
    rng = np.random.default_rng(N)
    products = rng.uniform(0.0, 1.1e3, (4, 8))
    deltas = rng.uniform(-2 * math.pi / N, 2 * math.pi / N, (4, 8))
    rotations = (2 * math.pi * np.arange(N) / N).reshape(N, 1, 1)
    want = np.fft.fft(np.exp(1j * products * np.cos(deltas + rotations)), axis=0)
    got = bessel._kernel_bins(products, deltas, N)
    assert got.shape == (N, 4, 8)
    bound = 4 * np.finfo(float).eps * products.max()
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("N", [2, 4, 6, 8, 12, 64, 256, 512])
def test_axis_kernel_bins_match_fft_reference(N):
    # deltas=None is the axis case, every angle difference 0: the real
    # half-stack S with J_n = i^m S_m, m = min(n, N - n), against the FFT of
    # the full slice kernel at delta = 0, to the bound of the test above.
    # At N = 512 the DFT tables are split into bands of rows.
    rng = np.random.default_rng(N)
    products = rng.uniform(0.0, 1.1e3, (4, 8))
    rotations = (2 * math.pi * np.arange(N) / N).reshape(N, 1, 1)
    want = np.fft.fft(np.exp(1j * products * np.cos(rotations)), axis=0)
    half = bessel._kernel_bins(products, None, N)
    assert half.dtype == float and half.shape == (N // 2 + 1, 4, 8)
    got = np.array([1j ** min(n, N - n) * half[min(n, N - n)] for n in range(N)])
    bound = 4 * np.finfo(float).eps * products.max()
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


class TestAssembleBlocks:
    def test_degenerate_n1(self):
        E = RotInvariantGrid(1, (SlicePoint(1.0, 0.0),), "spatial").validate()
        F = RotInvariantGrid(1, (SlicePoint(1.0, 0.0),), "frequency").validate()
        blocks = assemble_blocks(E, F)
        assert blocks.N == 1
        assert blocks.blocks[0].shape == (1, 1)
        assert blocks.blocks[0][0, 0] == pytest.approx(cmath.exp(1j))

    def test_hand_summed_n4(self):
        E = build_polar_grid(1, [1.0], 4, kind="spatial")
        F = build_polar_grid(1, [1.0], 4, kind="frequency")
        blocks = assemble_blocks(E, F)
        assert len(blocks.blocks) == 4
        assert blocks.blocks[0][0, 0] == pytest.approx(2 + 2 * math.cos(1.0))

    def test_entries_match_scalar_kernel(self):
        # Agreement is to the last couple of ulps: the bins come from a BLAS
        # product whose summation order depends on the number of entries (a
        # matrix-vector product for one entry, a blocked GEMM for a chunk), so
        # bit-for-bit equality across shapes is not a meaningful contract.
        E = build_polar_grid(2, [0.5, 1.5], 5, kind="spatial")
        F = build_polar_grid(1, [0.8, 1.1, 2.0], 5, kind="frequency")
        blocks = assemble_blocks(E, F)
        for n_hat in range(5):
            for j, y in enumerate(E.points):
                for k, lam in enumerate(F.points):
                    got = blocks.blocks[n_hat][j, k]
                    want = generalized_bessel(n_hat, lam, y, 5)
                    assert abs(got - want) < 1e-14

    @pytest.mark.parametrize(
        "N, P, Q, spatial_radii, frequency_radii, rays",
        [
            (7, 10, 1200, (0.5, 4.0), (0.1, 9.0), 2),
            (64, 10, 128, (0.5, 4.0), (0.1, 9.0), 2),
            (64, 10, 128, (1.0, 33.0), (1.0, 33.0), 2),
            (64, 10, 128, (1.0, 33.0), (1.0, 33.0), 1),
        ],
        ids=["7-10-1200", "64-10-128", "64-10-128-bench-radii", "64-10-128-axis-bench-radii"],
    )
    def test_entries_match_direct_sum(self, N, P, Q, spatial_radii, frequency_radii, rays):
        # P spans at least two chunks of rows and is not a multiple of the rows
        # per chunk, so the last chunk is partial.
        # The bench radii linspace(1, 33) take products xi*rho up to about 1e3.
        # One ray on each grid makes an axis pair, assembled as a real half-stack.
        rows = max(1, bessel._CHUNK_ENTRIES // (N * Q))
        assert rows < P and P % rows != 0
        E = build_polar_grid(rays, np.linspace(*spatial_radii, P // rays), N, kind="spatial")
        F = build_polar_grid(1, np.linspace(*frequency_radii, Q), N, kind="frequency")
        assembled = assemble_blocks(E, F)
        assert np.isrealobj(assembled.stack) == (rays == 1)
        blocks = assembled.blocks
        assert blocks.shape == (N, P, Q)
        scale = np.abs(blocks).max()
        for k in list(range(0, Q, Q // 8)) + [Q - 1]:
            lam = F.points[k]
            for j, y in enumerate(E.points):
                product, delta = lam.radius * y.radius, y.angle - lam.angle
                for n_hat in range(N):
                    want = direct_sum(n_hat, product, delta, N)
                    assert abs(blocks[n_hat, j, k] - want) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "grids",
        [
            lambda: square_bench_grids(64, 32),
            demo_grids,
            lambda: square_grid_pair(6, np.linspace(1, 4, 5)),
            lambda: square_grid_pair(12, np.linspace(1, 4, 5)),
        ],
        ids=["bench-64-32", "demo", "N6", "N12"],
    )
    def test_blocks_are_mirrored_bitwise(self, grids):
        # For even N the rotation by pi gives J_{N-n} = (-1)^n conj(J_n),
        # exactly, bins 0 and N/2 included (the DFT matrix's sin(pi) != 0
        # leaves bin N/2 off by round-off).
        blocks = assemble_blocks(*grids()).blocks
        for n in range(len(blocks)):
            assert np.array_equal(blocks[-n], (-1) ** n * blocks[n].conj())

    def test_allocates_little_beyond_output(self):
        E, F = square_bench_grids(64, 128)
        tracemalloc.start()
        try:
            blocks = assemble_blocks(E, F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The bench grids are an axis pair: the stored stack is the real
        # (N/2+1, P, Q) half-stack, and ``blocks.blocks`` is built on access.
        assert peak <= 1.1 * blocks.stack.nbytes

    def test_large_odd_n_builds_no_table(self):
        # Odd N takes an FFT over the rotations: a first assembly at N = 4095
        # allocates a few MB, where an N x N DFT table would take over 100 MB.
        bessel._dft_blocks.cache_clear()
        E, F = square_bench_grids(4095, 4)
        tracemalloc.start()
        try:
            assemble_blocks(E, F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("rays, N", [(1, 7), (2, 5), (2, 2)])
    def test_fft_path_uses_no_dft_table(self, rays, N):
        # Odd N, and N = 2 off the axis, neither build nor look up a table.
        E = build_polar_grid(rays, [1.0, 2.0, 3.0], N, kind="spatial")
        F = build_polar_grid(rays, [0.5, 1.5], N, kind="frequency")
        before = bessel._dft_blocks.cache_info()
        assemble_blocks(E, F)
        after = bessel._dft_blocks.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 12, 64])
    def test_axis_pair_stores_real_half_stack(self, N):
        # blocks[n] = i^m * stack[m], m = min(n, N - n), built on access as a
        # complex, C-contiguous, bitwise mirrored (N, P, Q) array.
        E, F = square_bench_grids(N, 12)
        assembled = assemble_blocks(E, F)
        assert np.isrealobj(assembled.stack)
        stack, blocks = assembled.stack, assembled.blocks
        assert stack.dtype == float and stack.shape == (N // 2 + 1, 12, 12)
        assert blocks.dtype == complex and blocks.shape == (N, 12, 12) and blocks.flags.c_contiguous
        for n in range(N):
            m = min(n, N - n)
            assert np.array_equal(blocks[n], 1j**m * stack[m])
            assert np.array_equal(blocks[-n], (-1) ** n * blocks[n].conj())

    def test_axis_pair_predicate(self):
        # Assembly stores the real half-stack for N even and every slice angle
        # 0 (-0.0 included); a canonicalized polar point set qualifies, a
        # second ray, odd N or a turned slice point does not.
        def stored_real(E, F):
            return np.isrealobj(assemble_blocks(E, F).stack)

        radii = np.linspace(1, 4, 5)
        E, F = square_grid_pair(8, radii)
        assert stored_real(E, F)
        points = E.full_xy().reshape(-1, 2)[::-1]
        assert stored_real(canonicalize(points, 8), F)
        assert not stored_real(*demo_grids())
        assert not stored_real(*square_grid_pair(7, radii))
        turned = RotInvariantGrid(8, (SlicePoint(1.0, 0.1),), "spatial").validate()
        assert not stored_real(turned, F)
        negative_zero = RotInvariantGrid(8, (SlicePoint(1.0, -0.0),), "spatial").validate()
        assert stored_real(negative_zero, F)

    def test_mismatched_N(self):
        from rotap import GridMismatch

        E = build_polar_grid(1, [1.0], 4)
        F = build_polar_grid(1, [1.0], 8, kind="frequency")
        with pytest.raises(GridMismatch):
            assemble_blocks(E, F)

    def test_overflowing_products_raise(self):
        # Products xi*rho beyond the largest double made every entry NaN,
        # with only RuntimeWarnings; the check itself must not warn.  The
        # dense oracle and the translation take their phases <x, lambda>
        # from the same products, of a grid's radius or of |x|.
        E, F = square_grid_pair(4, [1e308, 1.5e308])
        small = ApCoefficients(np.ones((4, 2)), build_polar_grid(1, [1.0, 2.0], 4, kind="frequency"))
        refused = [
            lambda: assemble_blocks(E, F),
            lambda: generalized_bessel(1, (1.5e308, 0.0), (1e308, 0.3), 4),
            lambda: evaluate_naive(ApCoefficients(np.ones((4, 2)), F), E),
            lambda: evaluate_naive(small, E),
            lambda: evaluate_at_point(small, (1e308, 1e308)),
            lambda: translate_coefficients(small, (1e308, 1e308)),
        ]
        for call in refused:
            with pytest.raises(DomainError, match="not finite"):
                call()

    @pytest.mark.parametrize("rays", [1, 2])
    def test_large_finite_products_assemble(self, rays):
        # Radii of 1e150 give products near 1e300, which stay finite; one ray
        # is an axis pair, two rays take the complex path.
        radii = [1e150, 1.5e150]
        E = build_polar_grid(rays, radii, 4, kind="spatial")
        F = build_polar_grid(rays, radii, 4, kind="frequency")
        assert np.all(np.isfinite(assemble_blocks(E, F).stack))
        assert np.isfinite(generalized_bessel(1, (1.5e150, 0.0), (1e150, 0.3), 4))


class TestHandBuiltStacks:
    """A stack built by hand is a complex (N, P, Q) stack or a real (N/2+1, P, Q) half-stack with N even."""

    @pytest.mark.parametrize(
        "N, shape, dtype",
        [(4, (4, 3, 3), float), (4, (2, 3, 3), complex), (5, (3, 3, 3), float), (4, (4, 3, 2), complex)],
        ids=["real-full", "short-complex", "real-odd-N", "wrong-Q"],
    )
    def test_wrong_form_raises_grid_mismatch(self, N, shape, dtype):
        # Read by dtype alone, these would fail later inside numpy with a
        # broadcasting ValueError.
        E, F = square_grid_pair(N, [1.0, 2.0, 3.0])
        with pytest.raises(GridMismatch, match="stack of shape"):
            bessel.FourierBesselBlocks(N, np.ones(shape, dtype=dtype), E, F)

    def test_N_other_than_the_grids_raises_grid_mismatch(self):
        # A stack of the right form for N=4 on grids of N=8 would fail inside numpy.
        E, F = square_grid_pair(8, [1.0, 2.0, 3.0])
        with pytest.raises(GridMismatch, match="N=4"):
            bessel.FourierBesselBlocks(4, np.ones((4, 3, 3), dtype=complex), E, F)

    @pytest.mark.parametrize("N", [4, 5])
    def test_both_forms_accepted(self, N):
        E, F = square_grid_pair(N, [1.0, 2.0, 3.0])
        full = assemble_blocks(E, F).blocks
        assert np.array_equal(bessel.FourierBesselBlocks(N, full, E, F).blocks, full)
        if N % 2 == 0:
            half = bessel.FourierBesselBlocks(N, assemble_blocks(E, F).stack, E, F)
            assert half.stack.dtype == float and np.array_equal(half.blocks, full)


def test_dft_table_cache_is_bounded():
    # A process that assembles over many even N must not keep every table.
    # An evicted N is rebuilt the same.
    maxsize = bessel._dft_blocks.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    E, F = square_bench_grids(6, 4)
    first = assemble_blocks(E, F).stack.copy()
    for N in range(8, 48):
        assemble_blocks(*square_bench_grids(N, 4))
        assert bessel._dft_blocks.cache_info().currsize <= maxsize
    assert np.array_equal(assemble_blocks(E, F).stack, first)


class TestClassicalBessel:
    def test_j0_at_zero(self):
        assert classical_bessel(0, 0.0) == pytest.approx(1.0)

    def test_jn_at_zero(self):
        assert classical_bessel(3, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_first_zero_of_j0(self):
        assert abs(classical_bessel(0, 2.404825557695773)) < 1e-10

    def test_against_scipy(self):
        import scipy.special

        for n in range(-3, 6):
            for x in (0.3, 1.7, 5.0, 20.0):
                assert classical_bessel(n, x) == pytest.approx(
                    float(scipy.special.jv(n, x)), abs=1e-11
                )

    @pytest.mark.parametrize("n", [64, 4096, -4096])
    @pytest.mark.parametrize("x", [1.0, 5.0, 100.0])
    def test_high_orders_against_scipy(self, n, x):
        # 2^m nodes dividing n alias J_n to J_0: J_4096(1) once came out as J_0(1) = 0.7652.
        import scipy.special

        assert classical_bessel(n, x) == pytest.approx(float(scipy.special.jv(n, x)), abs=1e-12)

    def test_domain_limit(self):
        # NaN once doubled the quadrature nodes to 2^25, about 1.5 GB, and returned NaN.
        for n, x in ((0, 2e4), (0, math.nan), (20000, 1.0), (-20000, 1.0)):
            with pytest.raises(DomainError):
                classical_bessel(n, x)


class TestKernelLimit:
    def test_exact_at_zero_product(self):
        assert kernel_limit_error(0, 0.0, 0.0, 16) == pytest.approx(0.0, abs=1e-15)

    def test_converged_at_moderate_N(self):
        # The rotation sum is a trapezoid rule on a periodic analytic function,
        # so for these products it is converged to round-off well before N=32.
        for n_hat in (0, 1, 2):
            for product in (0.5, 1.0, 3.0):
                assert kernel_limit_error(n_hat, product, 0.0, 64) < 1e-12

    def test_nonzero_delta_phase(self):
        # The pinned phase convention e^{i*n_hat*delta} makes the limit exact
        # for delta != 0 as well.
        assert kernel_limit_error(1, 1.0, 0.4, 64) < 1e-12
        assert kernel_limit_error(2, 2.0, -0.3, 64) < 1e-12

    def test_aliasing_tail_for_larger_product(self):
        # At product 10 the aliasing error J_{N-n_hat}(10) is visible at N=16
        # and collapses after one doubling.
        coarse = kernel_limit_error(1, 10.0, 0.0, 16)
        fine = kernel_limit_error(1, 10.0, 0.0, 32)
        assert coarse > 1e-6
        assert fine < coarse / 1.5
