import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotap import (
    ApCoefficients,
    FourierBesselBlocks,
    GridMismatch,
    RotInvariantGrid,
    SampleArray,
    WellPosednessError,
    Weights,
    approximate,
    approximation_objective,
    assemble_blocks,
    banded_weights,
    build_polar_grid,
    dft_rotation_axis,
    evaluate_at_point,
    evaluate_fast,
    evaluate_naive,
    interpolate,
    prefactorize,
    rotate_coefficients,
    translate_coefficients,
)
from rotap.cli import CONDITION_LIMIT
from rotap.errors import TrivialStabilizer
from rotap.grids import SlicePoint
from rotap.harness import square_bench_grids

from conftest import demo_grids, random_coefficients, random_slice_grid, square_grid_pair


def brute_force_eval(coeffs, E):
    """Independent double-loop oracle for the evaluation operator."""
    N = E.N
    F = coeffs.frequency_grid
    out = np.zeros((N, len(E.points)), dtype=complex)
    for n in range(N):
        for j, y in enumerate(E.points):
            px, py = y.xy()
            tn = 2 * math.pi * n / N
            x = (px * math.cos(tn) - py * math.sin(tn), px * math.sin(tn) + py * math.cos(tn))
            acc = 0j
            for m in range(N):
                tm = 2 * math.pi * m / N
                for k, lam in enumerate(F.points):
                    lx, ly = lam.xy()
                    L = (lx * math.cos(tm) - ly * math.sin(tm), lx * math.sin(tm) + ly * math.cos(tm))
                    acc += cmath.exp(1j * (L[0] * x[0] + L[1] * x[1])) * coeffs.values[m, k]
            out[n, j] = acc
    return out


def cholesky_reference(blocks, w):
    """Per-bin approximation operators from scipy's Cholesky solve and the exact kappa_1 of each normal matrix, every bin factored."""
    import scipy.linalg

    operators, conditions = [], []
    for n_hat, b in enumerate(blocks.blocks):
        adjoint = b.conj().T
        normal = adjoint @ b + np.diag(w.values[n_hat] ** 2)
        factor = scipy.linalg.cho_factor(normal)
        inverse = scipy.linalg.cho_solve(factor, np.eye(len(normal)))
        conditions.append(np.linalg.norm(normal, 1) * np.linalg.norm(inverse, 1))
        operators.append(scipy.linalg.cho_solve(factor, adjoint))
    return operators, conditions


def assert_mirrored(fact):
    """operators[N-n] == (-1)^n conj(operators[n]) bitwise, and conditions[N-n] == conditions[n]."""
    for n in range(len(fact.operators)):
        assert np.array_equal(fact.operators[-n], (-1) ** n * fact.operators[n].conj())
        assert fact.conditions[-n] == fact.conditions[n]


class TestDft:
    def test_dc_bin(self):
        col = np.ones((5, 1))
        out = dft_rotation_axis(col, "forward")
        assert out[0, 0] == pytest.approx(math.sqrt(5))
        assert np.abs(out[1:]).max() < 1e-14

    def test_hand_computed_bin(self):
        col = np.array([[1], [1j], [-1], [-1j]])
        out = dft_rotation_axis(col, "forward")
        np.testing.assert_allclose(out.ravel(), [0, 2, 0, 0], atol=1e-14)

    @given(n=st.integers(1, 16), m=st.integers(1, 4), seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_unitarity_and_inverse(self, n, m, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        fwd = dft_rotation_axis(v, "forward")
        assert np.linalg.norm(fwd) == pytest.approx(np.linalg.norm(v), rel=1e-13)
        back = dft_rotation_axis(fwd, "inverse")
        assert np.linalg.norm(back - v) <= 1e-13 * np.linalg.norm(v)


class TestEvaluate:
    def test_zero_coefficients(self, rng):
        E, F = square_grid_pair(4, [1.0, 2.0])
        c = ApCoefficients(np.zeros((4, 2)), F)
        assert np.abs(evaluate_naive(c, E).values).max() == 0
        assert np.abs(evaluate_fast(c, assemble_blocks(E, F)).values).max() < 1e-14

    def test_single_plane_wave(self):
        E, F = square_grid_pair(6, [0.7, 1.9])
        c = np.zeros((6, 2), dtype=complex)
        c[0, 1] = 1.0
        out = evaluate_naive(ApCoefficients(c, F), E).values
        xi, om = F.points[1].radius, F.points[1].angle
        for n in range(6):
            for j, y in enumerate(E.points):
                expected = cmath.exp(1j * xi * y.radius * math.cos(y.angle + 2 * math.pi * n / 6 - om))
                assert out[n, j] == pytest.approx(expected, abs=1e-12)

    def test_naive_matches_brute_force(self, rng):
        E = random_slice_grid(rng, 4, 3, "spatial")
        F = random_slice_grid(rng, 4, 3, "frequency")
        c = random_coefficients(rng, F)
        got = evaluate_naive(c, E).values
        want = brute_force_eval(c, E)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_fast_matches_naive(self, rng):
        E = random_slice_grid(rng, 8, 5, "spatial")
        F = random_slice_grid(rng, 8, 5, "frequency")
        c = random_coefficients(rng, F)
        ref = evaluate_naive(c, E).values
        fast = evaluate_fast(c, assemble_blocks(E, F)).values
        assert np.linalg.norm(fast - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_fast_n1_degenerate(self, rng):
        E = random_slice_grid(rng, 1, 3, "spatial")
        F = random_slice_grid(rng, 1, 3, "frequency")
        c = random_coefficients(rng, F)
        blocks = assemble_blocks(E, F)
        fast = evaluate_fast(c, blocks).values
        np.testing.assert_allclose(fast[0], blocks.blocks[0] @ c.values[0], rtol=1e-13)

    def test_grid_mismatch(self, rng):
        E = random_slice_grid(rng, 4, 2)
        F = random_slice_grid(rng, 8, 2, "frequency")
        with pytest.raises(GridMismatch):
            evaluate_naive(random_coefficients(rng, F), E)

    def test_evaluate_at_origin(self, rng):
        F = random_slice_grid(rng, 4, 3, "frequency")
        c = random_coefficients(rng, F)
        assert evaluate_at_point(c, (0.0, 0.0)) == pytest.approx(c.values.sum())

    def test_evaluate_at_grid_point_consistency(self, rng):
        E = random_slice_grid(rng, 5, 2)
        F = random_slice_grid(rng, 5, 2, "frequency")
        c = random_coefficients(rng, F)
        naive = evaluate_naive(c, E).values
        full = E.full_xy()
        for n in (0, 3):
            for j in (0, 1):
                assert evaluate_at_point(c, full[n, j]) == pytest.approx(naive[n, j], rel=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        E, F = square_grid_pair(4, [0.6, 1.4, 2.2])
        blocks = assemble_blocks(E, F)
        a = random_coefficients(rng, F)
        b = random_coefficients(rng, F)
        z = complex(rng.standard_normal(), rng.standard_normal())
        combo = ApCoefficients(z * a.values + b.values, F)
        lhs = evaluate_fast(combo, blocks).values
        rhs = z * evaluate_fast(a, blocks).values + evaluate_fast(b, blocks).values
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(np.linalg.norm(rhs), 1.0)


class TestPrefactorize:
    def test_trivial_1x1(self):
        E = RotInvariantGrid(1, (SlicePoint(1.0, 0.0),), "spatial").validate()
        F = RotInvariantGrid(1, (SlicePoint(1.0, 0.0),), "frequency").validate()
        fact = prefactorize(assemble_blocks(E, F), "interpolation")
        assert fact.conditions == (1.0,)

    def test_duplicated_point_is_singular(self):
        # Bypass grid validation to plant two identical spatial points.
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0, 0.1))
        E = RotInvariantGrid(4, pts, "spatial")
        F = build_polar_grid(1, [0.5, 1.5], 4, kind="frequency")
        with pytest.raises(WellPosednessError) as exc:
            prefactorize(assemble_blocks(E, F), "interpolation")
        assert 0 <= exc.value.bin_index < 4

    def test_first_singular_bin_is_named(self, rng):
        # Only bins 2 and 3 are singular; the error must name the first, bin 2.
        # A zero row stays zero through elimination, so LAPACK meets an exact
        # zero pivot under any rounding; a duplicated row need not give one.
        blocks = assemble_blocks(random_slice_grid(rng, 5, 3), random_slice_grid(rng, 5, 3, "frequency"))
        stack = blocks.blocks.copy()
        stack[2, 1] = 0
        stack[3] = 0
        singular = FourierBesselBlocks(5, stack, blocks.spatial_grid, blocks.frequency_grid)
        with pytest.raises(WellPosednessError) as exc:
            prefactorize(singular, "interpolation")
        assert exc.value.bin_index == 2
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_first_singular_bin_is_named_even_N(self, rng):
        # Bin 4 is singular and its mirror, bin 2, is not: the stack is not
        # mirrored, so every bin is factored and the error names bin 4.  Its
        # zero row gives an exact zero pivot under any rounding.
        blocks = assemble_blocks(random_slice_grid(rng, 6, 3), random_slice_grid(rng, 6, 3, "frequency"))
        stack = blocks.blocks.copy()
        stack[4, 1] = 0
        singular = FourierBesselBlocks(6, stack, blocks.spatial_grid, blocks.frequency_grid)
        with pytest.raises(WellPosednessError) as exc:
            prefactorize(singular, "interpolation")
        assert exc.value.bin_index == 4
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_duplicated_point_approximation_is_singular(self):
        # A duplicated point makes J* J singular only up to rounding: its
        # inversion fails at bin 0 for some points and not for others.  A
        # zero column in bin 0 makes the first row and column of J* J exactly
        # zero, so the factorization itself fails under any rounding.
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0, 0.1))
        E = RotInvariantGrid(4, pts, "spatial")
        F = build_polar_grid(1, [0.5, 1.5], 4, kind="frequency")
        blocks = assemble_blocks(E, F)
        stack = blocks.blocks.copy()
        stack[0, :, 0] = 0
        singular = FourierBesselBlocks(4, stack, E, F)
        with pytest.raises(WellPosednessError) as exc:
            prefactorize(singular, "approximation", Weights.zero(4, 2))
        assert exc.value.bin_index == 0
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_approximation_matches_cholesky_reference(self, rng):
        E = random_slice_grid(rng, 8, 10)
        F = random_slice_grid(rng, 8, 6, "frequency")
        blocks = assemble_blocks(E, F)
        w = Weights(rng.uniform(0.1, 2.0, (8, 6)))
        fact = prefactorize(blocks, "approximation", w)
        assert fact.operators.shape == (8, 6, 10) and fact.operators.flags.c_contiguous
        for n_hat, (want, cond) in enumerate(zip(*cholesky_reference(blocks, w))):
            assert fact.conditions[n_hat] == pytest.approx(cond, rel=1e-12)
            assert np.abs(fact.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()

    def test_approximation_mirrors_only_mirrored_weights(self, rng):
        # Weights with d[N-n] == d[n] let bins 5 ... 7 be mirrored from bins
        # 3 ... 1; one changed entry of bin 5 makes every bin be factored.
        E = random_slice_grid(rng, 8, 10)
        F = random_slice_grid(rng, 8, 6, "frequency")
        blocks = assemble_blocks(E, F)
        head = rng.uniform(0.1, 2.0, (5, 6))
        mirrored = np.concatenate((head, head[-2:0:-1]))
        changed = mirrored.copy()
        changed[5, 2] *= 1.5
        for values in (mirrored, changed):
            w = Weights(values)
            fact = prefactorize(blocks, "approximation", w)
            for n_hat, (want, cond) in enumerate(zip(*cholesky_reference(blocks, w))):
                assert fact.conditions[n_hat] == pytest.approx(cond, rel=1e-12)
                assert np.abs(fact.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
        assert_mirrored(prefactorize(blocks, "approximation", Weights(mirrored)))

    @pytest.mark.parametrize("Q", [64, 128])
    def test_half_path_matches_every_bin_factored(self, Q):
        # On even N only bins 0 ... N/2 are factored; the rest are exact mirrors.
        E, F = square_bench_grids(64, Q)
        blocks = assemble_blocks(E, F)
        w = banded_weights(F, 100.0)
        interp = prefactorize(blocks, "interpolation")
        approx = prefactorize(blocks, "approximation", w)
        for n_hat, (b, want) in enumerate(zip(blocks.blocks, cholesky_reference(blocks, w)[0])):
            assert np.abs(approx.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
            want = np.linalg.inv(b)
            assert np.abs(interp.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
        assert_mirrored(interp)
        assert_mirrored(approx)

    def test_origin_grid_cannot_interpolate(self):
        # All N rotations fix the origin: N(P-1)+1 distinct points for N*Q coefficients.
        E = RotInvariantGrid(6, (SlicePoint(0.0, 0.0), SlicePoint(1.0, 0.0), SlicePoint(2.0, 0.0)), "spatial").validate()
        F = build_polar_grid(1, [0.7, 1.4, 2.1], 6, kind="frequency")
        blocks = assemble_blocks(E, F)
        with pytest.raises(TrivialStabilizer, match="origin"):
            prefactorize(blocks, "interpolation")
        fact = prefactorize(blocks, "approximation", banded_weights(F, 1.0))
        assert all(np.isfinite(fact.conditions))

    def test_interpolation_matches_lu_reference(self, rng):
        import scipy.linalg

        E = random_slice_grid(rng, 8, 6)
        F = random_slice_grid(rng, 8, 6, "frequency")
        blocks = assemble_blocks(E, F)
        fact = prefactorize(blocks, "interpolation")
        assert fact.operators.shape == (8, 6, 6) and fact.operators.flags.c_contiguous
        for n_hat, b in enumerate(blocks.blocks):
            want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(b), np.eye(6))
            assert np.abs(fact.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
            kappa_1 = np.linalg.norm(b, 1) * np.linalg.norm(want, 1)
            assert fact.conditions[n_hat] == pytest.approx(kappa_1, rel=1e-12)

    @pytest.mark.parametrize("Q", [32, 64, 128, None], ids=["bench-Q32", "bench-Q64", "bench-Q128", "demo"])
    def test_interpolation_conditions_track_cond(self, Q):
        # On the bench grids kappa_1 and kappa_2 agree within a factor Q, also
        # on bench-Q32 bin 32, which is singular to working precision and which
        # the library reports rather than rejects.  Every demo block is
        # singular to working precision (kappa_2 above 1e16 in every bin): the
        # ratio is rounding noise there, and a relative change of 2.2e-16 to the
        # blocks moves it outside [1/Q, Q] in many draws.  What holds under any
        # rounding is what the CLI's gate decides: every bin lies beyond it.
        E, F = square_bench_grids(64, Q) if Q else demo_grids()
        blocks = assemble_blocks(E, F)
        kappa_1 = np.asarray(prefactorize(blocks, "interpolation").conditions)
        kappa_2 = np.linalg.cond(blocks.blocks)
        if Q is None:
            assert np.all((kappa_1 > CONDITION_LIMIT) & (kappa_2 > CONDITION_LIMIT))
        else:
            ratio = kappa_1 / kappa_2
            assert np.all((1 / blocks.Q <= ratio) & (ratio <= blocks.Q))

    @pytest.mark.parametrize("weighted", [True, False], ids=["banded", "zero"])
    @pytest.mark.parametrize("Q", [64, 128])
    def test_approximation_conditions_track_cond(self, Q, weighted):
        # The conditions are those of the normal matrices J* J + diag(d^2),
        # the matrices approximation inverts; zero weights leave them at
        # kappa_2 up to about 5e7 on these grids.
        E, F = square_bench_grids(64, Q)
        blocks = assemble_blocks(E, F)
        w = banded_weights(F, 100.0) if weighted else Weights.zero(64, Q)
        kappa_1 = np.asarray(prefactorize(blocks, "approximation", w).conditions)
        adjoint = blocks.blocks.conj().transpose(0, 2, 1)
        normal = adjoint @ blocks.blocks + np.eye(Q) * w.values[:, None, :] ** 2
        ratio = kappa_1 / np.linalg.cond(normal)
        assert np.all((1 / Q <= ratio) & (ratio <= Q))

    def test_polar_grid_conditions_finite(self):
        E, F = square_grid_pair(8, [1.0, 2.0])
        # two rays per slice
        E = build_polar_grid(2, [1.0, 2.0], 8, kind="spatial")
        F = build_polar_grid(2, [1.0, 2.0], 8, kind="frequency")
        fact = prefactorize(assemble_blocks(E, F), "interpolation")
        assert len(fact.conditions) == 8
        assert all(np.isfinite(c) for c in fact.conditions)

    def test_operators_invert_blocks(self, rng):
        E = random_slice_grid(rng, 6, 4)
        F = random_slice_grid(rng, 6, 4, "frequency")
        blocks = assemble_blocks(E, F)
        fact = prefactorize(blocks, "interpolation")
        for n_hat in range(6):
            np.testing.assert_allclose(fact.operators[n_hat] @ blocks.blocks[n_hat], np.eye(4), atol=1e-8)

    def test_interpolation_requires_square(self, rng):
        E = random_slice_grid(rng, 4, 3)
        F = random_slice_grid(rng, 4, 2, "frequency")
        with pytest.raises(GridMismatch):
            prefactorize(assemble_blocks(E, F), "interpolation")


def axis_grids(N):
    """A bench axis pair: one ray per slice, every slice angle 0; Q = 64 at N = 64 keeps bin N/2 well-conditioned."""
    return square_bench_grids(N, 64 if N == 64 else 16)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestRealHalfStack:
    """Axis grid pairs store and factor the real half-stack; other inputs keep the complex path."""

    def test_operators_match_scipy_references(self, rng):
        import scipy.linalg

        E, F = axis_grids(12)
        blocks = assemble_blocks(E, F)
        w = Weights(rng.uniform(0.1, 2.0, (12, 16)))
        w = Weights(np.concatenate((w.values[:7], w.values[5:0:-1])))
        interp = prefactorize(blocks, "interpolation")
        approx = prefactorize(blocks, "approximation", w)
        for fact in (interp, approx):
            assert fact.stack.dtype == float and fact.stack.shape == (7, 16, 16)
            assert fact.operators.shape == (12, 16, 16) and fact.operators.flags.c_contiguous
            assert_mirrored(fact)
        for n_hat, (b, want, cond) in enumerate(zip(blocks.blocks, *cholesky_reference(blocks, w))):
            assert approx.conditions[n_hat] == pytest.approx(cond, rel=1e-12)
            assert np.abs(approx.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
            want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(b), np.eye(16))
            kappa_1 = np.linalg.norm(b, 1) * np.linalg.norm(want, 1)
            assert interp.conditions[n_hat] == pytest.approx(kappa_1, rel=kappa_1 * 1e-15)
            assert np.abs(interp.operators[n_hat] - want).max() <= kappa_1 * 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 12, 64])
    def test_products_match_complex_path(self, N, rng):
        # A complex stack built by hand from the same blocks keeps the complex path.
        E, F = axis_grids(N)
        Q = len(F.points)
        blocks = assemble_blocks(E, F)
        hand = FourierBesselBlocks(N, blocks.blocks, E, F)
        assert np.isrealobj(blocks.stack) and np.iscomplexobj(hand.stack)
        coeffs = random_coefficients(rng, F)
        samples = SampleArray(rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q)), E)
        got, want = evaluate_fast(coeffs, blocks).values, evaluate_fast(coeffs, hand).values
        assert relative_error(got, want) <= 1e-12
        w = banded_weights(F, 1.0)
        got = approximate(samples, prefactorize(blocks, "approximation", w)).values
        assert relative_error(got, approximate(samples, prefactorize(hand, "approximation", w)).values) <= 1e-12
        interp = prefactorize(blocks, "interpolation")
        got, want = interpolate(samples, interp).values, interpolate(samples, prefactorize(hand, "interpolation")).values
        assert relative_error(got, want) <= max(interp.conditions) * 1e-15

    def test_origin_grid_approximation(self, rng):
        # The origin has angle 0, so a spatial grid holding it still makes an axis pair.
        radii = np.linspace(1.0, 9.0, 16)
        E = RotInvariantGrid(8, (SlicePoint(0.0, 0.0),) + axis_grids(8)[0].points, "spatial").validate()
        F = build_polar_grid(1, radii, 8, kind="frequency")
        blocks = assemble_blocks(E, F)
        assert np.isrealobj(blocks.stack)
        samples = SampleArray(rng.standard_normal((8, 17)) + 1j * rng.standard_normal((8, 17)), E)
        w = banded_weights(F, 1.0)
        got = approximate(samples, prefactorize(blocks, "approximation", w)).values
        hand = FourierBesselBlocks(8, blocks.blocks, E, F)
        assert relative_error(got, approximate(samples, prefactorize(hand, "approximation", w)).values) <= 1e-12

    @pytest.mark.parametrize(
        "N, shape, dtype",
        [(4, (4, 3, 3), float), (4, (2, 3, 3), complex), (5, (3, 3, 3), float), (4, (4, 2, 3), float)],
        ids=["real-full", "short-complex", "real-odd-N", "wrong-P"],
    )
    def test_factorization_of_wrong_form_raises(self, N, shape, dtype):
        from rotap import BlockFactorization

        E, F = square_grid_pair(N, [1.0, 2.0, 3.0])
        with pytest.raises(GridMismatch, match="stack of shape"):
            BlockFactorization("interpolation", E, F, np.ones(shape, dtype=dtype), (1.0,) * N)

    def test_factorization_for_another_N_raises(self):
        from rotap import BlockFactorization

        E, F = square_grid_pair(8, [1.0, 2.0, 3.0])
        with pytest.raises(GridMismatch, match="4 conditions"):
            BlockFactorization("interpolation", E, F, np.ones((4, 3, 3), dtype=complex), (1.0,) * 4)

    def test_unmirrored_weights_use_complex_path(self, rng):
        # d[N-n] != d[n] cannot share one real operator between bins n and
        # N-n: every bin of the complex blocks is factored, bitwise as for a
        # hand-built complex stack.
        E, F = axis_grids(8)
        blocks = assemble_blocks(E, F)
        w = Weights(rng.uniform(0.1, 2.0, (8, 16)))
        fact = prefactorize(blocks, "approximation", w)
        assert fact.stack.dtype == complex and fact.stack.shape == (8, 16, 16)
        hand = prefactorize(FourierBesselBlocks(8, blocks.blocks, E, F), "approximation", w)
        assert np.array_equal(fact.operators, hand.operators) and fact.conditions == hand.conditions
        for n_hat, want in enumerate(cholesky_reference(blocks, w)[0]):
            assert np.abs(fact.operators[n_hat] - want).max() <= 1e-12 * np.abs(want).max()
        samples = SampleArray(rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16)), E)
        assert np.array_equal(approximate(samples, fact).values, approximate(samples, hand).values)


class TestInterpolate:
    def test_roundtrip(self, rng):
        E = random_slice_grid(rng, 8, 6)
        F = random_slice_grid(rng, 8, 6, "frequency")
        blocks = assemble_blocks(E, F)
        fact = prefactorize(blocks, "interpolation")
        c0 = random_coefficients(rng, F)
        samples = evaluate_fast(c0, blocks)
        c1 = interpolate(samples, fact)
        assert np.linalg.norm(c1.values - c0.values) <= 1e-8 * np.linalg.norm(c0.values)

    def test_zero_samples(self, rng):
        E = random_slice_grid(rng, 4, 3)
        F = random_slice_grid(rng, 4, 3, "frequency")
        blocks = assemble_blocks(E, F)
        fact = prefactorize(blocks, "interpolation")
        c = interpolate(SampleArray(np.zeros((4, 3)), E), fact)
        assert np.abs(c.values).max() < 1e-14

    def test_one_hot_reproduction(self, rng):
        E = random_slice_grid(rng, 4, 3)
        F = random_slice_grid(rng, 4, 3, "frequency")
        blocks = assemble_blocks(E, F)
        fact = prefactorize(blocks, "interpolation")
        s = np.zeros((4, 3), dtype=complex)
        s[2, 1] = 1.0
        c = interpolate(SampleArray(s, E), fact)
        back = evaluate_fast(c, blocks).values
        assert np.linalg.norm(back - s) <= 1e-9


class TestApproximate:
    def test_zero_weights_reduce_to_interpolation(self, rng):
        E = random_slice_grid(rng, 8, 5)
        F = random_slice_grid(rng, 8, 5, "frequency")
        blocks = assemble_blocks(E, F)
        samples = evaluate_fast(random_coefficients(rng, F), blocks)
        ci = interpolate(samples, prefactorize(blocks, "interpolation"))
        ca = approximate(samples, prefactorize(blocks, "approximation", Weights.zero(8, 5)))
        # The normal equations square the block conditioning, so the two
        # solutions can only agree to about cond(J)^2 * eps.
        cond2 = max(np.linalg.cond(b) for b in blocks.blocks) ** 2
        tol = max(1e-12, 10 * cond2 * np.finfo(float).eps)
        assert np.linalg.norm(ca.values - ci.values) <= tol * np.linalg.norm(ci.values)

    def test_huge_weights_kill_coefficients(self, rng):
        E = random_slice_grid(rng, 4, 3)
        F = random_slice_grid(rng, 4, 3, "frequency")
        blocks = assemble_blocks(E, F)
        samples = evaluate_fast(random_coefficients(rng, F), blocks)
        w = Weights(np.full((4, 3), 1e8))
        c = approximate(samples, prefactorize(blocks, "approximation", w))
        assert np.abs(c.values).max() < 1e-10

    def test_normal_equation_residual_identity(self, rng):
        E = random_slice_grid(rng, 8, 10)
        F = random_slice_grid(rng, 8, 6, "frequency")
        blocks = assemble_blocks(E, F)
        w = Weights(rng.uniform(0.1, 2.0, (8, 6)))
        fact = prefactorize(blocks, "approximation", w)
        samples = SampleArray(
            rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10)), E
        )
        c = approximate(samples, fact)
        vhat = dft_rotation_axis(c.values, "forward")
        what = dft_rotation_axis(samples.values, "forward")
        for n_hat in range(8):
            J = blocks.blocks[n_hat]
            lhs = J.conj().T @ (what[n_hat] - J @ vhat[n_hat])
            rhs = (w.values[n_hat] ** 2) * vhat[n_hat]
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)

    def test_first_order_optimality(self, rng):
        E = random_slice_grid(rng, 4, 6)
        F = random_slice_grid(rng, 4, 4, "frequency")
        blocks = assemble_blocks(E, F)
        w = Weights(rng.uniform(0.2, 1.5, (4, 4)))
        fact = prefactorize(blocks, "approximation", w)
        samples = SampleArray(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)), E)
        c = approximate(samples, fact)
        best = approximation_objective(c, samples, blocks, w)
        for _ in range(50):
            delta = rng.standard_normal(c.values.shape) + 1j * rng.standard_normal(c.values.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = ApCoefficients(c.values + delta, F)
            assert approximation_objective(perturbed, samples, blocks, w) >= best - 1e-12 * best

    def test_objective_counts_the_origin_N_times(self, rng):
        # The (N, P) layout holds the origin once per rotation, so its
        # residual enters the least squares N times.
        N = 5
        E = RotInvariantGrid(N, (SlicePoint(0.0, 0.0), SlicePoint(1.0, 0.2), SlicePoint(2.0, 0.5)), "spatial").validate()
        F = build_polar_grid(1, [0.7, 1.6], N, kind="frequency")
        c = random_coefficients(rng, F)
        values = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
        values[:, 0] = values[0, 0]  # one sample for the one origin point
        w = banded_weights(F, 0.3)
        fitted = evaluate_naive(c, E).values
        dense = (
            np.sum((w.values * np.abs(dft_rotation_axis(c.values))) ** 2)
            + np.sum(np.abs(values[:, 1:] - fitted[:, 1:]) ** 2)
            + N * abs(values[0, 0] - fitted[0, 0]) ** 2
        )
        objective = approximation_objective(c, SampleArray(values, E), assemble_blocks(E, F), w)
        assert objective == pytest.approx(dense, rel=1e-12)

    def test_banded_weight_scheme(self):
        F = build_polar_grid(1, [0.5, 1.2, 2.5], 4, kind="frequency")
        w = banded_weights(F, 100.0)
        np.testing.assert_allclose(w.values, np.tile([10.0, 100.0, 10000.0], (4, 1)))


class TestCoefficientOperators:
    def test_rotate_identity(self, rng):
        F = random_slice_grid(rng, 8, 3, "frequency")
        c = random_coefficients(rng, F)
        np.testing.assert_array_equal(rotate_coefficients(c, 0).values, c.values)
        np.testing.assert_array_equal(rotate_coefficients(c, 8).values, c.values)

    def test_rotation_shift_covariance(self, rng):
        E = random_slice_grid(rng, 8, 4)
        F = random_slice_grid(rng, 8, 4, "frequency")
        c = random_coefficients(rng, F)
        rotated = evaluate_naive(rotate_coefficients(c, 3), E).values
        shifted = np.roll(evaluate_naive(c, E).values, 3, axis=0)
        assert np.linalg.norm(rotated - shifted) <= 1e-12 * np.linalg.norm(shifted)

    def test_rotation_pointwise(self, rng):
        F = random_slice_grid(rng, 6, 3, "frequency")
        c = random_coefficients(rng, F)
        m = 2
        t = -2 * math.pi * m / 6
        x = np.array([0.8, -0.4])
        back = np.array(
            [x[0] * math.cos(t) - x[1] * math.sin(t), x[0] * math.sin(t) + x[1] * math.cos(t)]
        )
        lhs = evaluate_at_point(rotate_coefficients(c, m), x)
        rhs = evaluate_at_point(c, back)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_translate_identity_and_inverse(self, rng):
        F = random_slice_grid(rng, 6, 4, "frequency")
        c = random_coefficients(rng, F)
        np.testing.assert_array_equal(translate_coefficients(c, (0.0, 0.0)).values, c.values)
        xi = (0.8, -1.3)
        back = translate_coefficients(translate_coefficients(c, xi), (-xi[0], -xi[1]))
        assert np.linalg.norm(back.values - c.values) <= 1e-13 * np.linalg.norm(c.values)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_translation_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        F = random_slice_grid(rng, 5, 3, "frequency")
        c = random_coefficients(rng, F)
        xi = rng.uniform(-2, 2, 2)
        x = rng.uniform(-2, 2, 2)
        lhs = evaluate_at_point(translate_coefficients(c, xi), x)
        rhs = evaluate_at_point(c, x - xi)
        assert lhs == pytest.approx(rhs, rel=1e-11)
