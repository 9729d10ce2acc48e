import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotap import (
    DomainError,
    GroupElement,
    InsufficientSample,
    SlicePoint,
    TrivialStabilizer,
    check_homomorphism,
    check_unitary,
    commutant_dimension,
    compose,
    inverse,
    matrix_coefficient_check,
    rep_matrix,
)

TWO_PI = 2 * math.pi


def generic_sample(N, t=0.7):
    """A sample satisfying the commutant preconditions for generic lambda."""
    return [
        GroupElement(1, (0.0, 0.0)),
        GroupElement(0, (t, 0.0)),
        GroupElement(0, (0.0, t)),
    ]


class TestGroupLaw:
    def test_identity(self):
        e = GroupElement(0, (0.0, 0.0))
        g = GroupElement(2, (0.3, -1.1))
        assert compose(e, g, 5) == g
        assert compose(g, e, 5) == g

    def test_inverse_law(self):
        g = GroupElement(3, (0.4, 0.9))
        gi = inverse(g, 7)
        e = compose(g, gi, 7)
        assert e.rotation == 0
        assert e.translation == pytest.approx((0.0, 0.0), abs=1e-15)
        e2 = compose(gi, g, 7)
        assert e2.rotation == 0
        assert e2.translation == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_noncommutative(self):
        a = GroupElement(1, (1.0, 0.0))
        b = GroupElement(0, (0.0, 1.0))
        ab = compose(a, b, 4)
        ba = compose(b, a, 4)
        assert ab.translation != pytest.approx(ba.translation)

    @given(
        k1=st.integers(0, 5),
        k2=st.integers(0, 5),
        k3=st.integers(0, 5),
        xs=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    )
    @settings(max_examples=50)
    def test_associativity(self, k1, k2, k3, xs):
        N = 6
        a = GroupElement(k1, (xs[0], xs[1]))
        b = GroupElement(k2, (xs[2], xs[3]))
        c = GroupElement(k3, (xs[4], xs[5]))
        lhs = compose(compose(a, b, N), c, N)
        rhs = compose(a, compose(b, c, N), N)
        assert lhs.rotation == rhs.rotation
        assert lhs.translation == pytest.approx(rhs.translation, abs=1e-12)


class TestRepMatrix:
    def test_hand_value_minus_identity(self):
        # N=2, lambda=(1,0), pure translation by (pi, 0): both diagonal
        # phases are e^{+-i pi} = -1, so T = -I.
        T = rep_matrix((1.0, 0.0), GroupElement(0, (math.pi, 0.0)), 2)
        np.testing.assert_allclose(T, -np.eye(2), atol=1e-14)

    def test_pure_rotation_is_shift(self):
        T = rep_matrix((1.0, 0.0), GroupElement(1, (0.0, 0.0)), 4)
        expected = np.zeros((4, 4))
        for h in range(4):
            expected[h, (h - 1) % 4] = 1.0
        np.testing.assert_allclose(T, expected, atol=1e-15)

    @given(
        N=st.integers(1, 12),
        k=st.integers(-20, 20),
        x=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        lam=st.tuples(st.floats(0.1, 2), st.floats(-2, 2)),
    )
    @settings(max_examples=100)
    def test_matches_row_loop(self, N, k, x, lam):
        # The defining formula, one row at a time with a 2x2 rotation matrix.
        want = np.zeros((N, N), dtype=complex)
        for h in range(N):
            c, s = math.cos(TWO_PI * h / N), math.sin(TWO_PI * h / N)
            want[h, (h - k) % N] = np.exp(1j * float(np.array([[c, -s], [s, c]]) @ lam @ x))
        got = rep_matrix(lam, GroupElement(k, x), N)
        assert np.array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_zero_frequency_rejected(self):
        with pytest.raises(TrivialStabilizer):
            rep_matrix((0.0, 0.0), GroupElement(0, (1.0, 0.0)), 4)

    @given(
        k=st.integers(0, 7),
        x0=st.floats(-3, 3),
        x1=st.floats(-3, 3),
        lam0=st.floats(-2, 2),
        lam1=st.floats(0.1, 2),
    )
    @settings(max_examples=100)
    def test_unitary(self, k, x0, x1, lam0, lam1):
        g = GroupElement(k, (x0, x1))
        assert check_unitary((lam0, lam1), g, 8) < 1e-12

    @given(
        k1=st.integers(0, 7),
        k2=st.integers(0, 7),
        xs=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        lam0=st.floats(-2, 2),
        lam1=st.floats(0.1, 2),
    )
    @settings(max_examples=100)
    def test_homomorphism(self, k1, k2, xs, lam0, lam1):
        g1 = GroupElement(k1, (xs[0], xs[1]))
        g2 = GroupElement(k2, (xs[2], xs[3]))
        assert check_homomorphism((lam0, lam1), g1, g2, 8) < 1e-11

    def test_inverse_matrix_is_adjoint(self):
        lam = (0.8, 0.3)
        g = GroupElement(2, (0.5, -0.7))
        T = rep_matrix(lam, g, 5)
        Ti = rep_matrix(lam, inverse(g, 5), 5)
        np.testing.assert_allclose(Ti, T.conj().T, atol=1e-13)


class TestCommutant:
    def test_irreducible_generic(self):
        for N in (2, 3, 4, 6):
            assert commutant_dimension((1.0, 0.0), generic_sample(N), N) == 1

    def test_degenerate_N1(self):
        assert commutant_dimension((1.0, 0.0), [GroupElement(0, (0.7, 0.0)), GroupElement(0, (0.0, 0.7))], 1) == 1

    def test_missing_rotation(self):
        sample = [GroupElement(0, (0.7, 0.0)), GroupElement(0, (0.0, 0.7))]
        with pytest.raises(InsufficientSample):
            commutant_dimension((1.0, 0.0), sample, 4)

    def test_nongenerating_rotation(self):
        # Rotation index 2 generates only half of Z_4.
        sample = [GroupElement(2, (0.0, 0.0)), GroupElement(0, (0.7, 0.0)), GroupElement(0, (0.0, 0.7))]
        with pytest.raises(InsufficientSample):
            commutant_dimension((1.0, 0.0), sample, 4)

    def test_missing_axis_translation(self):
        sample = [GroupElement(1, (0.0, 0.0)), GroupElement(0, (0.7, 0.0))]
        with pytest.raises(InsufficientSample):
            commutant_dimension((1.0, 0.0), sample, 4)

    def test_aliased_translation_rejected(self):
        # With lambda = (1, 0) and N = 2 the rotated frequencies differ by
        # (2, 0); a translation of (pi, 0) gives a phase gap of exactly 2*pi,
        # which separates nothing.
        sample = [
            GroupElement(1, (0.0, 0.0)),
            GroupElement(0, (math.pi, 0.0)),
            GroupElement(0, (0.0, math.pi)),
        ]
        with pytest.raises(InsufficientSample):
            commutant_dimension((1.0, 0.0), sample, 2)

    def test_larger_sample_still_one(self, rng):
        sample = generic_sample(5) + [
            GroupElement(int(rng.integers(0, 5)), tuple(rng.uniform(-2, 2, 2))) for _ in range(4)
        ]
        assert commutant_dimension((0.9, 0.4), sample, 5) == 1


class TestMatrixCoefficient:
    def test_closed_form_small_sweep(self):
        lam = (1.2, 0.5)
        y = SlicePoint(0.8, 0.3)
        for N in (2, 4, 5):
            assert matrix_coefficient_check(lam, y, N) < 1e-10

    @given(
        rho=st.floats(0.1, 3.0),
        alpha=st.floats(0.0, 1.0),
        xi=st.floats(0.1, 3.0),
        omega=st.floats(0.0, 6.0),
    )
    @settings(max_examples=100)
    def test_closed_form_random(self, rho, alpha, xi, omega):
        lam = (xi * math.cos(omega), xi * math.sin(omega))
        y = SlicePoint(rho, alpha)
        assert matrix_coefficient_check(lam, y, 6) < 1e-9

    @pytest.mark.parametrize("lam, radius", [((1e300, 0.0), 1e10), ((math.nan, 1.0), 1.0)], ids=["overflow", "nan"])
    def test_non_finite_product_raises(self, lam, radius):
        # An all-NaN kernel once read as error 0.0, since max(0.0, nan) is 0.0.
        with pytest.raises(DomainError, match="not finite"):
            matrix_coefficient_check(lam, SlicePoint(radius, 0.0), 4)
