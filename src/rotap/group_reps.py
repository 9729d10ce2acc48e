"""N-dimensional unitary representations of the semidiscrete rototranslation group.

Group elements are pairs (k, x): a rotation index mod N and a planar
translation, composing as (k, x)(h, y) = (k + h mod N, x + R_{2*pi*k/N} y).
Each nonzero frequency lambda induces the N x N representation

    T^lambda(k, x)[h, h'] = e^{i <R_{2*pi*h/N} lambda, x>}  if h' = (h-k) mod N, else 0,

a diagonal phase times a cyclic shift.  This module builds those matrices and
provides the numerical checks (homomorphism, unitarity, Schur commutant,
matrix-coefficient identity) run by the test suite and the verify-rep command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import generalized_bessel
from .errors import InsufficientSample, TrivialStabilizer
from .grids import TWO_PI, SlicePoint


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class GroupElement:
    rotation: int
    translation: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "translation", (float(self.translation[0]), float(self.translation[1])))

    def reduced(self, N: int) -> "GroupElement":
        return GroupElement(self.rotation % N, self.translation)


def compose(a: GroupElement, b: GroupElement, N: int) -> GroupElement:
    R = rotation_matrix(TWO_PI * (a.rotation % N) / N)
    t = np.asarray(a.translation) + R @ np.asarray(b.translation)
    return GroupElement((a.rotation + b.rotation) % N, (t[0], t[1]))


def inverse(g: GroupElement, N: int) -> GroupElement:
    R = rotation_matrix(-TWO_PI * (g.rotation % N) / N)
    t = -(R @ np.asarray(g.translation))
    return GroupElement((-g.rotation) % N, (t[0], t[1]))


def rep_matrix(lam, g: GroupElement, N: int) -> np.ndarray:
    """The representation matrix T^lambda(g) for a nonzero planar frequency lam."""
    lam = np.asarray(lam, dtype=float)
    if np.hypot(lam[0], lam[1]) == 0:
        raise TrivialStabilizer("lambda must be nonzero")
    x0, x1 = g.translation
    h = np.arange(N)
    c, s = np.cos(TWO_PI * h / N), np.sin(TWO_PI * h / N)
    phase = (c * lam[0] - s * lam[1]) * x0 + (s * lam[0] + c * lam[1]) * x1  # <R_{2*pi*h/N} lam, x>
    T = np.zeros((N, N), dtype=complex)
    T[h, (h - g.rotation) % N] = np.exp(1j * phase)
    return T


def check_homomorphism(lam, g1: GroupElement, g2: GroupElement, N: int) -> float:
    """Max-entry error of T(g1) T(g2) - T(g1 g2)."""
    lhs = rep_matrix(lam, g1, N) @ rep_matrix(lam, g2, N)
    rhs = rep_matrix(lam, compose(g1, g2, N), N)
    return float(np.abs(lhs - rhs).max())


def check_unitary(lam, g: GroupElement, N: int) -> float:
    """Max-entry error of T(g)* T(g) - I."""
    T = rep_matrix(lam, g, N)
    return float(np.abs(T.conj().T @ T - np.eye(N)).max())


def _is_pure_rotation(g: GroupElement) -> bool:
    return g.translation == (0.0, 0.0)


def _axis_translation(g: GroupElement, axis: int) -> bool:
    x = g.translation
    other = x[1 - axis]
    return g.rotation == 0 and x[axis] != 0.0 and abs(other) <= 1e-12 * abs(x[axis])


# Singular values below this fraction of the largest count toward the commutant's null space.
_COMMUTANT_RTOL = 1e-9


def commutant_dimension(lam, sample, N: int) -> int:
    """Dimension of the space of matrices commuting with T(g) for every sampled g.

    A generic sample must contain a generating pure rotation and translations
    along both axes whose phases separate every pair of rotated frequencies;
    otherwise :class:`InsufficientSample` is raised.  Dimension 1 certifies
    irreducibility (Schur).
    """
    lam = np.asarray(lam, dtype=float)
    sample = [g.reduced(N) for g in sample]
    if N > 1:
        if not any(_is_pure_rotation(g) and math.gcd(g.rotation, N) == 1 for g in sample):
            raise InsufficientSample("no generating pure rotation in the sample")
        for axis in (0, 1):
            if not any(_axis_translation(g, axis) for g in sample):
                raise InsufficientSample(f"no pure translation along axis {axis} in the sample")
        translations = [np.asarray(g.translation) for g in sample if g.rotation == 0]
        for h in range(N):
            for hp in range(h + 1, N):
                dlam = rotation_matrix(TWO_PI * h / N) @ lam - rotation_matrix(TWO_PI * hp / N) @ lam
                if not any(
                    min(abs(float(dlam @ x)) % TWO_PI, TWO_PI - abs(float(dlam @ x)) % TWO_PI) > 1e-8
                    for x in translations
                ):
                    raise InsufficientSample(
                        f"no sampled translation separates rotated frequencies {h} and {hp}"
                    )
    rows = []
    eye = np.eye(N)
    for g in sample:
        T = rep_matrix(lam, g, N)
        # vec(M T - T M) = (T.T kron I - I kron T) vec(M), column-major vec.
        rows.append(np.kron(T.T, eye) - np.kron(eye, T))
    A = np.vstack(rows)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s.max() == 0:
        return N * N
    return int(np.sum(s < _COMMUTANT_RTOL * s.max()))


def matrix_coefficient_check(lam, y: SlicePoint, N: int) -> float:
    """Largest error of the closed-form matrix coefficients against the direct computation.

    Over every rotation k and h, the group element is g = (k, R_{2*pi*h/N} y).
    The direct side is C* T(g) C, where column n_hat of C is the unnormalized
    character e^{2*pi*i*n_hat*ell/N}: entry (m_hat, n_hat) pairs T(g) applied
    to character n_hat against character m_hat under the counting-measure
    inner product.  The closed form is
    e^{-2*pi*i*n_hat*k/N} e^{2*pi*i*(n_hat-m_hat)*h/N} J_{(n_hat-m_hat) mod N}(lam, y),
    with the N kernel bins J from :func:`generalized_bessel`, which raises
    :class:`DomainError` if |lam| * y.radius is not finite.
    """
    lam_polar = (math.hypot(lam[0], lam[1]), math.atan2(lam[1], lam[0]))
    J = np.array([generalized_bessel(n_hat, lam_polar, y, N) for n_hat in range(N)])
    lam = np.asarray(lam, dtype=float)
    ell = np.arange(N)
    C = np.exp(2j * np.pi * np.outer(ell, ell) / N)
    diff = ell[None, :] - ell[:, None]  # n_hat - m_hat; rows are m_hat
    worst = 0.0
    for h in range(N):
        x = rotation_matrix(TWO_PI * h / N) @ np.asarray(y.xy())
        for k in range(N):
            direct = C.conj().T @ rep_matrix(lam, GroupElement(k, (x[0], x[1])), N) @ C
            formula = np.exp(-2j * np.pi * ell * k / N) * np.exp(2j * np.pi * diff * h / N) * J[diff % N]
            worst = max(worst, float(np.abs(direct - formula).max()))
    return worst
