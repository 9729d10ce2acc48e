"""Generalized Bessel kernels for the semidiscrete rototranslation group.

The scalar kernel of parameter n_hat is the N-term character-weighted sum

    J_{n_hat}(lambda, y) = sum_{r=0}^{N-1} exp(i*xi*rho*cos(alpha-omega+2*pi*r/N))
                                           * exp(-2i*pi*n_hat*r/N)

with lambda = xi*e^{i*omega} a frequency and y = rho*e^{i*alpha} a spatial
point.  It depends on (lambda, y) only through the product xi*rho and the
angle difference alpha-omega.  The sum over r is a DFT: bin n_hat of the
length-N DFT over r of the slice kernel exp(i*xi*rho*cos(alpha-omega+2*pi*r/N)).
Stacking the cos and sin of the slice kernel's phases over a spatial slice E
and a frequency slice F and multiplying by real DFT matrices (GEMMs) gives
all N P x Q blocks of the discrete Fourier-Bessel operator at once.

The classical Bessel function J_n is provided as an independent quadrature
oracle: as N grows, the kernel scaled by 1/N converges to
i^n_hat * e^{i*n_hat*(alpha-omega)} * J_{n_hat}(xi*rho).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch
from .grids import RotInvariantGrid, SlicePoint, TWO_PI


def _polar(p) -> tuple[float, float]:
    if isinstance(p, SlicePoint):
        return p.radius, p.angle
    r, a = p
    return float(r), float(a)


# Entries of the slice kernel built per chunk of block rows: large enough to
# amortize the per-call cost of the GEMM, small enough that the chunk's
# temporaries stay near 1 MB beside the (N, P, Q) output.
_CHUNK_ENTRIES = 1 << 15

# Multiply-adds per GEMM call of the kernel's DFT, small enough that
# OpenBLAS runs each call on one thread.  On a 2-core machine its two-thread
# split was slower (64 x 64 x 250: 54 us, against 36 us for 64 x 64 x 200 on
# one thread) and at times stalled near 15 ms per call.
_GEMM_MULTIPLY_ADDS = 1 << 19


def _has_mirror(M: int) -> bool:
    """Whether a stack of M DFT bins has mirrored bins: M even, with bins beyond M/2."""
    return M % 2 == 0 and M > 2


def _mirror_bins(stack: np.ndarray) -> np.ndarray:
    """Make an (M, ...) stack obey stack[M-n] = (-1)^n conj(stack[n]) exactly, in place.

    Bins M/2+1 ... M-1 become the conjugates of bins M/2-1 ... 1, negated at
    odd n; bin 0 keeps its real part and bin M/2 the part that the relation
    leaves nonzero.  M is the stack's leading length and must be even.
    """
    M = stack.shape[0]
    half = M // 2
    stack[0, ...].imag = 0
    if half % 2:
        stack[half, ...].real = 0
    else:
        stack[half, ...].imag = 0
    np.conjugate(stack[half - 1 : 0 : -1], out=stack[half + 1 :])
    np.negative(stack[M - 1 : half : -2], out=stack[M - 1 : half : -2])
    return stack


def _is_mirrored(stack: np.ndarray) -> bool:
    """Whether stack[M-n] == (-1)^n conj(stack[n]) bitwise for every bin n, checked one bin at a time."""
    M = stack.shape[0]
    return _has_mirror(M) and all(np.array_equal(stack[-n], (-1) ** n * stack[n].conj()) for n in range(M // 2 + 1))


@functools.lru_cache(maxsize=None)
def _dft_blocks(N: int) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """The DFT over r as real matrices: (bins, rows, matrix) triples.

    ``matrix`` maps rows ``rows`` of the slice kernel's [cos; sin] array to
    [Re; Im] of bins ``bins``.  Odd N and N <= 2 take one block, the
    2N x 2N real form of the DFT.  For even N > 2 the rows hold the first
    N/2 rotations only, and A[r + N/2] = conj(A[r]) makes bin n of 0 ... N/2
    2*sum_r Re A[r] w^{nr} for even n and 2i*sum_r Im A[r] w^{nr} for odd n,
    w = exp(-2*pi*i/N): one block from the cos rows, one from the sin rows.
    """

    def twiddles(bins: np.ndarray, rotations: int) -> tuple[np.ndarray, np.ndarray]:
        angles = TWO_PI * ((bins[:, None] * np.arange(rotations)) % N) / N
        return np.cos(angles), np.sin(angles)

    if _has_mirror(N):
        half = N // 2
        c_even, s_even = twiddles(np.arange(0, half + 1, 2), half)
        c_odd, s_odd = twiddles(np.arange(1, half + 1, 2), half)
        blocks = (
            (slice(0, half + 1, 2), slice(0, half), 2 * np.vstack([c_even, -s_even])),
            (slice(1, half + 1, 2), slice(half, N), 2 * np.vstack([s_odd, c_odd])),
        )
    else:
        c, s = twiddles(np.arange(N), N)
        blocks = ((slice(0, N), slice(0, 2 * N), np.block([[c, s], [-s, c]])),)
    for _, _, matrix in blocks:
        matrix.flags.writeable = False
    return blocks


def _kernel_bins(products: np.ndarray, deltas: np.ndarray, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """All N kernel bins of every entry: the DFT over r of the slice kernel, as real GEMMs.

    ``products`` holds xi*rho, ``deltas`` holds alpha-omega; they broadcast to
    a shape S and the result has shape (N,) + S, bin n_hat at index n_hat.
    Both the scalar kernel and the block assembly go through this routine.

    The phase xi*rho*cos(delta + 2*pi*r/N) comes by angle addition from
    xi*rho*cos(delta) and xi*rho*sin(delta), so each entry takes two trig
    calls beside the cos and sin of its phases.  Those fill one real
    (2*computed, S) array, and the cached matrices of :func:`_dft_blocks`
    map it to the real and imaginary parts of the bins, in column blocks of
    at most ``_GEMM_MULTIPLY_ADDS`` multiply-adds.

    For even N > 2 the group holds the rotation by pi, and cos(t + pi) =
    -cos(t) gives the slice kernel A[r + N/2] = conj(A[r]).  So only the
    first N/2 rotations are computed, and the bins obey
    J_{N-n} = (-1)^n conj(J_n), the discrete J_{-n} = (-1)^n J_n: the GEMMs
    give bins 0 ... N/2 and bins N/2+1 ... N-1 are written as exact mirrors.
    """
    a = products * np.cos(deltas)
    b = products * np.sin(deltas)
    shape = a.shape
    computed = N // 2 if _has_mirror(N) else N
    blocks = _dft_blocks(N)
    steps = TWO_PI * np.arange(computed)[:, None] / N
    # One temporary per call: the slice kernel's cos and sin rows, then the
    # bins.  As separate arrays they took fresh pages in every chunk, and the
    # first assemblies of a process ran about 40% slower than later ones.
    work = np.empty((2 * computed + sum(m.shape[0] for _, _, m in blocks), a.size))
    slice_kernel = work[: 2 * computed]
    cos_rows, sin_rows = slice_kernel[:computed], slice_kernel[computed:]
    np.multiply(a.reshape(-1), np.cos(steps), out=cos_rows)
    np.multiply(b.reshape(-1), np.sin(steps), out=sin_rows)
    phase = np.subtract(cos_rows, sin_rows, out=sin_rows)
    np.cos(phase, out=cos_rows)
    np.sin(phase, out=sin_rows)
    if out is None:
        out = np.empty((N,) + shape, dtype=complex)
    start = 2 * computed
    for bins, rows, matrix in blocks:
        parts = work[start : start + matrix.shape[0]]
        start += matrix.shape[0]
        cols = max(1, _GEMM_MULTIPLY_ADDS // matrix.size)
        for c in range(0, a.size, cols):
            np.matmul(matrix, slice_kernel[rows, c : c + cols], out=parts[:, c : c + cols])
        count = matrix.shape[0] // 2
        out[bins].real = parts[:count].reshape((count,) + shape)
        out[bins].imag = parts[count:].reshape((count,) + shape)
    return _mirror_bins(out) if computed < N else out


def generalized_bessel(n_hat: int, lam, y, N: int) -> complex:
    """The generalized Bessel kernel J_{n_hat}(lam, y) on the N-rotation group.

    ``lam`` and ``y`` are :class:`SlicePoint` or plain ``(radius, angle)``
    pairs; passing raw pairs bypasses any slice-range expectations (the
    formula is well defined for every angle).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not 0 <= n_hat < N:
        raise DomainError(f"n_hat must lie in [0, {N}), got {n_hat}")
    xi, omega = _polar(lam)
    rho, alpha = _polar(y)
    return complex(_kernel_bins(np.float64(xi * rho), np.float64(alpha - omega), N)[n_hat])


@dataclass(frozen=True)
class FourierBesselBlocks:
    """The N Fourier-Bessel blocks for a (spatial, frequency) grid pair.

    ``blocks`` is one (N, P, Q) array; ``blocks[n_hat]`` is the P x Q matrix
    with entry (j, k) equal to the scalar kernel at (F.points[k], E.points[j]).
    For even N > 2, :func:`assemble_blocks` computes bins 0 ... N/2 and
    mirrors the rest, so ``blocks[N - n] == (-1)**n * blocks[n].conj()``
    holds bitwise for every n.
    """

    N: int
    blocks: np.ndarray
    spatial_grid: RotInvariantGrid
    frequency_grid: RotInvariantGrid

    @property
    def P(self) -> int:
        return self.blocks.shape[1]

    @property
    def Q(self) -> int:
        return self.blocks.shape[2]


def assemble_blocks(E: RotInvariantGrid, F: RotInvariantGrid) -> FourierBesselBlocks:
    """Assemble the N blocks of the discrete Fourier-Bessel operator on (E, F)."""
    if E.N != F.N:
        raise GridMismatch(f"spatial grid has N={E.N}, frequency grid has N={F.N}")
    N = E.N
    rho, alpha = E.slice_polar()
    xi, omega = F.slice_polar()
    products = rho[:, None] * xi[None, :]
    deltas = alpha[:, None] - omega[None, :]
    P, Q = products.shape
    blocks = np.empty((N, P, Q), dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // max(1, N * Q))
    for j in range(0, P, rows):
        _kernel_bins(products[j : j + rows], deltas[j : j + rows], N, out=blocks[:, j : j + rows])
    return FourierBesselBlocks(N, blocks, E, F)


def classical_bessel(n: int, x: float) -> float:
    """Classical Bessel function J_n(x) via trapezoidal quadrature.

    Uses the integral J_n(x) = (1/2pi) Re[(-i)^n * int_0^{2pi}
    e^{i(x cos g - n g)} dg], evaluated on 2^m uniform nodes with m doubled
    until two successive values agree to 1e-12.  Spectrally accurate because
    the integrand is smooth and periodic.
    """
    if abs(x) > 1e4:
        raise DomainError(f"|x| = {abs(x)} exceeds the quadrature validity range 1e4")
    prev = None
    # 2^6 nodes already resolve |x| ~ 10; large |x| needs ~|x| nodes.
    for m in range(6, 26):
        nodes = 1 << m
        g = TWO_PI * np.arange(nodes) / nodes
        val = float(np.real((-1j) ** (n % 4) * np.mean(np.exp(1j * (x * np.cos(g) - n * g)))))
        if prev is not None and abs(val - prev) < 1e-12:
            return val
        prev = val
    return prev


def kernel_limit_error(n_hat: int, product: float, delta: float, N: int) -> float:
    """Deviation of the 1/N-scaled kernel from its classical Bessel limit.

    Compares (1/N) * J_{n_hat}((product, 0), (1, delta), N) against
    i^n_hat * e^{i*n_hat*delta} * J_{n_hat}(product); the phase was pinned
    by substituting gamma = theta + delta in the Riemann sum.
    """
    scaled = generalized_bessel(n_hat, (product, 0.0), (1.0, delta), N) / N
    limit = (1j ** (n_hat % 4)) * np.exp(1j * n_hat * delta) * classical_bessel(n_hat, product)
    return abs(scaled - limit)
