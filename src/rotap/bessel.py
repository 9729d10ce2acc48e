"""Generalized Bessel kernels for the semidiscrete rototranslation group.

The scalar kernel of parameter n_hat is the N-term character-weighted sum

    J_{n_hat}(lambda, y) = sum_{r=0}^{N-1} exp(i*xi*rho*cos(alpha-omega+2*pi*r/N))
                                           * exp(-2i*pi*n_hat*r/N)

with lambda = xi*e^{i*omega} a frequency and y = rho*e^{i*alpha} a spatial
point.  It depends on (lambda, y) only through the product xi*rho and the
angle difference alpha-omega.  The sum over r is a DFT: bin n_hat of the
length-N DFT over r of the slice kernel exp(i*xi*rho*cos(alpha-omega+2*pi*r/N)).
Stacking the cos and sin of the slice kernel's phases over a spatial slice E
and a frequency slice F and taking their DFT over r (GEMMs with real tables
for even N > 2 and axis pairs, an FFT otherwise) gives all N P x Q blocks at
once.  Most of the remaining cost is the cos and sin of the phases; both
come from one vectorized tan by the half-angle identity (:func:`_sincos`),
since numpy computes float64 tan with SIMD but cos and sin one element at a
time.  On an axis grid pair (N even, every slice angle 0) block n is i^m
times a real matrix, m = min(n, N-n), and only those N/2+1 real matrices are
stored.
Assembly decides this form and the mirroring of bins once; the layout keeps it.

The classical Bessel function J_n is provided as an independent quadrature
oracle: as N grows, the kernel scaled by 1/N converges to
i^n_hat * e^{i*n_hat*(alpha-omega)} * J_{n_hat}(xi*rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatch
from .grids import RotInvariantGrid, TWO_PI


# Entries of the slice kernel built per chunk of block rows: large enough to
# amortize the per-call cost of the numpy passes and GEMMs, small enough that
# the chunk's temporaries stay near 2 MB beside the (N, P, Q) output (256 kB on
# the axis path, which writes its bins into the output).  On a 2-core machine
# 1 << 16 assembled N=64, Q=128 in 2.9 ms against 3.5 ms at 1 << 15; 1 << 17
# lifts the peak beyond 1.1 times the stack.  The chunk also sets where GEMM
# column blocks end, and OpenBLAS rounds the columns of a block's last partial
# tile differently, so another size moves some entries by an ulp.
_CHUNK_ENTRIES = 1 << 16

# Multiply-adds per GEMM call of the kernel's DFT, small enough that
# OpenBLAS runs each call on one thread.  On a 2-core machine its two-thread
# split was slower (64 x 64 x 250: 54 us, against 36 us for 64 x 64 x 200 on
# one thread) and at times stalled near 15 ms per call.
_GEMM_MULTIPLY_ADDS = 1 << 19
# Columns per GEMM call below which a DFT table is split into bands of rows.
_GEMM_COLUMNS = 32

# Bytes of blocks per stacked LAPACK call in _Layout.factor.  On a 2-core machine
# interpolation at N=64, Q=64 / 128 took 4.8 / 21 ms in chunks of 1 << 18, 5.5 / 26 ms
# in one call over all 33 bins; 1 << 16 ... 1 << 19 were level, as was every N at Q <= 16.
_FACTOR_BYTES = 1 << 18

# DFT tables kept per (N, axis), all for even N: about 4*N^2 bytes for a
# mirrored pair and N^2 for an axis pair (4.2 MB and 1.1 MB at N=1024), so a
# process that runs over many N keeps only the last few.
_CACHED_TABLES = 8


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


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _dft_blocks(N: int, axis: bool = False) -> tuple[tuple[slice, np.ndarray], ...]:
    """The DFT over r of even N as real matrices: (rows, matrix) pairs, one GEMM each.

    ``matrix`` maps rows ``rows`` of the slice kernel's [cos; sin] array to
    one part of the bins, which :func:`_kernel_bins` writes out.  There are
    two tables; w = exp(-2*pi*i/N).  Every other N takes an FFT instead.

    - ``axis`` (even N, every angle difference 0): the phases of rotations
      r and N/2 - r are negatives of each other, so the rows hold rotations
      0 ... N/4 only.  The matrices give the real half-stack
      S_n = i^-n * J_n of bins 0 ... N/2, even n from the cos rows and odd
      n from the sin rows, each row weighted by the rotations it stands for.
    - even N > 2: the rows hold the first N/2 rotations, and
      A[r + N/2] = conj(A[r]) makes bin n of 0 ... N/2
      2*sum_r Re A[r] w^{nr} for even n and 2i*sum_r Im A[r] w^{nr} for odd
      n: one block from the cos rows, one from the sin rows, each giving
      [Re; Im] of its bins.
    """

    def twiddles(bins: np.ndarray, rotations: int) -> tuple[np.ndarray, np.ndarray]:
        angles = TWO_PI * ((bins[:, None] * np.arange(rotations)) % N) / N
        return np.cos(angles), np.sin(angles)

    half = N // 2
    if axis:
        # Rotation r stands for r, N/2 - r, N/2 + r and N - r; at r = 0 and
        # r = N/4 only two of them differ.
        rotations = N // 4 + 1
        weight = np.full(rotations, 4.0)
        weight[0] = 2
        if half % 2 == 0:
            weight[-1] = 2
        even, odd = np.arange(0, half + 1, 2), np.arange(1, half + 1, 2)
        signs_even, signs_odd = (-1.0) ** (even[:, None] // 2), (-1.0) ** (odd[:, None] // 2)
        blocks = (
            (slice(0, rotations), signs_even * weight * twiddles(even, rotations)[0]),
            (slice(rotations, 2 * rotations), signs_odd * weight * twiddles(odd, rotations)[0]),
        )
    else:
        c_even, s_even = twiddles(np.arange(0, half + 1, 2), half)
        c_odd, s_odd = twiddles(np.arange(1, half + 1, 2), half)
        blocks = (
            (slice(0, half), 2 * np.vstack([c_even, -s_even])),
            (slice(half, N), 2 * np.vstack([s_odd, c_odd])),
        )
    for _, matrix in blocks:
        matrix.flags.writeable = False
    return blocks


def _sincos(phase: np.ndarray, cos_out: np.ndarray) -> None:
    """Overwrite ``phase`` with its sines and ``cos_out`` with its cosines, by the half-angle identity.

    With t = tan(phase/2) and s = 1 + t^2, sin = 2t/s and cos = 2/s - 1.
    numpy computes float64 ``tan`` with SIMD where the CPU allows, but ``cos``
    and ``sin`` one element at a time: on a 2-core AVX-512 machine these
    seven passes took 1.9 ms for 278,528 phases, against 13-16 ms for
    ``np.cos`` and ``np.sin``, within 3.3e-16 of them on [0, 4.3e3].  The
    passes run in place, so no temporary is allocated.  |t| stays below
    about 1e19 for every finite double, so s never overflows.
    """
    np.multiply(phase, 0.5, out=phase)
    np.tan(phase, out=phase)
    np.multiply(phase, phase, out=cos_out)
    np.add(cos_out, 1, out=cos_out)
    np.divide(2, cos_out, out=cos_out)
    np.multiply(phase, cos_out, out=phase)
    np.subtract(cos_out, 1, out=cos_out)


def _kernel_bins(products: np.ndarray, deltas: np.ndarray | None, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """All N kernel bins of every entry: the DFT over r of the slice kernel.

    ``products`` holds xi*rho, ``deltas`` holds alpha-omega; they broadcast to
    a shape S and the result has shape (N,) + S, bin n_hat at index n_hat.
    Both the scalar kernel and the block assembly go through this routine.
    ``deltas=None`` stands for every angle difference 0 on even N (an axis
    grid pair, see :func:`assemble_blocks`); the result is then the real
    (N/2+1,) + S half-stack S with J_n = i^m * S_m, m = min(n, N-n).

    The phase xi*rho*cos(delta + 2*pi*r/N) comes by angle addition from
    xi*rho*cos(delta) and xi*rho*sin(delta), so each entry takes two trig
    calls beside the cos and sin of its phases.  Those are the cost that
    remains, and :func:`_sincos` takes them from one vectorized ``tan`` by
    the half-angle identity.  They fill one real (2*computed, S) array.  On
    the axis and mirrored paths the cached matrices of :func:`_dft_blocks`
    map it to the bins in GEMM calls of at most ``_GEMM_MULTIPLY_ADDS``
    multiply-adds each: blocks of columns, and bands of the matrix's rows
    where it is too large for ``_GEMM_COLUMNS`` columns.  The axis path's
    GEMMs write the real half-stack into ``out``; the mirrored path writes
    real parts to a temporary and combines them into ``out``.

    For even N > 2 the group holds the rotation by pi, and cos(t + pi) =
    -cos(t) gives the slice kernel A[r + N/2] = conj(A[r]).  So only the
    first N/2 rotations are computed, and the bins obey
    J_{N-n} = (-1)^n conj(J_n), the discrete J_{-n} = (-1)^n J_n: the GEMMs
    give bins 0 ... N/2 and bins N/2+1 ... N-1 are written as exact mirrors.
    With delta = 0 the phases of r and N/2 - r are also negatives of each
    other, so N/4 + 1 rotations suffice and every S_m is real.  Every other
    N (odd, or 2 off the axis) computes all N rotations and takes numpy's FFT
    over r in place in ``out``, with no table: 1.3-1.8x the time of a table
    GEMM at prime N from 13 to 61, about a 25th of it at N = 4095.
    """
    axis = deltas is None
    half = N // 2
    fft = not (axis or _has_mirror(N))
    computed = N if fft else N // 4 + 1 if axis else half
    blocks = () if fft else _dft_blocks(N, axis)
    steps = TWO_PI * np.arange(computed)[:, None] / N
    if axis:
        shape, size = products.shape, products.size
    else:
        a = products * np.cos(deltas)
        b = products * np.sin(deltas)
        shape, size = a.shape, a.size
    # One temporary per call: the slice kernel's cos and sin rows, then the
    # bins of the mirrored path.  As separate arrays they took fresh pages in
    # every chunk, and the first assemblies of a process ran about 40% slower
    # than later ones.  The other paths write their bins straight into ``out``.
    work = np.empty((2 * computed + (0 if axis else sum(len(m) for _, m in blocks)), size))
    slice_kernel = work[: 2 * computed]
    cos_rows, sin_rows = slice_kernel[:computed], slice_kernel[computed:]
    if axis:
        phase = np.multiply(np.cos(steps), products.reshape(1, -1), out=sin_rows)
    else:
        np.multiply(a.reshape(-1), np.cos(steps), out=cos_rows)
        np.multiply(b.reshape(-1), np.sin(steps), out=sin_rows)
        phase = np.subtract(cos_rows, sin_rows, out=sin_rows)
    _sincos(phase, cos_rows)
    if out is None:
        out = np.empty((half + 1,) + shape) if axis else np.empty((N,) + shape, dtype=complex)
    if fft:  # Assigning the shape raises where a view cannot be had; reshape would copy.
        bins = out[:]
        bins.shape = (N, size)
        bins.real = cos_rows
        bins.imag = sin_rows
        np.fft.fft(bins, axis=0, out=bins)
        return out
    results = []
    start = 2 * computed
    for parity, (rows, matrix) in enumerate(blocks):
        if axis:
            # Bins parity, parity + 2, ... of ``out`` as one (bins, entries) matrix
            # that BLAS writes in place: within a bin the entries are contiguous.
            # Assigning the shape raises where a view cannot be had; reshape would copy.
            parts = out[parity : half + 1 : 2]
            parts.shape = (len(matrix), size)
        else:
            parts = work[start : start + len(matrix)]
            start += len(matrix)
            results.append(parts.reshape((-1,) + shape))
        # Each call stays under the cap.  A table too large for _GEMM_COLUMNS
        # columns in one call is split into bands of rows, not into narrower
        # column blocks, which at one column are matrix-vector products.
        band = min(len(matrix), max(1, _GEMM_MULTIPLY_ADDS // (_GEMM_COLUMNS * matrix.shape[1])))
        cols = max(1, _GEMM_MULTIPLY_ADDS // (band * matrix.shape[1]))
        for b in range(0, len(matrix), band):
            for c in range(0, size, cols):
                np.matmul(
                    matrix[b : b + band], slice_kernel[rows, c : c + cols], out=parts[b : b + band, c : c + cols]
                )
    if axis:
        return out
    for parity, parts in enumerate(results):
        bins = out[parity : half + 1 : 2]
        count = len(parts) // 2
        bins.real = parts[:count]
        bins.imag = parts[count:]
    return _mirror_bins(out)


def _check_products(rho: float, xi: float) -> None:
    """Raise DomainError unless xi*rho is finite: the largest spatial radius (or |x|) times the largest frequency.

    The product bounds every phase of the kernel, xi*rho*cos(...), and of the
    plane waves, <x, lambda>; beyond it they overflow and every value is NaN.
    The two are multiplied as Python floats, which overflow to inf without
    the RuntimeWarning of numpy's.
    """
    largest = float(rho) * float(xi)
    if not math.isfinite(largest):
        raise DomainError(f"the largest product xi*rho = {largest} of the radii is not finite")


def generalized_bessel(n_hat: int, lam, y, N: int) -> complex:
    """The generalized Bessel kernel J_{n_hat}(lam, y) on the N-rotation group.

    ``lam`` and ``y`` are ``(radius, angle)`` pairs, a :class:`SlicePoint`
    being one; the angles need not lie in a slice, since the formula is well
    defined for every angle.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not 0 <= n_hat < N:
        raise DomainError(f"n_hat must lie in [0, {N}), got {n_hat}")
    xi, omega = map(float, lam)
    rho, alpha = map(float, y)
    _check_products(rho, xi)
    return complex(_kernel_bins(np.float64(xi * rho), np.float64(alpha - omega), N)[n_hat])


class _Layout:
    """How a stack stores its N DFT bins; the one place that reads it.

    A complex (N, rows, cols) stack holds every bin; a real (N/2+1, rows, cols)
    half-stack S, N even, holds bin n as i^(sign*m) * S[m], m = min(n, N-n),
    with ``sign`` 1 for blocks and -1 for the operators that invert them.
    Both forms share one stacked product, ``np.matmul(stack, columns(x))``.
    ``mirrored``: bin N-n is (-1)^n conj(bin n).  A half-stack is so by its
    form, a complex stack when its builder says so (:func:`assemble_blocks`).
    """

    def __init__(self, stack: np.ndarray, N: int, shape: tuple[int, int], sign: int = 1, mirrored: bool = False):
        self.stack, self.N = stack, N
        self.half = not np.iscomplexobj(stack)
        self.mirrored = self.half or mirrored
        if stack.shape != (N // 2 + 1 if self.half else N, *shape) or self.half and N % 2:
            real = "" if N % 2 else f" or real {(N // 2 + 1, *shape)}"
            raise GridMismatch(f"{stack.dtype} stack of shape {stack.shape} is not complex {(N, *shape)}{real}")
        n = np.arange(N)
        self.phases = np.array([1, 1j, -1, -1j])[(sign * np.minimum(n, N - n)) % 4]  # i^(sign*m) per bin n

    def columns(self, x: np.ndarray) -> np.ndarray:
        """The (N, k) bins x of a forward DFT as the right-hand sides of the stacked product.

        The complex stack takes one column per bin.  The half-stack serves
        bins m and N-m with one matrix, so its row m holds x[m] and x[N-m] side
        by side as 4 real columns, built from slices: fancy-index gathers were
        no faster.  Row 0 has no partner and its second pair is 0; row N/2
        holds x[N/2] twice.
        """
        if not self.half:
            return x[..., None]
        h = len(self.stack)
        pairs = np.empty((h, x.shape[1], 2), dtype=complex)
        pairs[:, :, 0] = x[:h]
        pairs[0, :, 1] = 0
        pairs[1:, :, 1] = x[: -h : -1]
        return pairs.view(float)

    def _in_order(self, pairs: np.ndarray) -> np.ndarray:
        """The N bins of a half-stack's results: bin m <= N/2 is i^(sign*m) * pairs[m, ..., 0], bin N-m i^(sign*m) * pairs[m, ..., -1]."""
        h = len(pairs)
        phases = self.phases.reshape((-1,) + (1,) * (pairs.ndim - 2))
        out = np.empty((self.N,) + pairs.shape[1:-1], dtype=complex)
        np.multiply(pairs[..., 0], phases[:h], out=out[:h])
        np.multiply(pairs[h - 2 : 0 : -1, ..., -1], phases[h:], out=out[h:])
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Every bin's matrix times its bin of x, in one stacked product: row n is bin n's matrix @ x[n].

        Median time per call at N=64 on a 2-core machine, Q = 32 / 64 / 128,
        on the interpolation operators of the bench grids: this method on the
        real half-stack 0.017 / 0.038 / 0.19 ms, its real matmul alone
        0.0078 / 0.022 / 0.16 ms; on the complex (N, Q, P) operators one
        stacked matmul 0.017 / 0.12 / 0.32 ms, a Python loop of N matvecs
        0.071 / 0.19 / 0.40 ms and np.einsum, which runs its own loop without
        BLAS, 0.063 / 0.25 / 0.97 ms.  At Q=128 a complex half-stack with a
        2-column product (0.58 against 0.32 ms) and the complex stack through
        an interleaved real view (0.52 against 0.30 ms) were slower.
        """
        products = np.matmul(self.stack, self.columns(x))
        return self._in_order(products.view(complex)) if self.half else products[..., 0]

    def full(self) -> np.ndarray:
        """The complex (N, rows, cols) stack; from a half-stack it obeys stack[N-n] == (-1)^n conj(stack[n]) bitwise.

        Bins N/2+1 ... N-1 then take the matrices of bins N/2-1 ... 1.
        """
        return self._in_order(self.stack[..., None]) if self.half else self.stack

    def factor(self, factor_chunk, shape: tuple[int, int], d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """A stack of this form with one ``shape`` matrix per bin, and one value per bin.

        ``factor_chunk(first_bin, matrices, out)`` writes the matrices of bins
        first_bin, first_bin + 1, ... to ``out`` and returns their values; it
        takes at most ``_FACTOR_BYTES`` of blocks a call, in bin order.  A
        mirrored layout with per-bin data ``d`` (if any) that obey
        d[N-n] == d[n] bitwise factors bins 0 ... N/2 in its own form and
        writes the rest as exact mirrors; every other input (odd N, a
        hand-built complex stack, unmirrored ``d``) factors all N complex bins.
        """
        N = self.N
        mirrored = self.mirrored and (d is None or np.array_equal(d[1:], d[:0:-1]))
        half = self.half and mirrored
        stack = self.stack if half else self.full()
        bins = N // 2 + 1 if mirrored else N
        out = np.empty((len(stack), *shape), dtype=float if half else complex)
        step = max(1, _FACTOR_BYTES // max(1, stack[0].nbytes))  # bins per chunk; the last one stops at bins
        values = np.concatenate([factor_chunk(n, stack[n:bins][:step], out[n:bins][:step]) for n in range(0, bins, step)])
        if bins < N:
            if not half:
                _mirror_bins(out)
            values = np.concatenate((values, values[-2:0:-1]))
        return out, values


@dataclass(frozen=True)
class FourierBesselBlocks:
    """The N Fourier-Bessel blocks for a (spatial, frequency) grid pair.

    ``blocks`` is one complex (N, P, Q) array; ``blocks[n_hat]`` is the P x Q
    matrix with entry (j, k) equal to the scalar kernel at (F.points[k],
    E.points[j]).  For even N > 2, ``blocks[N - n] == (-1)**n *
    blocks[n].conj()`` holds bitwise for every n.

    ``stack`` is the one array stored.  :func:`assemble_blocks` stores, on an
    axis grid pair (N even and every slice angle of E and F 0), the real
    (N/2+1, P, Q) half-stack S with J_n = i^m * S[m], m = min(n, N-n), a
    quarter of the complex stack's bytes; ``blocks`` is then built from it
    on each access.  On every other pair it stores the complex (N, P, Q)
    stack, computing bins 0 ... N/2 for even N > 2 and mirroring the rest,
    and ``blocks`` is that array.  ``layout`` reads the form and records
    whether the bins are mirrored, which assembly decides once.  A stack
    built by hand is read by its dtype: complex is the full stack, with
    every bin factored, float the half-stack; any other shape, or an N other
    than the grids', raises :class:`~rotap.errors.GridMismatch`.
    """

    N: int
    stack: np.ndarray
    spatial_grid: RotInvariantGrid
    frequency_grid: RotInvariantGrid
    layout: _Layout = field(init=False, repr=False, compare=False)
    _mirrored: bool = field(default=False, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if not self.N == self.spatial_grid.N == self.frequency_grid.N:
            raise GridMismatch(f"blocks for N={self.N} on grids with N={self.spatial_grid.N} and {self.frequency_grid.N}")
        shape = (len(self.spatial_grid.points), len(self.frequency_grid.points))
        object.__setattr__(self, "layout", _Layout(self.stack, self.N, shape, mirrored=self._mirrored))

    @property
    def blocks(self) -> np.ndarray:
        return self.layout.full()

    @property
    def P(self) -> int:
        return self.stack.shape[1]

    @property
    def Q(self) -> int:
        return self.stack.shape[2]


def assemble_blocks(E: RotInvariantGrid, F: RotInvariantGrid) -> FourierBesselBlocks:
    """Assemble the N blocks of the discrete Fourier-Bessel operator on (E, F).

    Axis grid pairs get the real half-stack, every other pair the complex
    stack, marked mirrored for even N > 2 (see :class:`FourierBesselBlocks`).
    An axis pair is closed under y -> -y, so J_{N-n} = J_n, which with
    J_{N-n} = (-1)^n conj(J_n) makes S_n = i^-n * J_n real (DLMF 10.12).  Raises
    :class:`~rotap.errors.DomainError` when the largest product xi*rho of the
    radii is not finite (:func:`_check_products`).
    """
    if E.N != F.N:
        raise GridMismatch(f"spatial grid has N={E.N}, frequency grid has N={F.N}")
    N = E.N
    rho, alpha = E.slice_polar()
    xi, omega = F.slice_polar()
    P, Q = len(rho), len(xi)
    _check_products(rho.max(initial=0), xi.max(initial=0))
    axis = N % 2 == 0 and not (alpha.any() or omega.any())
    stack = np.empty((N // 2 + 1, P, Q)) if axis else np.empty((N, P, Q), dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // max(1, N * Q))
    for j in range(0, P, rows):
        products = rho[j : j + rows, None] * xi[None, :]
        deltas = None if axis else alpha[j : j + rows, None] - omega[None, :]
        _kernel_bins(products, deltas, N, out=stack[:, j : j + rows])
    return FourierBesselBlocks(N, stack, E, F, _mirrored=_has_mirror(N))


def classical_bessel(n: int, x: float) -> float:
    """Classical Bessel function J_n(x) via trapezoidal quadrature.

    Uses the integral J_n(x) = (1/2pi) Re[(-i)^n * int_0^{2pi}
    e^{i(x cos g - n g)} dg], evaluated on 2^m uniform nodes, the count
    doubled until two successive values agree to 1e-12.  Spectrally accurate
    because the integrand is smooth and periodic: 2^m nodes return J_n plus
    the aliases J_{n +- k 2^m}, negligible once 2^m exceeds 2(|n| + |x|),
    where the count starts.  Fewer nodes can alias the order away: while 2^m
    divides n, each count returns J_0(x), and the agreement test accepts it.
    """
    if not abs(x) <= 1e4:  # NaN too, which would double the nodes to 2^25 and return NaN
        raise DomainError(f"|x| = {abs(x)} lies outside the quadrature validity range [0, 1e4]")
    if not abs(n) <= 1e4:
        raise DomainError(f"|n| = {abs(n)} lies outside the quadrature validity range [0, 1e4]")
    prev = None
    for m in range(max(6, int(2 * (abs(n) + abs(x))).bit_length()), 26):
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
