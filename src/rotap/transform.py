"""Evaluation, interpolation and approximation of almost-periodic functions.

Coefficients live on an N x Q matrix: entry (m, k) multiplies the plane wave
of frequency R_{2*pi*m/N} lambda_k.  Samples live on N x P: entry (n, j) is
the function value at R_{2*pi*n/N} y_j.  The unitary DFT along the rotation
axis conjugates the evaluation operator into the block-diagonal stack of
Fourier-Bessel matrices, which is what makes the fast paths fast:

    fft(samples)[n_hat, :] = J_{n_hat} @ fft(coeffs)[n_hat, :]

Evaluation and both solves run that one round trip (:func:`_round_trip`)
through the blocks or through their prefactorized inverses, which numpy's
LAPACK alone computes.  The dense naive evaluation is kept as the
correctness oracle; it needs no common N.  Like the blocks, the oracle and
the translation refuse, with :class:`DomainError`, a largest radius (or |x|)
times the largest frequency that is not finite, whose phases would overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bessel import FourierBesselBlocks, _check_products, _Layout
from .errors import DomainError, GridMismatch, ParseError, TrivialStabilizer, WellPosednessError
from .grids import RotInvariantGrid, grid_from_dict, grid_to_dict, load_grid


def _on_grid(values, grid: RotInvariantGrid, name: str) -> np.ndarray:
    """``values`` as the complex (N, P) array of ``grid``'s full points, else GridMismatch on the ``name`` shape."""
    v = np.asarray(values, dtype=complex)
    expected = (grid.N, len(grid.points))
    if v.shape != expected:
        raise GridMismatch(f"{name} shape {v.shape} does not match grid shape {expected}")
    return v


@dataclass(frozen=True)
class ApCoefficients:
    """Frequency coefficients of an almost-periodic function."""

    values: np.ndarray
    frequency_grid: RotInvariantGrid

    def __post_init__(self):
        object.__setattr__(self, "values", _on_grid(self.values, self.frequency_grid, "coefficient"))


@dataclass(frozen=True)
class SampleArray:
    """Samples of a function on the full rotation-invariant spatial grid."""

    values: np.ndarray
    spatial_grid: RotInvariantGrid

    def __post_init__(self):
        object.__setattr__(self, "values", _on_grid(self.values, self.spatial_grid, "sample"))


# The largest weight whose square is finite.
_MAX_WEIGHT = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class Weights:
    """Nonnegative per-(DFT bin, frequency) regularization weights d(n_hat, k)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        # The normal matrix holds the squares, so an entry must square to a finite float.
        if v.ndim != 2 or not np.all((v >= 0) & (v <= _MAX_WEIGHT)):
            raise DomainError(f"weights must be an N x Q matrix with entries in [0, {_MAX_WEIGHT:.3e}]")
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, N: int, Q: int) -> "Weights":
        return cls(np.zeros((N, Q)))


def banded_weights(F: RotInvariantGrid, alpha: float) -> Weights:
    """The three-band radial weight scheme: alpha/10 up to radius 1, alpha up to 3/2, 100*alpha above."""
    radii = F.slice_polar()[0]
    row = np.where(radii <= 1, alpha / 10, np.where(radii <= 1.5, alpha, 100 * alpha))
    return Weights(np.tile(row, (F.N, 1)))


def dft_rotation_axis(values: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Unitary DFT along axis 0 (the rotation index); ``direction`` is "forward" or "inverse"."""
    values = np.asarray(values, dtype=complex)
    if direction == "forward":
        return np.fft.fft(values, axis=0, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(values, axis=0, norm="ortho")
    raise ValueError(f"unknown direction {direction!r}")


def evaluate_naive(coeffs: ApCoefficients, E: RotInvariantGrid) -> SampleArray:
    """Dense double-sum evaluation on the full grid; the oracle for the fast path.

    It sums over E's full points and F's full frequencies, so it takes any
    grid pair, also one whose two N differ, which the fast path refuses.
    """
    _check_products(E.slice_polar()[0].max(), coeffs.frequency_grid.slice_polar()[0].max())
    freqs = coeffs.frequency_grid.full_xy().reshape(-1, 2)  # (F.N*Q, 2)
    pts = E.full_xy()  # (E.N, P, 2)
    flat = coeffs.values.reshape(-1)
    out = np.empty((E.N, len(E.points)), dtype=complex)
    for n in range(E.N):
        phase = pts[n] @ freqs.T  # (P, F.N*Q)
        out[n] = np.exp(1j * phase) @ flat
    return SampleArray(out, E)


def evaluate_at_point(coeffs: ApCoefficients, x) -> complex:
    """Evaluate the almost-periodic function at an arbitrary planar point."""
    x = np.asarray(x, dtype=float)
    _check_products(np.hypot(*x), coeffs.frequency_grid.slice_polar()[0].max())
    freqs = coeffs.frequency_grid.full_xy().reshape(-1, 2)
    phase = freqs @ x
    return complex(np.exp(1j * phase) @ coeffs.values.reshape(-1))


def _round_trip(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """The factorized operator: DFT along the rotation axis, ``layout``'s per-bin product, inverse DFT."""
    return dft_rotation_axis(layout.apply(dft_rotation_axis(values, "forward")), "inverse")


def evaluate_fast(coeffs: ApCoefficients, blocks: FourierBesselBlocks) -> SampleArray:
    """Factorized evaluation: DFT, one P x Q block per bin, inverse DFT."""
    if not coeffs.frequency_grid.same_geometry(blocks.frequency_grid):
        raise GridMismatch("coefficient grid does not match the blocks' frequency grid")
    return SampleArray(_round_trip(coeffs.values, blocks.layout), blocks.spatial_grid)


@dataclass(frozen=True)
class BlockFactorization:
    """Prefactorized per-bin solver state.

    ``operators`` is a C-contiguous complex (N, Q, P) array:
    ``operators[n_hat]`` maps bin n_hat of the transformed samples to bin
    n_hat of the transformed coefficients, so every solve is one
    matrix-vector product per bin, O(Q^2) for interpolation and O(QP) for
    approximation.

    Interpolation mode stores J^-1 per bin and approximation mode
    (J* J + diag(d^2))^-1 J*.  ``conditions`` holds the exact kappa_1 of the
    matrix each mode inverts, ||M||_1 ||M^-1||_1 for M = J or
    M = J* J + diag(d^2), each bitwise as if its bin were factored alone.  When
    :func:`prefactorize` mirrors (see there),
    ``operators[N - n] == (-1)**n * operators[n].conj()`` and
    ``conditions[N - n] == conditions[n]`` hold bitwise for every n.

    ``stack`` is the one array stored: the complex (N, Q, P) operators, or,
    when :func:`prefactorize` ran on a real half-stack, the real
    (N/2+1, Q, P) stack T with operators[n] = i^-m * T[m],
    m = min(n, N-n), the conjugate of the blocks' phase.  ``operators`` is
    then built from it on each access.  ``layout`` reads the form; a stack of
    any other shape, or conditions for an N other than the grids', raises
    :class:`GridMismatch`.
    """

    mode: str  # "interpolation" | "approximation"
    spatial_grid: RotInvariantGrid
    frequency_grid: RotInvariantGrid
    stack: np.ndarray
    conditions: tuple[float, ...]
    layout: _Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = len(self.conditions)
        if not N == self.spatial_grid.N == self.frequency_grid.N:
            raise GridMismatch(f"{N} conditions on grids with N={self.spatial_grid.N} and {self.frequency_grid.N}")
        shape = (len(self.frequency_grid.points), len(self.spatial_grid.points))
        object.__setattr__(self, "layout", _Layout(self.stack, N, shape, -1))

    @property
    def operators(self) -> np.ndarray:
        return self.layout.full()


def prefactorize(blocks: FourierBesselBlocks, mode: str, weights: Weights | None = None) -> BlockFactorization:
    """Factor every Fourier-Bessel block once, enabling O(Q^2) per-bin solves.

    One routine serves both modes, one stacked ``np.linalg.inv`` per chunk
    of at most ``_FACTOR_BYTES`` of blocks: it inverts the matrices M the
    mode solves, the blocks J or the normal matrices J* J + diag(d^2),
    stores M^-1 or M^-1 J* and reports kappa_1 = ||M||_1 ||M^-1||_1, the
    condition of the matrix each mode inverts; each bin gets bitwise what a
    call on it alone gives.  Against one call per bin (2-core machine,
    alternated medians, interpolation / approximation) it took (1024, 16)
    from 11.4 / 15.5 to 5.0 / 5.7 ms and (4096, 4) from 25.5 / 39.7 to
    2.1 / 2.9 ms; N=64 stayed level.  Only numpy's LAPACK is used.

    Half the spectrum.  Blocks stored as a real half-stack S (axis grid
    pairs, see :class:`~rotap.bessel.FourierBesselBlocks`) are factored in
    real arithmetic over bins 0 ... N/2: J_n = i^m S_m gives
    J_n^-1 = i^-m S_m^-1 and, since J_n* J_n = S_m^T S_m,
    (J_n* J_n + diag(d^2))^-1 J_n* = i^-m (S_m^T S_m + diag(d^2))^-1 S_m^T,
    with the same condition numbers.  The operators are stored as the real
    half-stack of those matrices.  Assembled complex blocks of even N > 2
    have bins 0 ... N/2 factored too.  In approximation mode both need
    weights with ``d[N - n] == d[n]`` bitwise; other weights, odd N and
    hand-built complex stacks factor every bin of ``blocks.blocks``.  The
    blocks' layout decides (:meth:`~rotap.bessel._Layout.factor`) and writes
    the other bins as exact mirrors.

    Interpolation needs N*P distinct points, so a spatial grid that holds
    the origin (fixed by every rotation) raises
    :class:`~rotap.errors.TrivialStabilizer` for N > 1 before any factoring.
    Raises :class:`WellPosednessError` naming the first bin whose block (or
    normal matrix) LAPACK cannot invert, or whose condition number is not
    finite.  A finite condition, however large, is for the caller to judge.
    """
    N, P, Q = blocks.N, blocks.P, blocks.Q
    if mode == "interpolation":
        if P != Q:
            raise GridMismatch(f"interpolation requires P == Q, got P={P}, Q={Q}")
        if N > 1 and any(p.radius == 0 for p in blocks.spatial_grid.points):
            raise TrivialStabilizer(
                f"interpolation cannot use a spatial grid that holds the origin: all {N} rotations fix it, "
                f"leaving {N * (P - 1) + 1} distinct points for {N * Q} coefficients"
            )
    elif mode == "approximation":
        if P < Q:
            raise GridMismatch(f"approximation requires P >= Q, got P={P}, Q={Q}")
        d = (weights if weights is not None else Weights.zero(N, Q)).values
        if d.shape != (N, Q):
            raise GridMismatch(f"weights shape {d.shape} does not match (N, Q)=({N}, {Q})")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def factor_chunk(first: int, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
        if mode == "interpolation":
            matrices = stack
        else:
            adjoint = stack.conj().swapaxes(1, 2)
            matrices = adjoint @ stack
            np.einsum("nii->ni", matrices)[...] += d[first : first + len(stack)] ** 2  # in place: np.eye per bin was slower
        try:
            inverse = np.linalg.inv(matrices)
        except np.linalg.LinAlgError:
            for n, matrix in enumerate(matrices):  # bin by bin, only to name the first singular bin
                try:
                    np.linalg.inv(matrix)
                except np.linalg.LinAlgError as exc:
                    raise WellPosednessError(first + n) from exc
            raise
        out[:] = inverse if mode == "interpolation" else inverse @ adjoint
        # The 1-norm of a matrix is its largest absolute column sum.
        return np.abs(matrices).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)

    operators, conds = blocks.layout.factor(factor_chunk, (Q, P), None if mode == "interpolation" else d)
    bad = np.flatnonzero(~np.isfinite(conds))
    if bad.size:
        raise WellPosednessError(int(bad[0]), float(conds[bad[0]]))
    return BlockFactorization(mode, blocks.spatial_grid, blocks.frequency_grid, operators, tuple(conds.tolist()))


def _solve(samples: SampleArray, fact: BlockFactorization, mode: str) -> ApCoefficients:
    if fact.mode != mode:
        raise ValueError(f"factorization was not built in {mode} mode")
    if not samples.spatial_grid.same_geometry(fact.spatial_grid):
        raise GridMismatch("sample grid does not match the factorization's spatial grid")
    return ApCoefficients(_round_trip(samples.values, fact.layout), fact.frequency_grid)


def interpolate(samples: SampleArray, fact: BlockFactorization) -> ApCoefficients:
    """Solve the interpolation problem exactly: v_hat = J^-1 w_hat in every DFT bin."""
    return _solve(samples, fact, "interpolation")


def approximate(samples: SampleArray, fact: BlockFactorization) -> ApCoefficients:
    """Regularized least squares per bin: (J* J + diag(d^2)) v = J* w.

    The (N, P) sample layout repeats the origin N times, and so does the fit.
    """
    return _solve(samples, fact, "approximation")


def rotate_coefficients(coeffs: ApCoefficients, m: int) -> ApCoefficients:
    """Coefficient-space rotation by 2*pi*m/N: a circular shift along the rotation axis."""
    return ApCoefficients(np.roll(coeffs.values, m % coeffs.frequency_grid.N, axis=0), coeffs.frequency_grid)


def translate_coefficients(coeffs: ApCoefficients, xi) -> ApCoefficients:
    """Coefficient-space translation by xi: the per-frequency phase e^{-i<Lambda, xi>}."""
    xi = np.asarray(xi, dtype=float)
    _check_products(np.hypot(*xi), coeffs.frequency_grid.slice_polar()[0].max())
    freqs = coeffs.frequency_grid.full_xy()  # (N, Q, 2)
    phases = np.exp(-1j * (freqs @ xi))
    return ApCoefficients(phases * coeffs.values, coeffs.frequency_grid)


def approximation_objective(coeffs: ApCoefficients, samples: SampleArray, blocks: FourierBesselBlocks, weights: Weights) -> float:
    """The objective ||diag(d) fft(coeffs)||^2 + ||samples - ev(coeffs)||^2 minimized by approximate().

    The residual runs over the (N, P) layout, so it counts the origin N times.
    """
    chat = dft_rotation_axis(coeffs.values, "forward")
    penalty = float(np.sum((weights.values * np.abs(chat)) ** 2))
    resid = samples.values - evaluate_fast(coeffs, blocks).values
    return penalty + float(np.sum(np.abs(resid) ** 2))


# --- persistence: JSON header line + raw little-endian complex payload ---


def _save_array(path, values: np.ndarray, grid: RotInvariantGrid, grid_path=None) -> None:
    # grid_path is written as given; loading resolves a relative one against
    # the directory of ``path``.
    header = {
        "N": grid.N,
        "count": values.shape[1],
        "grid": str(grid_path) if grid_path is not None else grid_to_dict(grid),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def _load_array(path) -> tuple[np.ndarray, RotInvariantGrid]:
    with open(path, "rb") as fh:
        head = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header must be a JSON object")
    N, count = header.get("N"), header.get("count")
    for name, value in (("N", N), ("count", count)):
        if type(value) is not int or value < 0:
            raise ParseError(f"{path}: header {name} must be a non-negative integer, got {value!r}")
    grid_ref = header.get("grid")
    if isinstance(grid_ref, str):
        grid = load_grid(Path(path).parent / grid_ref)
    else:
        grid = grid_from_dict(grid_ref)
    expected = N * count * 16
    if len(payload) != expected:
        raise ParseError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<c16").reshape(N, count).astype(complex)
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: the payload holds a non-finite value")
    return values, grid


def save_coefficients(path, coeffs: ApCoefficients, grid_path=None) -> None:
    _save_array(path, coeffs.values, coeffs.frequency_grid, grid_path)


def load_coefficients(path) -> ApCoefficients:
    values, grid = _load_array(path)
    return ApCoefficients(values, grid)


def save_samples(path, samples: SampleArray, grid_path=None) -> None:
    _save_array(path, samples.values, samples.spatial_grid, grid_path)


def load_samples(path) -> SampleArray:
    values, grid = _load_array(path)
    return SampleArray(values, grid)
