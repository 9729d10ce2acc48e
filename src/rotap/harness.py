"""Benchmarks and model checks for the factorized transform.

Fast-stage timings are the median, min and max of one loop, ``_stage_times``;
the dense oracle is timed by the one call whose result validates the fast
path.  ``rotap bench`` reports the records as JSON, beside ``machine()``.
The claimed costs are treated as scaling trends, not exact FLOP targets.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bessel import assemble_blocks
from .errors import DomainError
from .grids import build_polar_grid
from .transform import ApCoefficients, evaluate_fast, evaluate_naive, interpolate, prefactorize


@dataclass
class BenchRecord:
    N: int
    P: int
    Q: int
    t_naive: float
    t_assemble: float
    t_fast: float
    t_prefactorize: float
    t_solve: float
    t_min: dict[str, float]  # the fastest and the slowest timed call of t_assemble ... t_solve, by name
    t_max: dict[str, float]
    r: float  # min(rho_min*xi_max, xi_min*rho_max) / (N/2); on the bench grids r <= 0.62 gave kappa_1 >= 2.6e8
    conditions: tuple[float, ...]
    oracle_rel_error: float


@dataclass
class BenchReport:
    records: list[BenchRecord] = field(default_factory=list)


# Untimed calls of each fast stage before it is timed.  At N=64, Q=128 on a
# 2-core machine ``evaluate_fast`` took 1.36, 1.07, 0.82, 0.62, 0.58 ... 0.41 ms
# over its first calls after a dense-oracle call, settling after about ten.
_WARMUP_CALLS = 10


def _stage_times(fns: dict, repetitions: int) -> dict:
    """The wall times of each callable in ``fns``, under the same keys, after ``_WARMUP_CALLS`` untimed calls of each.

    Each repetition times every callable in turn, so that drift in machine
    speed, which on a shared host reaches 2x within seconds, reaches all alike.
    """
    for fn in fns.values():
        for _ in range(_WARMUP_CALLS):
            fn()
    times = {key: [] for key in fns}
    for _ in range(repetitions):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    return times


def square_bench_grids(N: int, Q: int):
    """An E = F pair of polar grids with P = Q points in the slice, radii from 1 to 1 + max(2, Q/2).

    The radial extent grows with Q, so that the products xi*rho spread over a
    range proportional to the number of radial points resolved.  It does not
    grow with N: at Q >= 4, r = (1 + Q/2)/(N/2) < 1 once N > Q + 2, and the
    outer bins are then near singular (max kappa_1 5.8e17-4.1e19 at Q = 16).
    """
    Q = max(Q, 0)  # a Q below 1 gives no radius, which build_polar_grid refuses
    if Q * Q * np.dtype(complex).itemsize > sys.maxsize:
        raise DomainError(f"Q = {Q}: a Q x Q block of complex entries cannot be addressed")
    radii = np.linspace(1.0, 1.0 + max(2.0, Q / 2), Q)
    E = build_polar_grid(1, radii, N, kind="spatial")
    F = build_polar_grid(1, radii, N, kind="frequency")
    return E, F


def bench_evaluate(N_list, Q_list, repetitions: int = 3, seed: int = 0) -> BenchReport:
    """Time naive vs fast evaluation, block assembly and prefactorize+solve on random data.

    ``t_fast`` is one evaluation with the blocks in hand; a fast path that
    starts from the grids costs ``t_assemble + t_fast``.  ``t_naive`` is the
    time of the one dense-oracle call, whose result checks the fast path;
    at 0.4-5 s a call, more would only repeat that check.  Every other stage
    is then timed back to back with itself after ``_WARMUP_CALLS`` untimed
    calls, since the fast stages warm up over their first few calls.
    """
    if repetitions < 3:
        raise DomainError("repetitions must be >= 3")
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for N in N_list:
        for Q in Q_list:
            E, F = square_bench_grids(N, Q)
            blocks = assemble_blocks(E, F)
            coeffs = ApCoefficients(rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q)), F)
            # The timed oracle call checks the fast path before the fast stages are timed.
            t0 = time.perf_counter()
            ref = evaluate_naive(coeffs, E)
            t_naive = time.perf_counter() - t0
            fast = evaluate_fast(coeffs, blocks)
            rel = float(np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300))
            fact = prefactorize(blocks, "interpolation")
            stages = {
                "t_assemble": functools.partial(assemble_blocks, E, F),
                "t_fast": functools.partial(evaluate_fast, coeffs, blocks),
                "t_prefactorize": functools.partial(prefactorize, blocks, "interpolation"),
                "t_solve": functools.partial(interpolate, fast, fact),
            }
            times = {key: _stage_times({key: fn}, repetitions)[key] for key, fn in stages.items()}
            (rho, _), (xi, _) = E.slice_polar(), F.slice_polar()
            record = BenchRecord(
                N, Q, Q, t_naive, **{key: float(np.median(t)) for key, t in times.items()},
                t_min={key: min(t) for key, t in times.items()}, t_max={key: max(t) for key, t in times.items()},
                r=float(min(rho.min() * xi.max(), xi.min() * rho.max()) / (N / 2)),
                conditions=fact.conditions, oracle_rel_error=rel,
            )
            report.records.append(record)
    return report


def bench_solve_scaling(N: int, Q_list, repetitions: int = 200, seed: int = 0) -> dict[int, float]:
    """Median per-bin time of the production interpolation product, for each Q.

    After prefactorization, times the product that ``interpolate`` makes
    between its two DFTs, ``np.matmul(stack, columns)`` over all N bins at
    once, and divides by N.  On the bench grids, which are axis grids, that
    is one real stacked matmul of the (N/2+1, Q, Q) operator half-stack with
    4 real columns per bin; laying out the columns and putting the products
    back in bin order are O(N*Q) steps, like the DFTs, and are not timed.
    """
    rng = np.random.default_rng(seed)
    solves = {}
    for Q in Q_list:
        E, F = square_bench_grids(N, Q)
        layout = prefactorize(assemble_blocks(E, F), "interpolation").layout
        rhs = rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q))
        solves[Q] = functools.partial(np.matmul, layout.stack, layout.columns(rhs))
    return {Q: float(np.median(t)) / N for Q, t in _stage_times(solves, repetitions).items()}


def machine() -> dict:
    """The cores this process may run on and numpy's OpenBLAS thread count, None where that library is not found."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "libscipy_openblas64_" in line)
        threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
    except (OSError, StopIteration, AttributeError):
        threads = None
    return {"nproc": nproc, "openblas_threads": threads}


def optimal_N(grid_size: int) -> int:
    """round(sqrt(G/10)), the N minimizing G^2/N + 10*G*N for G grid points; it ignores conditioning (README)."""
    if grid_size < 10:
        raise DomainError("grid_size must be >= 10")
    return max(1, round(math.sqrt(grid_size / 10)))

