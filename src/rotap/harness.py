"""Benchmarks and model checks for the factorized transform.

Timings are wall-clock medians from one loop, ``_median_times``, and one row
format, ``BenchRecord.row``, serves the CSV report and ``rotap bench``.  The
claimed costs are treated as scaling trends, not exact FLOP targets.  Every
timed fast-path configuration is validated against the dense oracle before
timing.
"""

from __future__ import annotations

import csv
import functools
import math
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
    conditions: tuple[float, ...]
    oracle_rel_error: float

    def row(self) -> list[str]:
        """The record's fields as strings, in ``BenchReport.CSV_COLUMNS`` order."""
        times = (self.t_naive, self.t_assemble, self.t_fast, self.t_prefactorize, self.t_solve)
        errors = (self.oracle_rel_error, min(self.conditions), max(self.conditions))
        return [
            *map(str, (self.N, self.P, self.Q)),
            *(f"{t:.6e}" for t in times),
            *(f"{e:.3e}" for e in errors),
            f"{self.t_naive / (self.t_assemble + self.t_fast):.1f}",
        ]


@dataclass
class BenchReport:
    records: list[BenchRecord] = field(default_factory=list)

    CSV_COLUMNS = (
        "N", "P", "Q", "t_naive", "t_assemble", "t_fast", "t_prefactorize", "t_solve",
        "oracle_rel_error", "cond_min", "cond_max", "speedup_with_assembly",
    )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_COLUMNS)
            w.writerows(r.row() for r in self.records)


# Untimed calls of each fast stage before it is timed.  At N=64, Q=128 on a
# 2-core machine ``evaluate_fast`` took 1.36, 1.07, 0.82, 0.62, 0.58 ... 0.41 ms
# over its first calls after a dense-oracle call, settling after about ten.
_WARMUP_CALLS = 10


def _median_times(fns: dict, repetitions: int, warmups: int) -> dict:
    """Median wall time of each callable in ``fns``, under the same keys, after ``warmups`` untimed calls of each.

    Each repetition times every callable in turn, so that drift in machine
    speed, which on a shared host reaches 2x within seconds, reaches all alike.
    """
    for fn in fns.values():
        for _ in range(warmups):
            fn()
    times = {key: [] for key in fns}
    for _ in range(repetitions):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    return {key: float(np.median(t)) for key, t in times.items()}


def square_bench_grids(N: int, Q: int):
    """An E = F pair of polar grids with P = Q points in the slice, radii from 1 to 1 + max(2, Q/2).

    The radial extent grows with Q: the per-bin kernel matrices only stay
    well-conditioned when the products xi*rho spread over a range
    proportional to the number of radial points being resolved.
    """
    radii = np.linspace(1.0, 1.0 + max(2.0, Q / 2), Q)
    E = build_polar_grid(1, radii, N, kind="spatial")
    F = build_polar_grid(1, radii, N, kind="frequency")
    return E, F


def bench_evaluate(N_list, Q_list, repetitions: int = 3, seed: int = 0) -> BenchReport:
    """Time naive vs fast evaluation, block assembly and prefactorize+solve on random data.

    ``t_fast`` is one evaluation with the blocks in hand; a fast path that
    starts from the grids costs ``t_assemble + t_fast``.  The untimed calls
    that build the inputs and check correctness warm every timed stage.
    Each stage is timed back to back with itself, the dense oracle last, so
    that no 0.4-5 s oracle call flushes the caches between the repetitions
    of a fast stage.  The fast stages warm up over their first few calls, so
    each first runs ``_WARMUP_CALLS`` times untimed; the oracle, at one call
    per repetition, does not.
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
            # Correctness precedes timing.
            ref = evaluate_naive(coeffs, E)
            fast = evaluate_fast(coeffs, blocks)
            rel = float(np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300))
            fact = prefactorize(blocks, "interpolation")
            interpolate(fast, fact)
            stages = {
                "t_assemble": functools.partial(assemble_blocks, E, F),
                "t_fast": functools.partial(evaluate_fast, coeffs, blocks),
                "t_prefactorize": functools.partial(prefactorize, blocks, "interpolation"),
                "t_solve": functools.partial(interpolate, fast, fact),
                "t_naive": functools.partial(evaluate_naive, coeffs, E),
            }
            times = {
                key: _median_times({key: fn}, repetitions, 0 if key == "t_naive" else _WARMUP_CALLS)[key]
                for key, fn in stages.items()
            }
            record = BenchRecord(N, Q, Q, **times, conditions=fact.conditions, oracle_rel_error=rel)
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
    return {Q: t / N for Q, t in _median_times(solves, repetitions, _WARMUP_CALLS).items()}


def optimal_N(grid_size: int) -> int:
    """The cost-minimizing number of rotations for a square polar grid of the given size."""
    if grid_size < 10:
        raise DomainError("grid_size must be >= 10")
    return max(1, round(math.sqrt(grid_size / 10)))

