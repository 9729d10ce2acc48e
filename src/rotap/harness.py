"""Benchmarks and model checks for the factorized transform.

Timings are wall-clock medians after an untimed first call; the claimed costs
are treated as scaling trends, not exact FLOP targets.  Every timed fast-path
configuration is validated against the dense oracle before timing.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bessel import FourierBesselBlocks, assemble_blocks
from .errors import DomainError
from .grids import build_polar_grid
from .transform import (
    ApCoefficients,
    _solve_bins,
    evaluate_fast,
    evaluate_naive,
    interpolate,
    prefactorize,
)


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


@dataclass
class BenchReport:
    records: list[BenchRecord] = field(default_factory=list)

    CSV_COLUMNS = (
        "N",
        "P",
        "Q",
        "t_naive",
        "t_assemble",
        "t_fast",
        "t_prefactorize",
        "t_solve",
        "oracle_rel_error",
        "cond_min",
        "cond_max",
    )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_COLUMNS)
            for r in self.records:
                w.writerow(
                    [
                        r.N,
                        r.P,
                        r.Q,
                        f"{r.t_naive:.6e}",
                        f"{r.t_assemble:.6e}",
                        f"{r.t_fast:.6e}",
                        f"{r.t_prefactorize:.6e}",
                        f"{r.t_solve:.6e}",
                        f"{r.oracle_rel_error:.3e}",
                        f"{min(r.conditions):.3e}",
                        f"{max(r.conditions):.3e}",
                    ]
                )


def _median_time(fn, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def square_bench_grids(N: int, Q: int, lo: float = 1.0, hi: float | None = None):
    """An E = F pair of polar grids with P = Q points in the slice.

    The default radial extent grows with Q: the per-bin kernel matrices only
    stay well-conditioned when the products xi*rho spread over a range
    proportional to the number of radial points being resolved.
    """
    if hi is None:
        hi = lo + max(2.0, Q / 2)
    radii = np.linspace(lo, hi, Q)
    E = build_polar_grid(1, radii, N, kind="spatial")
    F = build_polar_grid(1, radii, N, kind="frequency")
    return E, F


def bench_evaluate(N_list, Q_list, repetitions: int = 3, seed: int = 0) -> BenchReport:
    """Time naive vs fast evaluation, block assembly and prefactorize+solve on random data.

    ``t_fast`` is one evaluation with the blocks in hand; a fast path that
    starts from the grids costs ``t_assemble + t_fast``.  The untimed calls
    that build the inputs and check correctness warm every timed stage.
    """
    if repetitions < 3:
        raise DomainError("repetitions must be >= 3")
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for N in N_list:
        for Q in Q_list:
            E, F = square_bench_grids(N, Q)
            blocks = assemble_blocks(E, F)
            coeffs = ApCoefficients(
                rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q)), F
            )
            # Correctness precedes timing.
            ref = evaluate_naive(coeffs, E)
            fast = evaluate_fast(coeffs, blocks)
            rel = float(
                np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300)
            )
            fact = prefactorize(blocks, "interpolation")
            interpolate(fast, fact)
            t_naive = _median_time(lambda: evaluate_naive(coeffs, E), repetitions)
            t_assemble = _median_time(lambda: assemble_blocks(E, F), repetitions)
            t_fast = _median_time(lambda: evaluate_fast(coeffs, blocks), repetitions)
            t_pref = _median_time(lambda: prefactorize(blocks, "interpolation"), repetitions)
            t_solve = _median_time(lambda: interpolate(fast, fact), repetitions)
            report.records.append(
                BenchRecord(N, Q, Q, t_naive, t_assemble, t_fast, t_pref, t_solve, fact.conditions, rel)
            )
    return report


def bench_solve_scaling(N: int, Q_list, repetitions: int = 200, seed: int = 0) -> dict[int, float]:
    """Median per-bin time of the production interpolation solve stage, for each Q.

    After prefactorization, times the call that ``interpolate`` makes between
    its two DFTs (all N bins at once) and divides by N.  Each repetition times
    every Q in turn, so that drift in machine speed, which on a shared host
    reaches 2x within seconds, reaches every size alike.
    """
    rng = np.random.default_rng(seed)
    solves = {}
    for Q in Q_list:
        E, F = square_bench_grids(N, Q)
        operators = prefactorize(assemble_blocks(E, F), "interpolation").operators
        rhs = rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q))
        solves[Q] = functools.partial(_solve_bins, operators, rhs)
    for solve in solves.values():
        solve()  # warm-up, discarded
    times = {Q: [] for Q in solves}
    for _ in range(repetitions):
        for Q, solve in solves.items():
            t0 = time.perf_counter()
            solve()
            times[Q].append(time.perf_counter() - t0)
    return {Q: float(np.median(t)) / N for Q, t in times.items()}


def optimal_N(grid_size: int) -> int:
    """The cost-minimizing number of rotations for a square polar grid of the given size."""
    if grid_size < 10:
        raise DomainError("grid_size must be >= 10")
    return max(1, round(math.sqrt(grid_size / 10)))


@dataclass
class ConditioningReport:
    conditions: list[float]
    min_distance_spatial: float
    min_distance_frequency: float


def _min_pairwise_distance(full_xy: np.ndarray) -> float:
    pts = full_xy.reshape(-1, 2)
    if len(pts) < 2:
        return float("inf")
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


def conditioning_report(blocks: FourierBesselBlocks) -> ConditioningReport:
    """Per-block 2-norm condition numbers plus the smallest point spacings of E and F."""
    s = np.linalg.svd(blocks.blocks, compute_uv=False)  # (N, min(P, Q)), descending
    smax, smin = s[:, 0], s[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(smin > 0, smax / smin, np.inf)
    return ConditioningReport(
        conds.tolist(),
        _min_pairwise_distance(blocks.spatial_grid.full_xy()),
        _min_pairwise_distance(blocks.frequency_grid.full_xy()),
    )
