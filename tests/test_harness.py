import csv

import numpy as np
import pytest

from rotap import (
    BenchReport,
    assemble_blocks,
    bench_evaluate,
    bench_solve_scaling,
    build_polar_grid,
    conditioning_report,
    optimal_N,
)
from rotap.bessel import FourierBesselBlocks
from rotap.grids import RotInvariantGrid, SlicePoint
from rotap.harness import _min_pairwise_distance, square_bench_grids

from conftest import random_slice_grid


class TestOptimalN:
    def test_reference_values(self):
        assert optimal_N(1000) == 10
        assert optimal_N(10) == 1
        assert optimal_N(4000) == 20

    def test_monotone(self):
        vals = [optimal_N(g) for g in range(10, 5000, 37)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            optimal_N(9)


class TestConditioningReport:
    def test_single_point_identityish(self):
        E = build_polar_grid(1, [1.0], 1, kind="spatial")
        F = build_polar_grid(1, [1.0], 1, kind="frequency")
        rep = conditioning_report(assemble_blocks(E, F))
        assert rep.conditions == pytest.approx([1.0])
        assert rep.min_distance_spatial == float("inf")

    def test_duplicated_row_blows_up(self):
        # Two nearly identical spatial points make every block nearly rank
        # deficient; unvalidated grids let us build the degenerate case.
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0, 0.1 + 1e-14))
        E = RotInvariantGrid(4, pts, "spatial")
        F = build_polar_grid(2, [0.9, 1.7], 4, kind="frequency")
        rep = conditioning_report(assemble_blocks(E, F))
        assert max(rep.conditions) > 1e12
        assert rep.min_distance_spatial < 1e-12

    def test_min_distance_counts_cross_orbit_pairs(self):
        E = build_polar_grid(1, [1.0, 1.0 + 1e-6], 8, kind="spatial")
        F = build_polar_grid(1, [1.0], 8, kind="frequency")
        rep = conditioning_report(assemble_blocks(E, F))
        assert rep.min_distance_spatial == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("N, count, kind", [(1, 5, "spatial"), (3, 4, "spatial"), (6, 3, "frequency"), (8, 1, "frequency")])
def test_min_pairwise_distance_matches_all_pairs(rng, N, count, kind):
    for _ in range(5):
        full = random_slice_grid(rng, N, count, kind).full_xy()
        pts = full.reshape(-1, 2)
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        np.fill_diagonal(d, np.inf)
        assert _min_pairwise_distance(full) == pytest.approx(d.min(), rel=1e-12)


class TestBenchEvaluate:
    def test_small_run_validates_oracle(self, tmp_path):
        report = bench_evaluate([4], [6], repetitions=3, seed=1)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.oracle_rel_error < 1e-10
        assert rec.t_naive > 0 and rec.t_fast > 0 and rec.t_assemble > 0
        assert rec.t_prefactorize > 0 and rec.t_solve > 0
        path = tmp_path / "bench.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(BenchReport.CSV_COLUMNS)
        assert len(rows) == 2
        assert rows[1][0] == "4"

    def test_rejects_too_few_repetitions(self):
        with pytest.raises(ValueError):
            bench_evaluate([4], [6], repetitions=2)


class TestSolveScaling:
    def test_returns_positive_times(self):
        out = bench_solve_scaling(4, [8, 16], repetitions=5)
        assert set(out) == {8, 16}
        assert all(t > 0 for t in out.values())


class TestSquareBenchGrids:
    def test_shapes_and_kinds(self):
        E, F = square_bench_grids(6, 11)
        assert E.N == F.N == 6
        assert len(E.points) == len(F.points) == 11
        assert E.kind == "spatial" and F.kind == "frequency"
        blocks = assemble_blocks(E, F)
        assert isinstance(blocks, FourierBesselBlocks)
        assert blocks.P == blocks.Q == 11
