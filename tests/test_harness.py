import collections
import csv

import pytest

from rotap import (
    BenchReport,
    assemble_blocks,
    bench_evaluate,
    bench_solve_scaling,
    optimal_N,
)
from rotap.bessel import FourierBesselBlocks
from rotap import harness
from rotap.harness import square_bench_grids


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

    def test_fast_stages_warm_up_untimed(self, monkeypatch):
        # Every stage but the dense oracle runs the same number of untimed
        # calls before its timed repetitions; the oracle runs once to check
        # and once per repetition.
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        stages = ("assemble_blocks", "evaluate_fast", "prefactorize", "interpolate", "evaluate_naive")
        for name in stages:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        bench_evaluate([4], [6], repetitions=3, seed=1)
        warmups = calls["evaluate_fast"] - 1 - 3
        assert warmups >= 3
        assert calls == {name: 1 + 3 + (0 if name == "evaluate_naive" else warmups) for name in stages}

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
