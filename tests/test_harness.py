import collections
import dataclasses
import json
import time

import pytest

from rotap import (
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
    def test_small_run_validates_oracle(self):
        report = bench_evaluate([4], [6], repetitions=3, seed=1)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.oracle_rel_error < 1e-10
        assert rec.t_naive > 0 and rec.t_fast > 0 and rec.t_assemble > 0
        assert rec.t_prefactorize > 0 and rec.t_solve > 0
        # The record goes into the JSON report whole: every field, every
        # per-bin condition, each number at full precision.
        fields = dataclasses.asdict(rec)
        assert json.loads(json.dumps(fields)) == {**fields, "conditions": list(rec.conditions)}
        assert (fields["N"], fields["P"], fields["Q"]) == (4, 6, 6)
        assert len(fields["conditions"]) == 4

    def test_records_hold_each_stage_spread(self):
        # t_min and t_max hold the fastest and slowest timed call of every
        # stage that has a median, by its field name.
        rec = bench_evaluate([4], [6], repetitions=5, seed=1).records[0]
        stages = {"t_assemble", "t_fast", "t_prefactorize", "t_solve"}
        assert set(rec.t_min) == set(rec.t_max) == stages
        for key in stages:
            assert 0 < rec.t_min[key] <= getattr(rec, key) <= rec.t_max[key]

    @pytest.mark.parametrize("N, Q, r, ill_posed", [(4, 6, 2.0, False), (64, 16, 0.28125, True)])
    def test_records_hold_r(self, N, Q, r, ill_posed):
        # r = min(rho_min*xi_max, xi_min*rho_max) / (N/2); the bench grids'
        # radii run from 1 to 1 + max(2, Q/2).  At (64, 16) the top bins are
        # evanescent and kappa_1 passes 1e8, which r below 0.62 predicts.
        rec = bench_evaluate([N], [Q], repetitions=3, seed=1).records[0]
        assert rec.r == r
        assert (max(rec.conditions) > 1e8) == ill_posed

    def test_fast_stages_warm_up_untimed(self, monkeypatch):
        # Every stage but the dense oracle runs the same number of untimed
        # warm-up calls before its timed repetitions; the oracle runs once,
        # timed, and that call also checks the fast path.  The stages whose
        # results later stages take (blocks, values, factors) run once more
        # to make them; the solve's result is not needed, so it does not.
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
        want = {name: 1 + 3 + warmups for name in stages}
        want.update(evaluate_naive=1, interpolate=3 + warmups)
        assert calls == want

    def test_t_naive_is_the_checking_call(self, monkeypatch):
        # Only the oracle's first call, the one that checks the fast path, is
        # slowed; t_naive must be that call's time.
        naive = harness.evaluate_naive
        calls = []

        def slow_naive(*args):
            if not calls:
                time.sleep(0.05)
            calls.append(args)
            return naive(*args)

        monkeypatch.setattr(harness, "evaluate_naive", slow_naive)
        rec = bench_evaluate([4], [6], repetitions=3, seed=1).records[0]
        assert 0.05 <= rec.t_naive < 0.5
        assert rec.oracle_rel_error < 1e-10

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
