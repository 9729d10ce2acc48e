"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs each workload kind at a tiny size through run.py, untraced and traced,
and checks that every metric BENCHMARK.json names is printed with its unit.
Then runs single operations in-process with a deliberately corrupted output
and checks that each is counted as a failure, and checks that run.py fails
without a result in a directory holding only the benchmark.  Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ("eval-n4-q8", "fit-n4-q8", "cli-image-n4-q8")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def check_printed_metrics(spec: dict) -> None:
    for name in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            assert set(result["metrics"]) == set(wanted), (name, trace, set(result["metrics"]) ^ set(wanted))
            for metric, unit in wanted.items():
                assert result["metrics"][metric]["unit"] == unit, (metric, unit)
                printed = [line for line in lines[:-1] if line.startswith(f"{name} {metric} ")]
                assert len(printed) == 1 and printed[0].endswith(f" {unit}"), (metric, printed)
            print(f"ok   {name} --trace {trace}: {len(wanted)} metrics printed with their units")


def check_corruption_counted() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import rotap.transform as T
    import workloads

    def scaled(array):
        return array * (1 + 1e-6)

    def wrong_rotated_norm(stdout):
        lines = stdout.splitlines()
        fields = lines[1].split("\t")
        fields[3] = repr(2 * float(fields[3]) + 1)
        lines[1] = "\t".join(fields)
        return "\n".join(lines) + "\n"

    corruptions = {
        "eval-n4-q8": [lambda out, i: T.SampleArray(scaled(out.values), out.spatial_grid)],
        "fit-n4-q8": [
            lambda out, i: (T.ApCoefficients(scaled(out[0].values), out[0].frequency_grid), out[1]),
            lambda out, i: (out[0], T.ApCoefficients(scaled(out[1].values), out[1].frequency_grid)),
        ],
        "cli-image-n4-q8": [
            lambda out, i: [out[0], out[1], replace(out[2], code=4)],
            lambda out, i: [out[0], replace(out[1], stdout="oracle max relative deviation: 1.0e-03\n"), out[2]],
            lambda out, i: [replace(out[0], stdout=wrong_rotated_norm(out[0].stdout)), out[1], out[2]],
        ],
    }
    workdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, corrupts in corruptions.items():
            workload = workloads.make(name, workdir)
            rng = np.random.default_rng(5)
            workload.prepare(rng)
            workload.setup()
            batch = workload.batch
            clean = workloads.closed_loop(workload, rng, 0.0)
            assert (clean.attempted, clean.failed) == (batch, 0), (name, clean)
            for k, corrupt in enumerate(corrupts):
                loop = workloads.closed_loop(workload, rng, 0.0, first_op=batch * (1 + k), corrupt=corrupt)
                assert (loop.attempted, loop.failed) == (batch, batch), (name, k, loop)
            print(f"ok   {name}: {len(corrupts)} kinds of corrupted output, each counted as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_program() -> None:
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", TINY[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
        print(f"ok   without rotap sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(spec)
    check_corruption_counted()
    check_fails_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
