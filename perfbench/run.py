"""rotap benchmark: one closed-loop workload from a seed, end to end or traced.

    python3 perfbench/run.py --workload eval-n64-q128 --seed 1 --seconds 30 --trace 0

Run it from the root of a rotap checkout; it imports rotap from ``src/`` there
and writes only under ``.bench_out/``.  ``--trace 0`` times the workload with
nothing patched and prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it runs the loop in slices, alternately untraced and with
every layer's public functions wrapped, half of ``--seconds`` each, and
writes the spans to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the run context and every metric by name with its unit.

The benchmark reads the BLAS thread settings and records them; it sets none.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Untraced and traced slices of the traced run, alternated.
TRACE_SLICES = 5
# Warm-up before timing.  With OpenBLAS's default two threads on two cores the
# first few block products of a process stall for up to 0.5 s each, a cost paid
# once per process; the first operation's latency is printed instead.
WARMUP_S = 2.0


def load_rotap():
    """Import rotap from the checkout's ``src/``; exit 2 when there is none."""
    if not (SRC / "rotap" / "__init__.py").is_file():
        print(f"no rotap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rotap

    if Path(rotap.__file__).resolve().parent != SRC / "rotap":
        print(f"imported rotap from {rotap.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def openblas_threads(library_tag: str, symbol: str):
    """Thread count of a loaded OpenBLAS copy, read through ctypes; None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if library_tag in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def run_context() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy_openblas_threads": openblas_threads("libscipy_openblas64_", "scipy_openblas_get_num_threads64_"),
        "scipy_openblas_threads": openblas_threads("libscipy_openblas-", "scipy_openblas_get_num_threads"),
    }


def percentile_ms(latencies: list[float], q: int) -> float:
    """The q-th percentile in ms, by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3 if len(latencies) > 1 else latencies[0] * 1e3


def end_to_end(workload, rng, seconds: float, rss_of_children: bool) -> tuple[dict, int, int, list[str]]:
    """Set up SETUPS times, warm up for WARMUP_S, then run the timed closed loop."""
    from workloads import closed_loop, timed_setups

    setups = timed_setups(workload)
    warm = closed_loop(workload, rng, WARMUP_S, first_op=0)
    loop = closed_loop(workload, rng, seconds, first_op=warm.attempted)
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed
    who = resource.RUSAGE_CHILDREN if rss_of_children else resource.RUSAGE_SELF
    # ru_maxrss is in KiB on Linux; for children it is the largest child's peak.
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"samples {len(loop.latencies)} timed operations, {len(setups)} set-ups, {warm.attempted} warm-up operations",
        f"first_op_ms {warm.latencies[0] * 1e3 if warm.latencies else float('nan')} ms (first operation after set-up, not timed)",
        f"error_rate {failed / attempted} ratio ({failed} failed of {attempted} attempted)",
    ]
    p90 = percentile_ms(loop.latencies, 90)
    beyond = sum(1 for t in loop.latencies if t * 1e3 > p90)
    if beyond >= 10:
        notes.append(f"op_p90_ms {p90} ms ({beyond} samples beyond it)")
    else:
        notes.append(f"op_p90_ms not reported: {beyond} samples beyond it, fewer than 10")
    return metrics, attempted, failed, notes


def traced(workload, rng, seconds: float, context: dict, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """Traced set-ups, warm-up, then untraced and traced loop slices in turn.

    Alternating slices expose both halves to the same drift in machine speed,
    so their ops_per_s ratio measures the tracing overhead.
    """
    from tracing import Tracer, layer_metrics
    from workloads import CliImage, LoopResult, closed_loop, timed_setups

    tracer = Tracer()
    with tracer.install():
        timed_setups(workload, tracer)
    warm = closed_loop(workload, rng, WARMUP_S, first_op=0)
    plain, spanned = LoopResult(), LoopResult()
    slice_s = seconds / (2 * TRACE_SLICES)
    for _ in range(TRACE_SLICES):
        plain.add(closed_loop(workload, rng, slice_s, first_op=warm.attempted + plain.attempted + spanned.attempted))
        with tracer.install():
            first = warm.attempted + plain.attempted + spanned.attempted
            spanned.add(closed_loop(workload, rng, slice_s, first_op=first, tracer=tracer))
    startup_s = workload.startup_s() if isinstance(workload, CliImage) else 0.0
    tracer.write(spans_path, context)
    attempted = warm.attempted + plain.attempted + spanned.attempted
    failed = warm.failed + plain.failed + spanned.failed
    notes = [
        f"samples {len(plain.latencies)} untraced and {len(spanned.latencies)} traced operations",
        f"ops_per_s untraced {plain.ops_per_s} 1/s, traced {spanned.ops_per_s} 1/s",
        f"spans {len(tracer.spans)} written to {spans_path}",
    ]
    return layer_metrics(tracer, plain.ops_per_s, spanned.ops_per_s, startup_s), attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="e.g. eval-n64-q128, fit-n64-q64, cli-image-n32-q32")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_rotap()
    import numpy as np
    import workloads

    context = run_context()
    print("context " + json.dumps(context))
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rng = np.random.default_rng(args.seed)
        workload = workloads.make(args.workload, workdir, in_process=bool(args.trace))
        workload.prepare(rng)
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, notes = traced(workload, rng, args.seconds, context, spans_path)
        else:
            is_cli = isinstance(workload, workloads.CliImage)
            metrics, attempted, failed, notes = end_to_end(workload, rng, args.seconds, is_cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in notes:
        print(f"{args.workload} {line}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
