#!/usr/bin/env python3
"""Benchmark the factorized evaluation path against the dense oracle.

Writes a CSV report and prints the speedups plus the per-bin solve-time
growth across Q-doublings (the Q^2 model predicts a factor of 4).
"""

import argparse

from rotap import bench_evaluate, bench_solve_scaling, optimal_N


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, nargs="+", default=[64])
    ap.add_argument("--Q", type=int, nargs="+", default=[32, 64, 128])
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--out", default="bench_report.csv")
    args = ap.parse_args()

    report = bench_evaluate(args.N, args.Q, repetitions=args.repetitions)
    report.write_csv(args.out)
    for r in report.records:
        print(
            f"N={r.N} Q={r.Q}: naive {r.t_naive:.3e}s, "
            f"fast {r.t_fast:.3e}s ({r.t_naive / r.t_fast:.0f}x), "
            f"assemble + fast {r.t_assemble + r.t_fast:.3e}s "
            f"({r.t_naive / (r.t_assemble + r.t_fast):.0f}x), "
            f"oracle rel err {r.oracle_rel_error:.1e}"
        )

    for N in args.N:
        times = bench_solve_scaling(N, args.Q, repetitions=50)
        qs = sorted(times)
        for a, b in zip(qs, qs[1:]):
            print(f"N={N} per-bin solve {a}->{b}: x{times[b] / times[a]:.2f}")
        print(f"optimal_N({10 * N * N}) = {optimal_N(10 * N * N)}")
    print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
