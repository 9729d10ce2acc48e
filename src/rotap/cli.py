"""Command-line frontend.

Subcommands: grid, evaluate, interpolate, approximate, demo-image, bench,
verify-rep.  Exit codes: 0 ok, 1 a verify-rep check failed, 2 usage, 3 grid
error, 4 well-posedness, 5 I/O error.  Each RotapError class carries its code
and stderr label; main() maps them, OSError to 5, MemoryError to 2 and a
closed stdout to 0, in one place.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from .bessel import assemble_blocks
from .errors import DomainError, ParseError, RotapError, WellPosednessError
from .grids import build_polar_grid, canonicalize, load_grid, load_points, save_grid, RotInvariantGrid
from .group_reps import (
    GroupElement,
    check_homomorphism,
    check_unitary,
    commutant_dimension,
)
from .harness import bench_evaluate, bench_solve_scaling, optimal_N
from .image import bilinear_sample, load_csv_matrix, load_image
from .transform import (
    SampleArray,
    Weights,
    approximate,
    banded_weights,
    evaluate_fast,
    evaluate_naive,
    interpolate,
    load_coefficients,
    load_samples,
    prefactorize,
    rotate_coefficients,
    save_coefficients,
    save_samples,
    translate_coefficients,
)

# Largest per-bin condition number a solve command accepts.
CONDITION_LIMIT = 1e12


def _parse_radii(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def cmd_grid(args) -> int:
    if args.polar:
        if args.rays is None or args.radii is None or args.N is None:
            raise DomainError("grid --polar requires --rays, --radii and --N")
        grid = build_polar_grid(args.rays, args.radii, args.N, kind=args.kind)
    elif args.from_points:
        pts, N = load_points(args.from_points)
        N = args.N if args.N is not None else N
        if N is None:
            raise DomainError("grid --from-points requires --N (or an N field in the file)")
        grid = canonicalize(pts, N, kind=args.kind)
    else:
        raise DomainError("grid requires --polar or --from-points")
    if args.out:
        save_grid(grid, args.out)
    print(f"grid: N={grid.N} kind={grid.kind} slice-points={len(grid.points)}")
    return 0


def _frequency_twin(grid: RotInvariantGrid) -> RotInvariantGrid:
    """Reinterpret a grid's geometry as a frequency grid."""
    return RotInvariantGrid(grid.N, grid.points, "frequency").validate()


def _load_weights(args, F: RotInvariantGrid, scheme: str | None = None) -> Weights:
    """--weights, else --weights-scheme (default ``scheme``) at --alpha (default 100), else zero weights."""
    if args.weights is not None and args.weights_scheme is not None:
        raise DomainError("--weights and --weights-scheme exclude each other")
    if args.weights is None and (args.weights_scheme or scheme) == "paper":
        return banded_weights(F, 100.0 if args.alpha is None else args.alpha)
    if args.alpha is not None:
        raise DomainError("--alpha applies only to --weights-scheme paper")
    if args.weights is None or args.weights == "zero":
        return Weights.zero(F.N, len(F.points))
    return Weights(load_csv_matrix(args.weights))


def _print_oracle_deviation(coeffs, fast: SampleArray) -> None:
    """Print the relative 2-norm deviation of ``fast`` from the dense oracle on its grid."""
    ref = evaluate_naive(coeffs, fast.spatial_grid)
    dev = np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300)
    print(f"oracle max relative deviation: {dev:.3e}")


def cmd_evaluate(args) -> int:
    coeffs = load_coefficients(args.coefficients)
    E = load_grid(args.grid)
    if args.naive:
        samples = evaluate_naive(coeffs, E)
    else:
        blocks = assemble_blocks(E, coeffs.frequency_grid)
        samples = evaluate_fast(coeffs, blocks)
        if args.check_oracle:
            _print_oracle_deviation(coeffs, samples)
    save_samples(args.out, samples)
    print(f"evaluated {samples.values.shape} samples -> {args.out}")
    return 0


def _ill_conditioned(fact) -> WellPosednessError | None:
    """The error naming the worst-conditioned bin of ``fact``, if its condition exceeds CONDITION_LIMIT."""
    worst = int(np.argmax(fact.conditions))
    if fact.conditions[worst] > CONDITION_LIMIT:
        return WellPosednessError(worst, fact.conditions[worst])
    return None


def _solve_command(args, mode: str, solve, load_weights=None) -> int:
    """Fit the samples with ``solve`` on a ``mode`` factorization, weighted by ``load_weights(args, F)`` if given."""
    samples = load_samples(args.samples)
    F = _frequency_twin(load_grid(args.frequency_grid)) if args.frequency_grid else _frequency_twin(samples.spatial_grid)
    blocks = assemble_blocks(samples.spatial_grid, F)
    fact = prefactorize(blocks, mode, load_weights(args, F) if load_weights else None)
    if (err := _ill_conditioned(fact)) is not None:
        raise err
    coeffs = solve(samples, fact)
    if args.check_oracle:
        _print_oracle_deviation(coeffs, evaluate_fast(coeffs, blocks))
    save_coefficients(args.out, coeffs)
    print(f"{mode} solved: coefficients {coeffs.values.shape} -> {args.out}")
    return 0


def cmd_interpolate(args) -> int:
    return _solve_command(args, "interpolation", interpolate)


def cmd_approximate(args) -> int:
    return _solve_command(args, "approximation", approximate, _load_weights)


def cmd_demo_image(args) -> int:
    if not np.all(np.isfinite([args.scale, *args.shift])):
        raise DomainError("--scale and --shift must be finite")
    img = load_image(args.image)
    E = load_grid(args.grid)
    F = _frequency_twin(E)
    sampled = bilinear_sample(img, E.full_xy() * args.scale)
    samples = SampleArray(sampled.astype(complex), E)

    blocks = assemble_blocks(E, F)
    fits = (("interpolation", interpolate, None), ("approximation", approximate, _load_weights(args, F, "paper")))
    m_rot = args.rot_steps if args.rot_steps is not None else max(1, E.N // 6)
    xi = np.array(args.shift)

    # Per mode, the named results; their names give the table header and the --out-prefix file names.
    results = {}
    for mode, solve, weights in fits:
        fact = prefactorize(blocks, mode, weights)
        if (err := _ill_conditioned(fact)) is not None:
            print(f"warning: {mode} may be inaccurate: {err}", file=sys.stderr)
        fit = solve(samples, fact)
        results[mode] = {
            "coeffs": fit,
            "eval": evaluate_fast(fit, blocks),
            "rotated": evaluate_fast(rotate_coefficients(fit, m_rot), blocks),
            "translated": evaluate_fast(translate_coefficients(fit, xi), blocks),
        }

    header = ["mode", *(f"norm_{name}" for name in results["interpolation"])]
    rows = [[mode, *(float(np.linalg.norm(r.values)) for r in named.values())] for mode, named in results.items()]
    print("\t".join(header))
    for row in rows:
        print("\t".join([row[0]] + [f"{v:.6e}" for v in row[1:]]))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    if args.out_prefix:
        for mode, named in results.items():
            for name, r in named.items():
                save = save_samples if isinstance(r, SampleArray) else save_coefficients
                save(f"{args.out_prefix}.{mode}.{name}.bin", r)
    return 0


def cmd_bench(args) -> int:
    if args.optimal_N is not None:
        print(optimal_N(args.optimal_N))
        return 0
    report = bench_evaluate(args.N, args.Q, repetitions=args.repetitions)
    if args.out:
        report.write_csv(args.out)
    for row in (report.CSV_COLUMNS, *(r.row() for r in report.records)):
        print("\t".join(row))
    if len(args.Q) > 1:
        for N in args.N:
            times = bench_solve_scaling(N, args.Q, repetitions=50)
            qs = sorted(times)
            for a, b in zip(qs, qs[1:]):
                print(f"N={N} per-bin solve {a}->{b}: x{times[b] / times[a]:.2f}")
    return 0


def cmd_verify_rep(args) -> int:
    N = args.N
    if N < 1:
        raise DomainError(f"--N must be >= 1, got {N}")
    if args.seeds < 1:
        raise DomainError(f"--seeds must be >= 1, got {args.seeds}")
    rng = np.random.default_rng(args.seed)
    worst_hom = 0.0
    worst_uni = 0.0
    for _ in range(args.seeds):
        lam = rng.uniform(0.3, 2.0) * np.array(
            [np.cos(a := rng.uniform(0, 2 * np.pi)), np.sin(a)]
        )
        g1 = GroupElement(int(rng.integers(N)), tuple(rng.uniform(-3, 3, 2)))
        g2 = GroupElement(int(rng.integers(N)), tuple(rng.uniform(-3, 3, 2)))
        worst_hom = max(worst_hom, check_homomorphism(lam, g1, g2, N))
        worst_uni = max(worst_uni, check_unitary(lam, g1, N))
    sample = [
        GroupElement(1, (0.0, 0.0)),
        GroupElement(0, (0.7345, 0.0)),
        GroupElement(0, (0.0, 1.2113)),
    ]
    dim = commutant_dimension(np.array([1.1, 0.3]), sample, N)
    print(f"homomorphism max error: {worst_hom:.3e}")
    print(f"unitarity max error:    {worst_uni:.3e}")
    print(f"commutant dimension:    {dim}")
    ok = worst_hom < 1e-12 and worst_uni < 1e-12 and dim == 1
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rotap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rotap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="build or canonicalize a rotation-invariant grid")
    p.add_argument("--polar", action="store_true")
    p.add_argument("--from-points", metavar="PATH")
    p.add_argument("--rays", type=int)
    p.add_argument("--radii", type=_parse_radii)
    p.add_argument("--N", type=int)
    p.add_argument("--kind", choices=("spatial", "frequency"), default="spatial")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("evaluate", help="evaluate coefficients on a spatial grid")
    p.add_argument("coefficients")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--naive", action="store_true")
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    for name, fn in (("interpolate", cmd_interpolate), ("approximate", cmd_approximate)):
        p = sub.add_parser(name, help=f"{name} samples into coefficients")
        p.add_argument("samples")
        p.add_argument("--frequency-grid")
        p.add_argument("--out", required=True)
        p.add_argument("--check-oracle", action="store_true")
        p.set_defaults(func=fn)
        if name == "approximate":
            p.add_argument("--weights", help='"zero" or a CSV matrix path')
            p.add_argument("--weights-scheme", choices=("paper",))
            p.add_argument("--alpha", type=float)

    p = sub.add_parser("demo-image", help="image round-trip norm table")
    p.add_argument("image")
    p.add_argument("--grid", required=True)
    p.add_argument("--scale", type=float, default=1.0, help="grid-to-pixel scale factor")
    p.add_argument("--weights")
    p.add_argument("--weights-scheme", choices=("paper",))
    p.add_argument("--alpha", type=float)
    p.add_argument("--rot-steps", type=int)
    p.add_argument("--shift", type=float, nargs=2, default=(15.0, 26.0))
    p.add_argument("--out", help="CSV path for the norm table")
    p.add_argument("--out-prefix", help="prefix for evaluated sample arrays")
    p.set_defaults(func=cmd_demo_image)

    p = sub.add_parser("bench", help="benchmark naive vs factorized paths")
    p.add_argument("--N", type=int, nargs="+", default=[8])
    p.add_argument("--Q", type=int, nargs="+", default=[16])
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--optimal-N", type=int, dest="optimal_N", metavar="GRID_SIZE")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-rep", help="run the representation property checks")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_rep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout, as `rotap bench | head` does
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except RotapError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file that cannot be opened, read or written
        print(f"{ParseError.label}: {exc}", file=sys.stderr)
        return ParseError.exit_code
    except MemoryError as exc:  # grids too large for this machine, such as N = 1000000
        print(f"{DomainError.label}: the grids need more memory than is available: {exc}", file=sys.stderr)
        return DomainError.exit_code


if __name__ == "__main__":
    sys.exit(main())
