"""Command-line frontend.

Subcommands: grid, evaluate, interpolate, approximate, demo-image, bench,
verify-rep.  Exit codes: 0 ok, 2 usage, 3 grid error, 4 well-posedness,
5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .bessel import assemble_blocks
from .errors import DomainError, GridError, GridMismatch, ParseError, WellPosednessError
from .grids import build_polar_grid, canonicalize, load_grid, save_grid, RotInvariantGrid
from .group_reps import (
    GroupElement,
    check_homomorphism,
    check_unitary,
    commutant_dimension,
)
from .harness import bench_evaluate, conditioning_report, optimal_N
from .image import bilinear_sample, load_image
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

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GRID = 3
EXIT_WELLPOSED = 4
EXIT_IO = 5

# Largest per-bin condition number a solve command accepts.
CONDITION_LIMIT = 1e12


def _parse_radii(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def cmd_grid(args) -> int:
    if args.polar:
        if args.rays is None or args.radii is None or args.N is None:
            print("grid --polar requires --rays, --radii and --N", file=sys.stderr)
            return EXIT_USAGE
        grid = build_polar_grid(args.rays, _parse_radii(args.radii), args.N, kind=args.kind)
    elif args.from_points:
        with open(args.from_points) as fh:
            data = json.load(fh)
        pts = data["points"] if isinstance(data, dict) else data
        N = args.N if args.N is not None else data.get("N")
        if N is None:
            print("grid --from-points requires --N (or an N field in the file)", file=sys.stderr)
            return EXIT_USAGE
        grid = canonicalize(pts, N, kind=args.kind)
    else:
        print("grid requires --polar or --from-points", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        save_grid(grid, args.out)
    print(f"grid: N={grid.N} kind={grid.kind} slice-points={len(grid.points)}")
    return EXIT_OK


def _frequency_twin(grid: RotInvariantGrid) -> RotInvariantGrid:
    """Reinterpret a grid's geometry as a frequency grid."""
    return RotInvariantGrid(grid.N, grid.points, "frequency").validate()


def _load_weights(args, F: RotInvariantGrid) -> Weights:
    if args.weights == "zero":
        return Weights.zero(F.N, len(F.points))
    if args.weights is not None:
        try:
            arr = np.loadtxt(args.weights, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{args.weights}: {exc}") from exc
        try:
            return Weights(arr)
        except ValueError as exc:
            raise DomainError(f"{args.weights}: {exc}") from exc
    if args.weights_scheme == "paper":
        return banded_weights(F, args.alpha)
    return Weights.zero(F.N, len(F.points))


def cmd_evaluate(args) -> int:
    coeffs = load_coefficients(args.coefficients)
    E = load_grid(args.grid)
    if args.naive:
        samples = evaluate_naive(coeffs, E)
    else:
        blocks = assemble_blocks(E, coeffs.frequency_grid)
        samples = evaluate_fast(coeffs, blocks)
        if args.check_oracle:
            ref = evaluate_naive(coeffs, E)
            dev = np.linalg.norm(samples.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300)
            print(f"oracle max relative deviation: {dev:.3e}")
    save_samples(args.out, samples)
    print(f"evaluated {samples.values.shape} samples -> {args.out}")
    return EXIT_OK


def _solve_command(args, mode: str) -> int:
    samples = load_samples(args.samples)
    F = _frequency_twin(load_grid(args.frequency_grid)) if args.frequency_grid else _frequency_twin(samples.spatial_grid)
    blocks = assemble_blocks(samples.spatial_grid, F)
    weights = _load_weights(args, F) if mode == "approximation" else None
    fact = prefactorize(blocks, mode, weights)
    worst = int(np.argmax(fact.conditions))
    if fact.conditions[worst] > CONDITION_LIMIT:
        raise WellPosednessError(worst, fact.conditions[worst])
    coeffs = interpolate(samples, fact) if mode == "interpolation" else approximate(samples, fact)
    if args.check_oracle:
        ref = evaluate_naive(coeffs, samples.spatial_grid)
        fast = evaluate_fast(coeffs, blocks)
        dev = np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300)
        print(f"oracle max relative deviation: {dev:.3e}")
    save_coefficients(args.out, coeffs)
    print(f"{mode} solved: coefficients {coeffs.values.shape} -> {args.out}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    return _solve_command(args, "interpolation")


def cmd_approximate(args) -> int:
    return _solve_command(args, "approximation")


def cmd_demo_image(args) -> int:
    try:
        img = load_image(args.image)
    except (OSError, ParseError) as exc:
        print(f"cannot read image: {exc}", file=sys.stderr)
        return EXIT_IO
    E = load_grid(args.grid)
    F = _frequency_twin(E)
    scale = args.scale
    sampled = bilinear_sample(img, E.full_xy() * scale)
    samples = SampleArray(sampled.astype(complex), E)

    blocks = assemble_blocks(E, F)
    weights = _load_weights(args, F)
    m_rot = args.rot_steps if args.rot_steps is not None else (10 if E.N == 64 else max(1, E.N // 6))
    xi = np.array(args.shift)

    rows = []
    outputs = {}
    for mode in ("interpolation", "approximation"):
        fact = prefactorize(blocks, mode, weights if mode == "approximation" else None)
        coeffs = interpolate(samples, fact) if mode == "interpolation" else approximate(samples, fact)
        ev = evaluate_fast(coeffs, blocks)
        ev_rot = evaluate_fast(rotate_coefficients(coeffs, m_rot), blocks)
        ev_tr = evaluate_fast(translate_coefficients(coeffs, xi), blocks)
        rows.append(
            (
                mode,
                float(np.linalg.norm(coeffs.values)),
                float(np.linalg.norm(ev.values)),
                float(np.linalg.norm(ev_rot.values)),
                float(np.linalg.norm(ev_tr.values)),
            )
        )
        outputs[mode] = (coeffs, ev, ev_rot, ev_tr)

    header = ("mode", "norm_coeffs", "norm_eval", "norm_rotated", "norm_translated")
    print("\t".join(header))
    for row in rows:
        print("\t".join([row[0]] + [f"{v:.6e}" for v in row[1:]]))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    if args.out_prefix:
        for mode, (coeffs, ev, ev_rot, ev_tr) in outputs.items():
            save_coefficients(f"{args.out_prefix}.{mode}.coeffs.bin", coeffs)
            save_samples(f"{args.out_prefix}.{mode}.eval.bin", ev)
            save_samples(f"{args.out_prefix}.{mode}.rotated.bin", ev_rot)
            save_samples(f"{args.out_prefix}.{mode}.translated.bin", ev_tr)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.optimal_N is not None:
        print(optimal_N(args.optimal_N))
        return EXIT_OK
    report = bench_evaluate(args.N, args.Q, repetitions=args.repetitions)
    if args.out:
        report.write_csv(args.out)
    print("\t".join(report.CSV_COLUMNS[:8] + ("speedup_with_assembly",)))
    for r in report.records:
        print(
            f"{r.N}\t{r.P}\t{r.Q}\t{r.t_naive:.3e}\t{r.t_assemble:.3e}\t{r.t_fast:.3e}"
            f"\t{r.t_prefactorize:.3e}\t{r.t_solve:.3e}"
            f"\t{r.t_naive / (r.t_assemble + r.t_fast):.1f}"
        )
    if args.conditioning:
        from .harness import square_bench_grids

        for N in args.N:
            for Q in args.Q:
                E, F = square_bench_grids(N, Q)
                rep = conditioning_report(assemble_blocks(E, F))
                print(
                    f"conditioning N={N} Q={Q}: max={max(rep.conditions):.3e}"
                    f" min_dist_E={rep.min_distance_spatial:.3e}"
                    f" min_dist_F={rep.min_distance_frequency:.3e}"
                )
    return EXIT_OK


def cmd_verify_rep(args) -> int:
    N = args.N
    if N < 1:
        raise DomainError(f"--N must be >= 1, got {N}")
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
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rotap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rotap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="build or canonicalize a rotation-invariant grid")
    p.add_argument("--polar", action="store_true")
    p.add_argument("--from-points", metavar="PATH")
    p.add_argument("--rays", type=int)
    p.add_argument("--radii", type=str)
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
        p.add_argument("--weights", help='"zero" or a CSV matrix path')
        p.add_argument("--weights-scheme", choices=("paper",))
        p.add_argument("--alpha", type=float, default=100.0)
        p.add_argument("--check-oracle", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("demo-image", help="image round-trip norm table")
    p.add_argument("image")
    p.add_argument("--grid", required=True)
    p.add_argument("--scale", type=float, default=1.0, help="grid-to-pixel scale factor")
    p.add_argument("--weights")
    p.add_argument("--weights-scheme", choices=("paper",), default="paper")
    p.add_argument("--alpha", type=float, default=100.0)
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
    p.add_argument("--conditioning", action="store_true")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-rep", help="run the representation property checks")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_rep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GridError, GridMismatch) as exc:
        print(f"grid error: {exc}", file=sys.stderr)
        return EXIT_GRID
    except WellPosednessError as exc:
        print(f"well-posedness error: {exc}", file=sys.stderr)
        return EXIT_WELLPOSED
    except (OSError, ParseError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
