"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of failures) before asserting, so a full run doubles as
a release report.
"""

import math
import time

import numpy as np

from rotap import (
    ApCoefficients,
    SampleArray,
    Weights,
    approximate,
    approximation_objective,
    assemble_blocks,
    banded_weights,
    bench_evaluate,
    bench_solve_scaling,
    bilinear_sample,
    build_polar_grid,
    check_homomorphism,
    check_unitary,
    classical_bessel,
    commutant_dimension,
    evaluate_fast,
    evaluate_naive,
    GroupElement,
    interpolate,
    kernel_limit_error,
    matrix_coefficient_check,
    optimal_N,
    prefactorize,
    rotate_coefficients,
    synthetic_image,
    translate_coefficients,
)
from rotap.grids import RotInvariantGrid, SlicePoint

from conftest import random_slice_grid


def _report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _freq_twin(grid):
    return RotInvariantGrid(grid.N, grid.points, "frequency").validate()


def _random_coeffs(rng, F):
    N, Q = F.N, len(F.points)
    return ApCoefficients(rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q)), F)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        N = int(rng.choice([1, 2, 4, 8, 16]))
        P = int(rng.integers(1, 33))
        Q = int(rng.integers(1, 33))
        E = random_slice_grid(rng, N, P, "spatial")
        F = random_slice_grid(rng, N, Q, "frequency")
        coeffs = _random_coeffs(rng, F)
        ref = evaluate_naive(coeffs, E)
        fast = evaluate_fast(coeffs, assemble_blocks(E, F))
        dev = np.linalg.norm(fast.values - ref.values) / max(np.linalg.norm(ref.values), 1e-300)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, "oracle equivalence", ok, f"worst rel dev {worst:.2e} in {elapsed:.1f}s over 50 configs")


def test_criterion_2_interpolation_round_trip():
    rng = np.random.default_rng(202)
    passed = skipped = 0
    worst = 0.0
    for _ in range(50):
        N = int(rng.choice([2, 4, 8, 16]))
        rays = int(rng.integers(1, 4))
        nr = int(rng.integers(2, 9))
        Q = rays * nr
        # Radial extents proportional to Q keep the blocks well-conditioned;
        # trials that still exceed 1e10 are skipped as allowed.
        lo = rng.uniform(0.5, 1.5)
        radii = np.linspace(lo, lo + max(2.0, Q / 2) * rng.uniform(1.0, 1.5), nr)
        E = build_polar_grid(rays, radii, N, kind="spatial")
        F = _freq_twin(E)
        blocks = assemble_blocks(E, F)
        if max(np.linalg.cond(b) for b in blocks.blocks) > 1e10:
            skipped += 1
            continue
        coeffs = _random_coeffs(rng, F)
        rec = interpolate(evaluate_fast(coeffs, blocks), prefactorize(blocks, "interpolation"))
        err = np.linalg.norm(rec.values - coeffs.values) / np.linalg.norm(coeffs.values)
        worst = max(worst, err)
        passed += 1
    ok = worst <= 1e-8 and passed > 0
    _report(
        2,
        "interpolation round trip",
        ok,
        f"worst rel err {worst:.2e} over {passed} trials ({skipped} skipped for conditioning)",
    )


def test_criterion_3_approximation_consistency():
    rng = np.random.default_rng(303)
    worst_red = worst_resid = 0.0
    optimal_ok = True
    for _ in range(5):
        N = int(rng.choice([2, 4, 8]))
        nr = int(rng.integers(3, 7))
        radii = np.linspace(1.0, 1.0 + max(2.0, nr), nr)
        E = build_polar_grid(1, radii, N, kind="spatial")
        F = _freq_twin(E)
        blocks = assemble_blocks(E, F)
        Q = len(F.points)
        coeffs = _random_coeffs(rng, F)
        samples = evaluate_fast(coeffs, blocks)

        # d = 0 must reduce to interpolation.
        ci = interpolate(samples, prefactorize(blocks, "interpolation"))
        ca0 = approximate(samples, prefactorize(blocks, "approximation", Weights.zero(N, Q)))
        worst_red = max(
            worst_red, np.linalg.norm(ca0.values - ci.values) / np.linalg.norm(ci.values)
        )

        # Normal-equation residual identity J*(w - J v) = d^2 v per bin.
        w = Weights(rng.uniform(0.1, 2.0, (N, Q)))
        ca = approximate(samples, prefactorize(blocks, "approximation", w))
        from rotap.transform import dft_rotation_axis

        vhat = dft_rotation_axis(ca.values, "forward")
        what = dft_rotation_axis(samples.values, "forward")
        for n_hat in range(N):
            J = blocks.blocks[n_hat]
            lhs = J.conj().T @ (what[n_hat] - J @ vhat[n_hat])
            rhs = w.values[n_hat] ** 2 * vhat[n_hat]
            scale = max(np.linalg.norm(what[n_hat]), 1.0)
            worst_resid = max(worst_resid, float(np.linalg.norm(lhs - rhs)) / scale)

        # First-order optimality of the minimized objective.
        base = approximation_objective(ca, samples, blocks, w)
        for _ in range(100):
            delta = rng.standard_normal((N, Q)) + 1j * rng.standard_normal((N, Q))
            delta *= 1e-3 / np.linalg.norm(delta)
            pert = ApCoefficients(ca.values + delta, F)
            if approximation_objective(pert, samples, blocks, w) < base - 1e-12 * abs(base):
                optimal_ok = False
    ok = worst_red <= 1e-8 and worst_resid <= 1e-9 and optimal_ok
    _report(
        3,
        "approximation consistency",
        ok,
        f"d=0 reduction {worst_red:.2e}, residual identity {worst_resid:.2e}, "
        f"optimality {'held' if optimal_ok else 'violated'}",
    )


def test_criterion_4_kernel_limit():
    errs = {
        N: max(
            kernel_limit_error(n_hat, prod, 0.0, N)
            for n_hat in (0, 1, 2)
            for prod in (0.5, 1.0, 3.0)
        )
        for N in (32, 64, 128, 256)
    }
    ratios = [errs[n] / errs[2 * n] if errs[2 * n] > 0 else math.inf for n in (32, 64, 128)]
    avg_ratio = float(np.mean(ratios))
    j0_zero = abs(classical_bessel(0, 2.404825557695773))
    ok = errs[256] < 0.05 and avg_ratio >= 1.5 and j0_zero < 1e-10
    _report(
        4,
        "kernel limit",
        ok,
        f"err(256)={errs[256]:.2e}, avg doubling ratio {avg_ratio:.3f} "
        f"(errors are at round-off for every N in 32..256, so the ratio clause "
        f"cannot be met at these parameters), |J0(first zero)|={j0_zero:.1e}",
    )


def test_criterion_5_representation_suite():
    rng = np.random.default_rng(505)
    worst_hom = worst_uni = 0.0
    dims_ok = True
    for N in range(2, 13):
        for _ in range(100):
            ang = rng.uniform(0, 2 * np.pi)
            lam = rng.uniform(0.3, 2.0) * np.array([np.cos(ang), np.sin(ang)])
            g1 = GroupElement(int(rng.integers(N)), tuple(rng.uniform(-3, 3, 2)))
            g2 = GroupElement(int(rng.integers(N)), tuple(rng.uniform(-3, 3, 2)))
            worst_hom = max(worst_hom, check_homomorphism(lam, g1, g2, N))
            worst_uni = max(worst_uni, check_unitary(lam, g1, N))
        sample = [
            GroupElement(1, (0.0, 0.0)),
            GroupElement(0, (0.7345, 0.0)),
            GroupElement(0, (0.0, 1.2113)),
        ]
        if commutant_dimension(np.array([1.1, 0.3]), sample, N) != 1:
            dims_ok = False
    ok = worst_hom < 1e-12 and worst_uni < 1e-12 and dims_ok
    _report(
        5,
        "representation suite",
        ok,
        f"homomorphism {worst_hom:.1e}, unitarity {worst_uni:.1e}, commutant dims all 1: {dims_ok}",
    )


def test_criterion_6_matrix_coefficients():
    rng = np.random.default_rng(606)
    worst = 0.0
    for N in (2, 4, 8):
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            lam = rng.uniform(0.3, 2.0) * np.array([np.cos(ang), np.sin(ang)])
            y = SlicePoint(rng.uniform(0.2, 2.5), rng.uniform(0, 2 * np.pi / N * 0.99))
            worst = max(worst, matrix_coefficient_check(lam, y, N))
    ok = worst < 1e-11
    _report(6, "matrix-coefficient identity", ok, f"worst error {worst:.2e}")


DEMO = dict(
    N=8,
    rays=3,
    radii=np.geomspace(0.3, 2.5, 6),
    scale=15.0,
    shift=(15.0, 26.0),
    alpha=1.0,
    image=(96, 96, 7),
)


def _demo_setup():
    E = build_polar_grid(DEMO["rays"], DEMO["radii"], DEMO["N"], kind="spatial")
    F = _freq_twin(E)
    blocks = assemble_blocks(E, F)
    h, w, seed = DEMO["image"]
    img = synthetic_image(h, w, seed=seed)
    samples = SampleArray(bilinear_sample(img, E.full_xy() * DEMO["scale"]).astype(complex), E)
    return E, F, blocks, samples


def test_criterion_7_rotation_exactness():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        N = int(rng.choice([2, 4, 8, 16]))
        E = random_slice_grid(rng, N, int(rng.integers(2, 8)), "spatial")
        F = random_slice_grid(rng, N, int(rng.integers(2, 8)), "frequency")
        blocks = assemble_blocks(E, F)
        coeffs = _random_coeffs(rng, F)
        m = int(rng.integers(0, N))
        rotated = evaluate_fast(rotate_coefficients(coeffs, m), blocks)
        shifted = np.roll(evaluate_fast(coeffs, blocks).values, m, axis=0)
        worst = max(worst, np.linalg.norm(rotated.values - shifted) / np.linalg.norm(shifted))
    # Same exactness on the image demo.
    E, F, blocks, samples = _demo_setup()
    fact = prefactorize(blocks, "approximation", banded_weights(F, DEMO["alpha"]))
    coeffs = approximate(samples, fact)
    rotated = evaluate_fast(rotate_coefficients(coeffs, 3), blocks)
    shifted = np.roll(evaluate_fast(coeffs, blocks).values, 3, axis=0)
    demo_err = np.linalg.norm(rotated.values - shifted) / np.linalg.norm(shifted)
    ok = worst <= 1e-12 and demo_err <= 1e-12
    _report(7, "rotation exactness", ok, f"random worst {worst:.1e}, image demo {demo_err:.1e}")


def test_criterion_8_translation_pattern():
    E, F, blocks, samples = _demo_setup()
    xi = np.asarray(DEMO["shift"])
    ratios = {}
    for mode in ("interpolation", "approximation"):
        weights = banded_weights(F, DEMO["alpha"]) if mode == "approximation" else None
        fact = prefactorize(blocks, mode, weights)
        coeffs = interpolate(samples, fact) if mode == "interpolation" else approximate(samples, fact)
        ev = np.linalg.norm(evaluate_fast(coeffs, blocks).values)
        tr = np.linalg.norm(evaluate_fast(translate_coefficients(coeffs, xi), blocks).values)
        ratios[mode] = tr / ev
    ok = ratios["interpolation"] >= 100.0 and 0.5 <= ratios["approximation"] <= 2.0
    _report(
        8,
        "translation pattern",
        ok,
        f"interpolation blow-up {ratios['interpolation']:.1e}x, "
        f"approximation {ratios['approximation']:.2f}x",
    )


def test_criterion_9_performance():
    rep = bench_evaluate([64], [128], repetitions=5, seed=0)
    rec = rep.records[0]
    speedup = rec.t_naive / rec.t_fast
    times = bench_solve_scaling(64, [32, 64, 128], repetitions=50)
    # Q^2 model: each doubling should multiply per-bin solve time by 4,
    # "within 2x" of the model means the measured factor lies in [2, 8].
    factors = (times[64] / times[32], times[128] / times[64])
    scaling_ok = all(2.0 <= f <= 8.0 for f in factors)
    opt = optimal_N(1000)
    ok = speedup >= 10.0 and scaling_ok and opt == 10
    _report(
        9,
        "performance",
        ok,
        f"fast speedup {speedup:.0f}x, solve doubling factors "
        f"{factors[0]:.2f}/{factors[1]:.2f}, optimal_N(1000)={opt}",
    )
