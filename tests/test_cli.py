import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rotap import (
    build_polar_grid,
    evaluate_fast,
    evaluate_naive,
    assemble_blocks,
    load_coefficients,
    load_grid,
    load_samples,
    save_coefficients,
    save_samples,
    ApCoefficients,
    SampleArray,
)
from rotap.cli import main
from rotap.grids import RotInvariantGrid, SlicePoint

from conftest import demo_grids


def freq_twin(grid):
    return RotInvariantGrid(grid.N, grid.points, "frequency").validate()


# On the 2-ray N=4 grid, radii 1, 2, 3 keep every zero-weight normal matrix
# J* J within the solve commands' gate (kappa_1 at most 4.9e3); the radii
# 0.5, 1.1, 2.0 of TestEvaluateSolveRoundtrip reach 4.2e13 in bin 0.
WELL_POSED_RADII = [1.0, 2.0, 3.0]


class TestGridCommand:
    def test_polar_build_and_save(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["grid", "--polar", "--rays", "2", "--radii", "0.5,1.5", "--N", "6", "--out", str(out)])
        assert rc == 0
        assert "slice-points=4" in capsys.readouterr().out
        g = load_grid(out)
        assert g.N == 6 and len(g.points) == 4

    def test_from_points(self, tmp_path, capsys):
        src = tmp_path / "pts.json"
        src.write_text(json.dumps({"N": 4, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
        rc = main(["grid", "--from-points", str(src)])
        assert rc == 0
        assert "slice-points=1" in capsys.readouterr().out

    def test_usage_error_without_mode(self, capsys):
        assert main(["grid"]) == 2

    def test_polar_missing_args(self, capsys):
        assert main(["grid", "--polar"]) == 2

    def test_grid_error_exit_3(self, tmp_path):
        src = tmp_path / "pts.json"
        src.write_text(json.dumps({"N": 4, "points": [[1, 0], [0, 1]]}))
        assert main(["grid", "--from-points", str(src)]) == 3

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestEvaluateSolveRoundtrip:
    @pytest.fixture
    def setup(self, tmp_path, rng):
        E = build_polar_grid(2, [0.5, 1.1, 2.0], 4, kind="spatial")
        F = freq_twin(E)
        gpath = tmp_path / "grid.json"
        from rotap import save_grid

        save_grid(E, gpath)
        coeffs = ApCoefficients(
            rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)), F
        )
        cpath = tmp_path / "coeffs.bin"
        save_coefficients(cpath, coeffs)
        return E, F, gpath, coeffs, cpath

    def test_evaluate_fast_matches_library(self, setup, tmp_path, capsys):
        E, F, gpath, coeffs, cpath = setup
        out = tmp_path / "samples.bin"
        rc = main(["evaluate", str(cpath), "--grid", str(gpath), "--out", str(out), "--check-oracle"])
        assert rc == 0
        assert "oracle max relative deviation" in capsys.readouterr().out
        got = load_samples(out)
        want = evaluate_fast(coeffs, assemble_blocks(E, F))
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    def test_naive_flag(self, setup, tmp_path):
        E, F, gpath, coeffs, cpath = setup
        out_fast = tmp_path / "s1.bin"
        out_naive = tmp_path / "s2.bin"
        assert main(["evaluate", str(cpath), "--grid", str(gpath), "--out", str(out_fast)]) == 0
        assert main(["evaluate", str(cpath), "--grid", str(gpath), "--out", str(out_naive), "--naive"]) == 0
        np.testing.assert_allclose(
            load_samples(out_fast).values, load_samples(out_naive).values, atol=1e-10
        )

    def test_naive_takes_another_N(self, setup, tmp_path, capsys):
        # The dense oracle needs no common N; the fast path's assembly refuses the pair.
        E, F, gpath, coeffs, cpath = setup
        F8 = build_polar_grid(2, [0.7, 1.9], 8, kind="frequency")
        c8 = ApCoefficients(np.ones((8, 4)), F8)
        save_coefficients(cpath, c8)
        out = tmp_path / "s.bin"
        assert main(["evaluate", str(cpath), "--grid", str(gpath), "--out", str(out), "--naive"]) == 0
        np.testing.assert_array_equal(load_samples(out).values, evaluate_naive(c8, E).values)
        capsys.readouterr()
        rc = main(["evaluate", str(cpath), "--grid", str(gpath), "--out", str(tmp_path / "f.bin")])
        assert_error(capsys, rc, 3, "grid error:")

    def test_interpolate_recovers_coefficients(self, setup, tmp_path):
        E, F, gpath, coeffs, cpath = setup
        spath = tmp_path / "samples.bin"
        save_samples(spath, evaluate_fast(coeffs, assemble_blocks(E, F)))
        out = tmp_path / "rec.bin"
        rc = main(["interpolate", str(spath), "--out", str(out), "--check-oracle"])
        assert rc == 0
        rec = load_coefficients(out)
        np.testing.assert_allclose(rec.values, coeffs.values, atol=1e-8)

    def test_approximate_zero_weights(self, tmp_path, rng):
        # CLI plumbing only: the command must reproduce the library solve
        # bit-for-bit (solver accuracy itself is covered in test_transform).
        from rotap import Weights, approximate, prefactorize

        E = build_polar_grid(2, WELL_POSED_RADII, 4, kind="spatial")
        F = freq_twin(E)
        blocks = assemble_blocks(E, F)
        coeffs = ApCoefficients(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)), F)
        samples = evaluate_fast(coeffs, blocks)
        spath = tmp_path / "samples.bin"
        save_samples(spath, samples)
        out = tmp_path / "rec.bin"
        rc = main(["approximate", str(spath), "--out", str(out), "--weights", "zero"])
        assert rc == 0
        rec = load_coefficients(out)
        want = approximate(samples, prefactorize(blocks, "approximation", Weights.zero(4, 6)))
        np.testing.assert_allclose(rec.values, want.values, atol=1e-12)

    def test_ill_conditioned_approximation_exit_4(self, setup, tmp_path, capsys):
        # With zero weights the normal matrix of bin 0 has kappa_1 4.2e13,
        # beyond the command's limit, though LAPACK inverts it.
        E, F, gpath, coeffs, cpath = setup
        spath, out = tmp_path / "samples.bin", tmp_path / "rec.bin"
        save_samples(spath, evaluate_fast(coeffs, assemble_blocks(E, F)))
        rc = main(["approximate", str(spath), "--out", str(out), "--weights", "zero"])
        err = capsys.readouterr().err
        assert rc == 4 and err.startswith("well-posedness error: block for DFT bin 0 ") and "Traceback" not in err
        assert not out.exists()

    def test_missing_input_exit_5(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "nope.bin"), "--grid", "g", "--out", "o"]) == 5

    @pytest.mark.parametrize(
        "header",
        ['[1,2]', '{"N":-4,"count":2}', '{"N":4.5,"count":2}'],
        ids=["list", "negative-N", "fractional-N"],
    )
    def test_bad_header_exit_5(self, tmp_path, capsys, header):
        cpath = tmp_path / "c.bin"
        cpath.write_bytes(header.encode() + b"\n" + bytes(128))
        rc = main(["evaluate", str(cpath), "--grid", "g", "--out", str(tmp_path / "o.bin")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("I/O error:") and "must be" in err and "Traceback" not in err

    def test_deeply_nested_header_exit_5(self, tmp_path, capsys):
        cpath = tmp_path / "c.bin"
        cpath.write_bytes(b"[" * 200000 + b"]" * 200000 + b"\n" + bytes(128))
        rc = main(["evaluate", str(cpath), "--grid", "g", "--out", str(tmp_path / "o.bin")])
        assert_error(capsys, rc, 5, "I/O error:")

    def test_grid_path_relative_to_data_file(self, setup, tmp_path, monkeypatch):
        E, F, gpath, coeffs, cpath = setup
        sub = tmp_path / "sub"
        sub.mkdir()
        from rotap import save_grid

        save_grid(F, sub / "F.json")
        save_coefficients(sub / "c.bin", coeffs, grid_path="F.json")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "s.bin"
        assert main(["evaluate", "sub/c.bin", "--grid", str(gpath), "--out", str(out)]) == 0
        np.testing.assert_allclose(load_samples(out).values, evaluate_fast(coeffs, assemble_blocks(E, F)).values)

    @pytest.mark.parametrize(
        "weights, code, prefix",
        [
            ("1,2,3\n", 3, "grid error:"),
            ("1,-2\n" + "1,2\n" * 3, 2, "usage error:"),
            ("a,b\n", 5, "I/O error:"),
            ("", 5, "I/O error:"),
        ],
        ids=["shape-mismatch", "negative", "unparseable", "empty"],
    )
    def test_bad_weights_exit_code(self, tmp_path, capsys, weights, code, prefix):
        E = build_polar_grid(1, [0.5, 1.5], 4, kind="spatial")
        spath = tmp_path / "s.bin"
        save_samples(spath, SampleArray(np.ones((4, 2), dtype=complex), E))
        wpath = tmp_path / "w.csv"
        wpath.write_text(weights)
        rc = main(["approximate", str(spath), "--weights", str(wpath), "--out", str(tmp_path / "o.bin")])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(prefix) and "Traceback" not in err

    def test_ill_posed_exit_4(self, tmp_path, rng):
        # Two slice points separated by 1e-10 pass grid validation but make
        # every block numerically singular.
        pts = (SlicePoint(1.0, 0.1), SlicePoint(1.0, 0.1 + 1e-10))
        E = RotInvariantGrid(4, pts, "spatial").validate()
        from rotap import save_grid

        spath = tmp_path / "samples.bin"
        save_samples(spath, evaluate_fast(
            ApCoefficients(rng.standard_normal((4, 2)) + 0j, freq_twin(E)),
            assemble_blocks(E, freq_twin(E)),
        ))
        assert main(["interpolate", str(spath), "--out", str(tmp_path / "o.bin")]) == 4

    def test_ill_conditioned_interpolation_exit_4(self, tmp_path, capsys):
        # The demo grid's blocks invert without a LAPACK error, but their
        # condition numbers (up to 1e19) exceed the command's limit.
        E, F = demo_grids()
        spath = tmp_path / "samples.bin"
        save_samples(spath, SampleArray(np.ones((E.N, len(E.points)), dtype=complex), E))
        rc = main(["interpolate", str(spath), "--out", str(tmp_path / "o.bin")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("well-posedness error:") and "Traceback" not in err
        assert not (tmp_path / "o.bin").exists()


class TestFrequencyGrid:
    """--frequency-grid: the CLI's only route to a fit with P != Q."""

    @pytest.fixture
    def files(self, tmp_path, rng):
        from rotap import save_grid

        E = build_polar_grid(1, np.linspace(1, 4, 12), 8, kind="spatial")
        F = build_polar_grid(1, np.linspace(1, 4, 6), 8, kind="frequency")
        samples = SampleArray(rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12)), E)
        spath, fpath = tmp_path / "s.bin", tmp_path / "F.json"
        save_samples(spath, samples)
        save_grid(F, fpath)
        return samples, F, spath, fpath

    def test_approximate_P_greater_than_Q(self, files, tmp_path):
        from rotap import Weights, approximate, prefactorize

        samples, F, spath, fpath = files
        out = tmp_path / "o.bin"
        assert main(["approximate", str(spath), "--frequency-grid", str(fpath), "--out", str(out)]) == 0
        blocks = assemble_blocks(samples.spatial_grid, F)
        want = approximate(samples, prefactorize(blocks, "approximation", Weights.zero(8, 6)))
        np.testing.assert_allclose(load_coefficients(out).values, want.values, rtol=0, atol=1e-12)

    def test_interpolate_P_not_Q_exit_3(self, files, tmp_path, capsys):
        _, _, spath, fpath = files
        rc = main(["interpolate", str(spath), "--frequency-grid", str(fpath), "--out", str(tmp_path / "o.bin")])
        assert_error(capsys, rc, 3, "grid error: interpolation requires P == Q")

    def test_interpolate_origin_grid_exit_3(self, tmp_path, capsys):
        # All 6 rotations fix the origin: 13 distinct points for 18 coefficients.
        from rotap import save_grid

        E = RotInvariantGrid(6, (SlicePoint(0.0, 0.0), SlicePoint(1.0, 0.0), SlicePoint(2.0, 0.0)), "spatial").validate()
        spath, fpath, out = tmp_path / "s.bin", tmp_path / "F.json", tmp_path / "o.bin"
        save_samples(spath, SampleArray(np.ones((6, 3)), E))
        save_grid(build_polar_grid(1, [0.7, 1.4, 2.1], 6, kind="frequency"), fpath)
        rc = main(["interpolate", str(spath), "--frequency-grid", str(fpath), "--out", str(out)])
        assert_error(capsys, rc, 3, "grid error: interpolation cannot use a spatial grid that holds the origin")
        assert not out.exists()

    @pytest.mark.parametrize(
        "points",
        [(SlicePoint(1.0, 0.0), SlicePoint(1.0, np.pi / 2 - 1e-14)), (SlicePoint(1e-14, 0.3),)],
        ids=["copies-1e-14-apart", "radius-1e-14"],
    )
    def test_interpolate_full_grid_duplicates_exit_3(self, tmp_path, capsys, points):
        # Distinct slice points whose full-grid copies coincide within DUPLICATE_TOL.
        from rotap import save_grid

        E = RotInvariantGrid(4, points, "spatial")
        spath, fpath, out = tmp_path / "s.bin", tmp_path / "F.json", tmp_path / "o.bin"
        save_samples(spath, SampleArray(np.ones((4, len(points))), E))
        save_grid(build_polar_grid(1, [0.7, 1.4][: len(points)], 4, kind="frequency"), fpath)
        rc = main(["interpolate", str(spath), "--frequency-grid", str(fpath), "--out", str(out)])
        assert_error(capsys, rc, 3, "grid error:")
        assert not out.exists()


_IMPORT_PROBE = """
import sys
from rotap.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

spath, out = sys.argv[1], sys.argv[2]
print("probe", scipy_modules())
rc = main(["approximate", spath, "--out", out, "--weights", "zero"])
print("probe", rc, scipy_modules())
print("probe", main(["interpolate", spath, "--out", out]), scipy_modules())
"""


def test_approximate_does_not_import_scipy(tmp_path):
    # Importing the CLI and fitting by approximation or interpolation stay on
    # numpy and do not pay for loading scipy.
    E = build_polar_grid(2, WELL_POSED_RADII, 4, kind="spatial")
    spath = tmp_path / "samples.bin"
    save_samples(spath, evaluate_fast(
        ApCoefficients(np.ones((4, 6), dtype=complex), freq_twin(E)), assemble_blocks(E, freq_twin(E))
    ))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(spath), str(tmp_path / "o.bin")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    probes = [line for line in proc.stdout.splitlines() if line.startswith("probe ")]
    assert probes == ["probe []", "probe 0 []", "probe 0 []"]


def test_closed_stdout_exits_0_quietly():
    # A reader that closes the pipe early, as `rotap bench | head -1` does, is
    # not an I/O error: the command exits 0 with nothing on stderr.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rotap.cli", "bench", "--optimal-N", "1000"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


class TestBenchCommand:
    def test_optimal_N(self, capsys):
        assert main(["bench", "--optimal-N", "1000"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    @pytest.mark.parametrize(
        "flags",
        [["--optimal-N", "5"], ["--repetitions", "2"]],
        ids=["optimal-N", "repetitions"],
    )
    def test_bad_argument_exit_2(self, capsys, flags):
        rc = main(["bench", "--N", "4", "--Q", "6"] + flags)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and "Traceback" not in err

    @staticmethod
    def bench_report(tmp_path, capsys, Q):
        """The JSON report of ``rotap bench --N 4 --Q <Q...> --out``, after checking stdout equals the file."""
        out = tmp_path / "bench.json"
        rc = main(["bench", "--N", "4", "--Q", *map(str, Q), "--repetitions", "3", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        return json.loads(out.read_text())

    def test_small_bench_json(self, tmp_path, capsys):
        report = self.bench_report(tmp_path, capsys, [6])
        assert set(report) == {"nproc", "openblas_threads", "records"}
        assert report["nproc"] >= 1
        assert report["openblas_threads"] is None or report["openblas_threads"] >= 1
        [record] = report["records"]
        assert set(record) == {
            "N", "P", "Q", "t_naive", "t_assemble", "t_fast", "t_prefactorize", "t_solve",
            "t_min", "t_max", "r", "conditions", "oracle_rel_error",
        }
        assert (record["N"], record["P"], record["Q"]) == (4, 6, 6)
        assert len(record["conditions"]) == 4 and record["oracle_rel_error"] < 1e-10

    def test_several_Q_report_per_bin_solve(self, tmp_path, capsys):
        report = self.bench_report(tmp_path, capsys, [6, 12])
        assert [r["Q"] for r in report["records"]] == [6, 12]
        # JSON object keys are strings: {N: {Q: seconds}}.
        solve = report["per_bin_solve"]
        assert list(solve) == ["4"] and list(solve["4"]) == ["6", "12"]
        assert all(t > 0 for t in solve["4"].values())


class TestVerifyRepCommand:
    def test_passes(self, capsys):
        rc = main(["verify-rep", "--N", "5", "--seeds", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "commutant dimension:    1" in out

    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_bad_N_exit_2(self, capsys, N):
        rc = main(["verify-rep", "--N", N, "--seeds", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exit_2(self, capsys, seeds):
        # With no seed no homomorphism or unitarity check runs, so there is no result to report.
        rc = main(["verify-rep", "--N", "4", "--seeds", seeds])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("usage error: --seeds must be >= 1") and "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1"])
    def test_negative_seed_exit_2(self, capsys, seed):
        # numpy's default_rng refuses a negative seed with ValueError, which would end in a traceback.
        rc = main(["verify-rep", "--N", "3", "--seed", seed])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("usage error: --seed must be >= 0") and err.count("\n") == 1


@pytest.fixture
def smoke_image(tmp_path):
    """A 32 x 32 CSV image and an N=8 grid whose interpolation blocks are singular (kappa_1 5.2e17)."""
    from rotap import save_grid, synthetic_image

    ipath = tmp_path / "img.csv"
    np.savetxt(ipath, synthetic_image(32, 32, seed=3).pixels, delimiter=",")
    gpath = tmp_path / "grid.json"
    save_grid(build_polar_grid(3, np.linspace(0.4, 1.4, 4), 8, kind="spatial"), gpath)
    return ipath, gpath


class TestDemoImageCommand:
    def test_smoke_norm_table(self, tmp_path, capsys, smoke_image):
        ipath, gpath = smoke_image
        out = tmp_path / "norms.csv"
        rc = main([
            "demo-image", str(ipath), "--grid", str(gpath), "--scale", "10",
            "--alpha", "100", "--out", str(out), "--out-prefix", str(tmp_path / "demo"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split("\t") == [
            "mode", "norm_coeffs", "norm_eval", "norm_rotated", "norm_translated",
        ]
        assert "interpolation" in text and "approximation" in text
        assert out.exists()
        assert (tmp_path / "demo.interpolation.coeffs.bin").exists()
        assert (tmp_path / "demo.approximation.translated.bin").exists()

    def test_ill_conditioned_fit_warns(self, capsys, smoke_image):
        ipath, gpath = smoke_image
        rc = main(["demo-image", str(ipath), "--grid", str(gpath), "--scale", "10", "--alpha", "100"])
        captured = capsys.readouterr()
        assert rc == 0
        # One stderr line names the worst interpolation bin; approximation is
        # well conditioned and the stdout table keeps its three 5-column rows.
        (warning,) = captured.err.splitlines()
        assert warning.startswith("warning: interpolation may be inaccurate: block for DFT bin ")
        assert "1-norm condition number" in warning
        rows = [line.split("\t") for line in captured.out.splitlines()]
        assert [row[0] for row in rows] == ["mode", "interpolation", "approximation"]
        assert all(len(row) == 5 for row in rows)

    def test_readme_recipe_translation_pattern(self, tmp_path, capsys):
        # The README's image-demo recipe; criterion 8's thresholds on the ratio
        # norm_translated / norm_eval.
        from rotap import synthetic_image

        ipath, gpath = tmp_path / "synth.csv", tmp_path / "demo.json"
        np.savetxt(ipath, synthetic_image().pixels, delimiter=",")
        radii = ",".join(repr(float(r)) for r in np.geomspace(0.3, 2.5, 6))
        assert main(["grid", "--polar", "--rays", "3", "--radii", radii, "--N", "8", "--out", str(gpath)]) == 0
        capsys.readouterr()
        rc = main(["demo-image", str(ipath), "--grid", str(gpath), "--scale", "15", "--alpha", "1"])
        assert rc == 0
        header, *rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        table = {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}
        ratio = {mode: t["norm_translated"] / t["norm_eval"] for mode, t in table.items()}
        assert ratio["interpolation"] >= 100
        assert 0.5 <= ratio["approximation"] <= 2

    def test_far_points_sample_zero(self, tmp_path, capsys):
        # At scale 1e300 every grid point lies far outside the image: the fits
        # see zero samples, with no numpy warning on the way.
        from rotap import save_grid, synthetic_image

        ipath, gpath = tmp_path / "img.csv", tmp_path / "grid.json"
        np.savetxt(ipath, synthetic_image(16, 16, seed=3).pixels, delimiter=",")
        save_grid(build_polar_grid(2, [0.5, 1.1, 2.0], 4, kind="spatial"), gpath)
        rc = main(["demo-image", str(ipath), "--grid", str(gpath), "--scale", "1e300"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["interpolation", "approximation"]
        assert all(float(v) == 0 for row in rows for v in row[1:])

    def test_missing_image_exit_5(self, tmp_path):
        E = build_polar_grid(1, [1.0], 4)
        from rotap import save_grid

        gpath = tmp_path / "grid.json"
        save_grid(E, gpath)
        assert main(["demo-image", str(tmp_path / "none.pgm"), "--grid", str(gpath)]) == 5


def assert_error(capsys, rc, code, prefix):
    """Check the exit code and stderr prefix; return stdout."""
    out, err = capsys.readouterr()
    assert rc == code
    assert err.startswith(prefix) and "Traceback" not in err
    return out


class TestErrorContract:
    """Inputs that once ended in a Python traceback with exit 1."""

    @pytest.fixture
    def spath(self, tmp_path):
        E = build_polar_grid(1, [0.5, 1.5], 4, kind="spatial")
        spath = tmp_path / "s.bin"
        save_samples(spath, SampleArray(np.ones((4, 2), dtype=complex), E))
        return spath

    # 1e200 gives weights that square to inf in the normal matrix.
    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf", "1e200"])
    def test_bad_alpha_exit_2(self, tmp_path, capsys, spath, smoke_image, alpha):
        out = str(tmp_path / "o.bin")
        rc = main(["approximate", str(spath), "--weights-scheme", "paper", "--alpha", alpha, "--out", out])
        assert_error(capsys, rc, 2, "usage error:")
        ipath, gpath = smoke_image
        rc = main(["demo-image", str(ipath), "--grid", str(gpath), "--alpha", alpha])
        assert_error(capsys, rc, 2, "usage error:")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("approximate", ["--alpha", "nan"]),
            ("demo-image", ["--weights", "zero", "--alpha", "1"]),
            ("approximate", ["--weights-scheme", "paper", "--weights", "zero"]),
            ("demo-image", ["--weights-scheme", "paper", "--weights", "zero"]),
        ],
        ids=["approximate-alpha-without-scheme", "demo-alpha-beside-weights", "approximate-scheme-beside-weights",
             "demo-scheme-beside-weights"],
    )
    def test_unread_weight_argument_exit_2(self, tmp_path, capsys, spath, smoke_image, command, flags):
        # --alpha that no scheme reads, or --weights-scheme that --weights
        # overrides, was once dropped without a word.
        ipath, gpath = smoke_image
        inputs = [str(spath), "--out", str(tmp_path / "o.bin")] if command == "approximate" else [str(ipath), "--grid", str(gpath)]
        assert assert_error(capsys, main([command, *inputs, *flags]), 2, "usage error:") == ""
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize(
        "geometry",
        [["--scale", "nan"], ["--scale", "inf"], ["--shift", "nan", "0"], ["--shift", "1e308", "1e308"]],
        ids=["scale-nan", "scale-inf", "shift-nan", "shift-overflows-the-phases"],
    )
    def test_bad_demo_geometry_exit_2(self, capsys, smoke_image, geometry):
        ipath, gpath = smoke_image
        rc = main(["demo-image", str(ipath), "--grid", str(gpath), *geometry])
        assert assert_error(capsys, rc, 2, "usage error:") == ""

    def test_overflowing_products_exit_2(self, tmp_path, capsys):
        # Radii near the largest double make xi*rho overflow, which would give
        # all-NaN samples; the command must refuse the grids instead, on the
        # fast path and on the dense oracle alike.
        gpath, out = tmp_path / "g.json", tmp_path / "s.bin"
        assert main(["grid", "--polar", "--rays", "1", "--radii", "1e308,1.5e308", "--N", "4", "--out", str(gpath)]) == 0
        capsys.readouterr()
        save_coefficients(tmp_path / "c.bin", ApCoefficients(np.ones((4, 2)), freq_twin(load_grid(gpath))))
        for flags in ([], ["--naive"]):
            rc = main(["evaluate", str(tmp_path / "c.bin"), "--grid", str(gpath), "--out", str(out), *flags])
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("usage error:") and "not finite" in err and "Traceback" not in err
            assert len(err.splitlines()) == 1
            assert not out.exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # Grids with N = 1000000 ask block assembly for hundreds of GiB; the
        # stand-in raises as that allocation does, without allocating.
        def too_large(*args):
            raise MemoryError("Unable to allocate 466. GiB for an array")

        monkeypatch.setattr("rotap.cli.assemble_blocks", too_large)
        gpath, out = tmp_path / "g.json", tmp_path / "s.bin"
        assert main(["grid", "--polar", "--rays", "1", "--radii", "1,2", "--N", "4", "--out", str(gpath)]) == 0
        capsys.readouterr()
        save_coefficients(tmp_path / "c.bin", ApCoefficients(np.ones((4, 2)), freq_twin(load_grid(gpath))))
        rc = main(["evaluate", str(tmp_path / "c.bin"), "--grid", str(gpath), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("usage error:") and "466. GiB" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, code, prefix",
        [
            ("[[1, 0], [0, 1], [-1, 0], [0, -1]]", 2, "usage error:"),
            ('{"N": 4}', 5, "I/O error:"),
            ('{"N": 4, "points": [[1, 0], [0, 1]', 5, "I/O error:"),
            ('{"N": 4, "points": [1, 0, 0, 1, -1]}', 5, "I/O error:"),
            ("[" * 200000 + "]" * 200000, 5, "I/O error:"),
            # A one-point orbit must be refused without allocating anything of size N.
            ('{"N": 1000000000000, "points": [[1, 0]]}', 3, "grid error:"),
            ('{"N": 4, "points": [[NaN, 0], [0, 1], [-1, 0], [0, -1]]}', 5, "I/O error:"),
            ('{"N": 4.0, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}', 5, "I/O error:"),
        ],
        ids=["list-without-N", "no-points", "malformed-json", "odd-coordinates", "deep-nesting", "huge-N",
             "non-finite-point", "non-integer-N"],
    )
    def test_bad_points_file_exit_code(self, tmp_path, capsys, text, code, prefix):
        src = tmp_path / "pts.json"
        src.write_text(text)
        assert_error(capsys, main(["grid", "--from-points", str(src)]), code, prefix)

    @pytest.mark.parametrize("pixels", ["", "0.1,nan\n0.2,0.3\n"], ids=["empty", "nan"])
    def test_bad_csv_image_exit_5(self, tmp_path, capsys, smoke_image, pixels):
        _, gpath = smoke_image
        ipath = tmp_path / "bad.csv"
        ipath.write_text(pixels)
        assert_error(capsys, main(["demo-image", str(ipath), "--grid", str(gpath)]), 5, "I/O error:")

    @pytest.mark.parametrize(
        "pgm",
        [
            b"P5\n2 2\n100\n\x00\x10\xff\x20",
            b"P5\n2 1\n1000\n\x03\xe8\x03\xe9",
            b"P2\n2 2\n10\n1 2 11 3\n",
            b"P2\n2 2\n10\n20 -3 1 2\n",
            b"P2\n1 1\n0\n0\n",
            b"P5\n1 1\n65536\n\x00\x01",
            # int() refuses a decimal string of more than 4300 digits.
            b"P5\n" + b"1" * 4301 + b" 1\n255\n\x00",
        ],
        ids=["p5-8bit-above-maxval", "p5-16bit-above-maxval", "p2-above-maxval", "p2-negative", "maxval-0",
             "maxval-65536", "width-4301-digits"],
    )
    def test_pgm_format_violation_exit_5(self, tmp_path, capsys, smoke_image, pgm):
        _, gpath = smoke_image
        ipath = tmp_path / "bad.pgm"
        ipath.write_bytes(pgm)
        rc = main(["demo-image", str(ipath), "--grid", str(gpath)])
        err = capsys.readouterr().err
        assert rc == 5 and err.startswith("I/O error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["demo-image", "approximate"])
    def test_empty_csv_exit_5_with_one_stderr_line(self, tmp_path, smoke_image, command):
        # In a plain process, where no test setting turns warnings into errors,
        # loadtxt's no-data warning must not reach stderr beside the error line.
        _, gpath = smoke_image
        empty = tmp_path / "e.csv"
        empty.write_text("")
        if command == "demo-image":
            argv = ["demo-image", str(empty), "--grid", str(gpath)]
        else:
            spath = tmp_path / "s.bin"
            save_samples(spath, SampleArray(np.ones((4, 2), dtype=complex), build_polar_grid(1, [0.5, 1.5], 4)))
            argv = ["approximate", str(spath), "--weights", str(empty), "--out", str(tmp_path / "o.bin")]
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rotap.cli", *argv],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 5
        (line,) = proc.stderr.splitlines()
        assert line.startswith("I/O error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grid", "--polar", "--rays", "1", "--radii", "a,b", "--N", "4"], "argument --radii: invalid"),
            (["interpolate", "s.bin", "--out", "o.bin", "--alpha", "1"], "unrecognized arguments: --alpha 1"),
        ],
        ids=["radii", "interpolate-alpha"],
    )
    def test_bad_argument_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert message in err and "Traceback" not in err
