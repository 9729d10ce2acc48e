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

    def test_interpolate_recovers_coefficients(self, setup, tmp_path):
        E, F, gpath, coeffs, cpath = setup
        spath = tmp_path / "samples.bin"
        save_samples(spath, evaluate_fast(coeffs, assemble_blocks(E, F)))
        out = tmp_path / "rec.bin"
        rc = main(["interpolate", str(spath), "--out", str(out), "--check-oracle"])
        assert rc == 0
        rec = load_coefficients(out)
        np.testing.assert_allclose(rec.values, coeffs.values, atol=1e-8)

    def test_approximate_zero_weights(self, setup, tmp_path):
        # CLI plumbing only: the command must reproduce the library solve
        # bit-for-bit (solver accuracy itself is covered in test_transform).
        from rotap import Weights, approximate, prefactorize

        E, F, gpath, coeffs, cpath = setup
        blocks = assemble_blocks(E, F)
        samples = evaluate_fast(coeffs, blocks)
        spath = tmp_path / "samples.bin"
        save_samples(spath, samples)
        out = tmp_path / "rec.bin"
        rc = main(["approximate", str(spath), "--out", str(out), "--weights", "zero"])
        assert rc == 0
        rec = load_coefficients(out)
        want = approximate(samples, prefactorize(blocks, "approximation", Weights.zero(4, 6)))
        np.testing.assert_allclose(rec.values, want.values, atol=1e-12)

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
        ],
        ids=["shape-mismatch", "negative", "unparseable"],
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
    E = build_polar_grid(2, [0.5, 1.1, 2.0], 4, kind="spatial")
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

    def test_small_bench_with_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["bench", "--N", "4", "--Q", "6", "--repetitions", "3", "--out", str(out), "--conditioning"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "t_naive\tt_assemble" in text and "conditioning N=4" in text
        assert out.read_text().startswith("N,P,Q,")


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


class TestDemoImageCommand:
    def test_smoke_norm_table(self, tmp_path, capsys):
        from rotap import synthetic_image

        img = synthetic_image(32, 32, seed=3)
        ipath = tmp_path / "img.csv"
        np.savetxt(ipath, img.pixels, delimiter=",")
        E = build_polar_grid(3, np.linspace(0.4, 1.4, 4), 8, kind="spatial")
        from rotap import save_grid

        gpath = tmp_path / "grid.json"
        save_grid(E, gpath)
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

    def test_missing_image_exit_5(self, tmp_path):
        E = build_polar_grid(1, [1.0], 4)
        from rotap import save_grid

        gpath = tmp_path / "grid.json"
        save_grid(E, gpath)
        assert main(["demo-image", str(tmp_path / "none.pgm"), "--grid", str(gpath)]) == 5
