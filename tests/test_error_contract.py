"""The CLI's error contract: every failure ends in a documented exit code.

Each ``RotapError`` class carries the code and stderr label that
``rotap.cli.main`` uses.  The fuzz tests feed mutated and truncated versions
of every file format the CLI reads to ``main`` in-process and assert that it
returns 0/2/3/4/5 (or that argparse exits 2), never letting another
exception escape.
"""

import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotap import (
    ApCoefficients,
    assemble_blocks,
    build_polar_grid,
    errors,
    evaluate_fast,
    save_coefficients,
    save_grid,
    save_samples,
)
from rotap.cli import main
from rotap.grids import RotInvariantGrid
from rotap.image import load_image

DOCUMENTED_CODES = {0, 2, 3, 4, 5}

# Deterministic, bounded runs: the whole module adds a few seconds to tier 1.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Replacement bytes: digits and signs that keep numbers numbers, JSON
# punctuation, non-finite spellings and a byte that is not UTF-8.
_TOKENS = (b"", b"0", b"7", b"-", b".", b"e", b",", b":", b"[", b"]", b"{", b"}", b'"', b" ", b"\n",
           b"nan", b"1e999", b"null", b"\xff")


def test_exit_code_table():
    expected = {
        errors.DomainError: (2, "usage error"),
        errors.InsufficientSample: (2, "usage error"),
        errors.GridError: (3, "grid error"),
        errors.InvalidGrid: (3, "grid error"),
        errors.NotInvariant: (3, "grid error"),
        errors.TrivialStabilizer: (3, "grid error"),
        errors.GridMismatch: (3, "grid error"),
        errors.WellPosednessError: (4, "well-posedness error"),
        errors.ParseError: (5, "I/O error"),
    }
    exported = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, errors.RotapError)}
    # The base class is never raised and sets no code of its own.
    assert exported - set(expected) == {errors.RotapError}
    assert {cls: (cls.exit_code, cls.label) for cls in expected} == expected
    # Each pair is declared by one class alone, which its subclasses inherit.
    declared = [(vars(cls).get("exit_code"), vars(cls).get("label")) for cls in exported
                if {"exit_code", "label"} & vars(cls).keys()]
    assert sorted(declared) == sorted(set(expected.values()))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` truncated, or with one to three short spans replaced by tokens."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data)))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out)))
        out[i : i + draw(st.integers(0, 2))] = draw(st.sampled_from(_TOKENS))
    return bytes(out)


@st.composite
def mutated_data_file(draw, data: bytes) -> bytes:
    """A coefficient/sample file with its JSON header or its payload mutated."""
    header, payload = data.split(b"\n", 1)
    if draw(st.booleans()):
        return draw(mutated(header)) + b"\n" + payload
    return header + b"\n" + draw(mutated(payload))


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                return main(argv)
            except SystemExit as exc:  # argparse rejecting the command line
                assert exc.code == 2
                return 2


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of every format the CLI reads, keyed by name, as bytes."""
    d = tmp_path_factory.mktemp("valid")
    E = build_polar_grid(2, [0.5, 1.1, 2.0], 4, kind="spatial")
    F = RotInvariantGrid(E.N, E.points, "frequency").validate()
    coeffs = ApCoefficients(np.arange(24).reshape(4, 6) * (0.1 + 0.2j), F)
    save_grid(E, d / "grid.json")
    save_coefficients(d / "coeffs.bin", coeffs)
    save_samples(d / "samples.bin", evaluate_fast(coeffs, assemble_blocks(E, F)))
    np.savetxt(d / "weights.csv", np.full((4, 6), 0.5), delimiter=",")
    pixels = np.linspace(0, 1, 64).reshape(8, 8)
    np.savetxt(d / "image.csv", pixels, delimiter=",")
    raw = np.round(pixels * 255).astype(np.uint8)
    files = {name: (d / name).read_bytes() for name in ("grid.json", "coeffs.bin", "samples.bin", "weights.csv", "image.csv")}
    files["points.json"] = json.dumps({"N": 4, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}).encode()
    files["image.pgm"] = b"P5\n8 8\n255\n" + raw.tobytes()
    files["ascii.pgm"] = b"P2\n8 8\n255\n" + " ".join(map(str, raw.ravel())).encode() + b"\n"
    return files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, valid):
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in valid.items():
        (d / name).write_bytes(data)
    (d / "unaddressable-grid.json").write_text(json.dumps(UNADDRESSABLE_GRID))
    return d


def check(workdir, name: str, data: bytes, argv) -> None:
    """Run ``argv`` with the argument ``name`` pointing at a file holding ``data``."""
    path = workdir / ("mutant-" + name)
    path.write_bytes(data)
    argv = [str(path) if a == name else a for a in argv]
    assert run_cli(argv) in DOCUMENTED_CODES


def test_valid_inputs_exit_0(workdir):
    # The unmutated inputs take the successful path, so every fuzz case below
    # starts from a command that works.
    for argv in (
        ["grid", "--from-points", "points.json", "--out", "g.json"],
        ["evaluate", "coeffs.bin", "--grid", "grid.json", "--out", "out.bin"],
        ["interpolate", "samples.bin", "--out", "out.bin"],
        ["approximate", "samples.bin", "--weights", "weights.csv", "--out", "out.bin"],
        ["demo-image", "image.csv", "--grid", "grid.json"],
        ["demo-image", "image.pgm", "--grid", "grid.json"],
        ["demo-image", "ascii.pgm", "--grid", "grid.json"],
    ):
        argv = [str(workdir / a) if "." in a else a for a in argv]
        assert run_cli(argv) == 0, argv


# Grid files with the right bytes but the wrong types or counts, which the
# byte-level fuzzers below do not make: an N of JSON true (a bool, not an int)
# and a grid with no slice point.
BAD_GRIDS = {
    "N-true": {"N": True, "kind": "spatial", "points": [{"radius": 1.0, "angle": 0.0}]},
    "no-points": {"N": 4, "kind": "spatial", "points": []},
}


@pytest.mark.parametrize("command", ["evaluate", "interpolate", "approximate", "demo-image"])
@pytest.mark.parametrize("grid", list(BAD_GRIDS))
def test_bad_grid_exit_3(workdir, grid, command):
    # Every command that reads the grid refuses it with one "grid error:" line.
    # The other inputs fit the grid (N=True counts as 1), so nothing else can
    # refuse them first.
    record = BAD_GRIDS[grid]
    N, count = int(record["N"]), len(record["points"])
    path = workdir / f"bad-{grid}.json"
    path.write_text(json.dumps(record))
    coeffs = workdir / f"bad-{grid}-coeffs.bin"
    save_coefficients(coeffs, ApCoefficients(np.ones((N, 1)), build_polar_grid(1, [1.0], N, kind="frequency")))
    samples = workdir / f"bad-{grid}-samples.bin"
    header = json.dumps({"N": N, "count": count, "grid": path.name}).encode()
    samples.write_bytes(header + b"\n" + np.ones(N * count, dtype="<c16").tobytes())
    out = str(workdir / "out.bin")
    argv = {
        "evaluate": ["evaluate", str(coeffs), "--grid", str(path), "--out", out],
        "interpolate": ["interpolate", str(samples), "--out", out],
        "approximate": ["approximate", str(samples), "--out", out],
        "demo-image": ["demo-image", str(workdir / "image.csv"), "--grid", str(path)],
    }[command]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(argv) == 3
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("grid error:")


@pytest.mark.parametrize("source", ["points-option", "points-file", "polar", "grid-file"])
@pytest.mark.parametrize("N", [2**63, 10**400], ids=["2^63", "10^400"])
def test_huge_N_exit_3(workdir, source, N):
    # An N past int64 once ended in a traceback: an OverflowError from folding
    # the points of grid --from-points, and past the float range from the
    # slice width of grid --polar and of a grid file.
    points = {"N": 4 if source == "points-option" else N, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}
    grid = {"N": N, "kind": "spatial", "points": [{"radius": 1.0, "angle": 0.0}]}
    path = workdir / f"huge-N-{source}.json"
    path.write_text(json.dumps(grid if source == "grid-file" else points))
    out = str(workdir / "huge-N-out.json")
    argv = {
        "points-option": ["grid", "--from-points", str(path), "--N", str(N), "--out", out],
        "points-file": ["grid", "--from-points", str(path), "--out", out],
        "polar": ["grid", "--polar", "--rays", "1", "--radii", "1", "--N", str(N), "--out", out],
        "grid-file": ["demo-image", str(workdir / "image.csv"), "--grid", str(path)],
    }[source]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(argv) == 3
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("grid error:")


# A grid file whose full point set has more bytes than sys.maxsize; radius
# 1e10, so its turned copy is no duplicate.
UNADDRESSABLE_GRID = {"N": 2**62, "kind": "spatial", "points": [{"radius": 1e10, "angle": 0.0}]}

# Arguments that once ended in a numpy traceback or warning: a negative --Q
# reached np.linspace, arrays past the address space were refused by numpy
# alone, and a scale of 1e308 overflowed the sampled points to inf.  A polar
# grid past the address space once built slice points until it was killed,
# and a grid file past it reached full_xy, which numpy refused.
BAD_ARGUMENTS = {
    "grid-rays-10^20": (["grid", "--polar", "--rays", str(10**20), "--radii", "1", "--N", "4"], 2, "usage error:"),
    "grid-rays-2^62": (["grid", "--polar", "--rays", str(2**62), "--radii", "1", "--N", "2"], 2, "usage error:"),
    "bench-Q-negative": (["bench", "--Q", "-3"], 3, "grid error: at least one radius required"),
    "bench-Q-2^62": (["bench", "--N", "2", "--Q", str(2**62)], 2, "usage error:"),
    "verify-rep-N-2^62": (["verify-rep", "--N", str(2**62)], 2, "usage error:"),
    "verify-rep-N-past-int64": (["verify-rep", "--N", "99999999999999999999"], 2, "usage error:"),
    "demo-image-scale-1e308": (["demo-image", "image.csv", "--grid", "grid.json", "--scale", "1e308"], 2, "usage error:"),
    "demo-image-grid-file-past-address-space": (
        ["demo-image", "image.pgm", "--grid", "unaddressable-grid.json"], 2, "usage error:"),
    "evaluate-naive-grid-file-past-address-space": (
        ["evaluate", "coeffs.bin", "--grid", "unaddressable-grid.json", "--naive", "--out", "out.bin"], 2, "usage error:"),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_bad_argument_refused_before_allocating(workdir, case):
    # One stderr line with the documented code, and under 1 MB allocated on
    # the way: the refusal comes before any array of the requested size.
    argv, code, start = BAD_ARGUMENTS[case]
    argv = [str(workdir / a) if a.endswith((".csv", ".json", ".pgm", ".bin")) else a for a in argv]
    stderr = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(start)
    assert peak < 2**20


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["evaluate", "interpolate", "approximate"])
def test_non_finite_payload_exit_5(workdir, valid, command, value):
    # One non-finite entry in an otherwise valid payload is refused on load
    # with one "I/O error:" line naming the file; no output is written.  The
    # byte fuzzers above do not see this: run_cli ignores warnings.
    name = "coeffs.bin" if command == "evaluate" else "samples.bin"
    header, payload = valid[name].split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<c16").copy()
    values[3] = complex(value, 0.0)
    path = workdir / f"non-finite-{command}-{name}"
    path.write_bytes(header + b"\n" + values.tobytes())
    out = workdir / f"non-finite-{command}-out.bin"
    argv = [command, str(path), "--out", str(out)]
    if command == "evaluate":
        argv += ["--grid", str(workdir / "grid.json")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(argv) == 5
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("I/O error:") and str(path) in lines[0]
    assert not out.exists()


@FUZZ
@given(data=st.data(), command=st.sampled_from(["evaluate", "evaluate --naive", "demo-image"]))
def test_fuzz_grid_json(workdir, valid, data, command):
    # The fast evaluate refuses most mutants by their N before anything builds
    # the full point set; the oracle and demo-image build it.
    bad = data.draw(mutated(valid["grid.json"]))
    evaluate = ["evaluate", str(workdir / "coeffs.bin"), "--grid", "grid.json", "--out", str(workdir / "out.bin")]
    check(workdir, "grid.json", bad, {
        "evaluate": evaluate,
        "evaluate --naive": evaluate + ["--naive"],
        "demo-image": ["demo-image", str(workdir / "image.csv"), "--grid", "grid.json"],
    }[command])


@FUZZ
@given(data=st.data())
def test_fuzz_points_json(workdir, valid, data):
    bad = data.draw(mutated(valid["points.json"]))
    check(workdir, "points.json", bad, ["grid", "--from-points", "points.json", "--out", str(workdir / "g.json")])


@FUZZ
@given(data=st.data())
def test_fuzz_coefficient_file(workdir, valid, data):
    bad = data.draw(mutated_data_file(valid["coeffs.bin"]))
    check(workdir, "coeffs.bin", bad, ["evaluate", "coeffs.bin", "--grid", str(workdir / "grid.json"),
                                       "--out", str(workdir / "out.bin")])


@FUZZ
@given(data=st.data(), command=st.sampled_from(["interpolate", "approximate"]))
def test_fuzz_sample_file(workdir, valid, data, command):
    bad = data.draw(mutated_data_file(valid["samples.bin"]))
    check(workdir, "samples.bin", bad, [command, "samples.bin", "--out", str(workdir / "out.bin")])


@FUZZ
@given(data=st.data())
def test_fuzz_weights_csv(workdir, valid, data):
    bad = data.draw(mutated(valid["weights.csv"]))
    check(workdir, "weights.csv", bad, ["approximate", str(workdir / "samples.bin"), "--weights", "weights.csv",
                                        "--out", str(workdir / "out.bin")])


@FUZZ
@given(data=st.data(), name=st.sampled_from(["image.csv", "image.pgm", "ascii.pgm"]))
def test_fuzz_image(workdir, valid, data, name):
    bad = data.draw(mutated(valid[name]))
    check(workdir, name, bad, ["demo-image", name, "--grid", str(workdir / "grid.json")])


# A read alone is cheap (about 3 ms), and the header is a small share of each
# file, so the property below draws many more mutants than the CLI runs above.
@settings(FUZZ, max_examples=1000)
@given(data=st.data(), name=st.sampled_from(["image.pgm", "ascii.pgm"]))
def test_accepted_pgm_mutants_keep_shape_and_range(workdir, valid, data, name):
    # The same mutants as test_fuzz_image, read in-process: a file the reader
    # accepts holds the image its header describes, with every pixel in [0, 1].
    bad = data.draw(mutated(valid[name]))
    path = workdir / ("read-" + name)
    path.write_bytes(bad)
    try:
        pixels = load_image(path).pixels
    except errors.ParseError:
        return
    width, height = (int(token) for token in bad.split()[1:3])  # the mutation tokens hold no '#'
    assert pixels.shape == (height, width)
    assert np.all((pixels >= 0) & (pixels <= 1))
