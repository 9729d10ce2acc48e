"""The benchmark's workloads: inputs from a seed, set-up, one operation, its check.

Every workload runs on square polar grids with one ray per slice and radii
``linspace(1, 1 + Q/2, Q)``, the spatial grid E and the frequency grid F
sharing geometry (P = Q).  All inputs are made here with numpy from the
workload seed, so that a change to rotap cannot change a workload.  The
program is reached only through the public functions of its modules, looked
up on the module at call time so that the tracer can see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import rotap.bessel as B
import rotap.cli as C
import rotap.grids as G
import rotap.transform as T

# Weight scale of the paper's banded regularization; also the CLI default.
ALPHA = 100.0
# Set-ups per run; setup_s is their median.
SETUPS = 3
EVAL_POINTS_CHECKED = 3
EVAL_TOL = 1e-10
ROUND_TRIP_TOL = 1e-8  # acceptance criterion 2
# The approximation blocks [J; diag(d)] have condition numbers near 1e2 here;
# solving the normal equations loses about kappa^2 * eps, so 1e-9 leaves margin.
LSTSQ_TOL = 1e-9
ORACLE_TOL = 1e-10
# The demo prints norms with 7 significant digits.
NORM_PRINT_TOL = 1e-6
IMAGE_SIZE = 96
CLI_TIMEOUT_S = 120
# The src/ directory rotap was imported from; CLI subprocesses import it from there too.
ROTAP_SRC = str(Path(B.__file__).resolve().parent.parent)


def square_radii(Q: int) -> np.ndarray:
    return np.linspace(1.0, 1.0 + Q / 2, Q)


def square_grids(N: int, Q: int):
    radii = square_radii(Q)
    return G.build_polar_grid(1, radii, N, "spatial"), G.build_polar_grid(1, radii, N, "frequency")


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary_dft(values: np.ndarray, inverse: bool = False) -> np.ndarray:
    return (np.fft.ifft if inverse else np.fft.fft)(values, axis=0, norm="ortho")


class Workload:
    """A workload: ``prepare`` writes set-up inputs, ``setup`` is timed as set-up,
    ``make_input`` makes one operation's input, ``op`` is the timed operation,
    ``check`` judges its output and ``finish`` releases the input.  ``batch``
    operations run back to back between checks."""

    batch = 1

    def prepare(self, rng) -> None:
        pass

    def finish(self, inp) -> None:
        pass


class Evaluate(Workload):
    """One operation: ``evaluate_fast`` on fresh random coefficients, blocks assembled in set-up."""

    batch = 32

    def __init__(self, N: int, Q: int):
        self.N, self.Q = N, Q

    def setup(self) -> None:
        E, self.F = square_grids(self.N, self.Q)
        self.blocks = B.assemble_blocks(E, self.F)
        self.full_xy = None

    def make_input(self, rng, i: int):
        coeffs = T.ApCoefficients(random_complex(rng, (self.N, self.Q)), self.F)
        points = [(int(rng.integers(self.N)), int(rng.integers(self.Q))) for _ in range(EVAL_POINTS_CHECKED)]
        return coeffs, points

    def op(self, inp):
        return T.evaluate_fast(inp[0], self.blocks)

    def check(self, inp, out, i: int) -> bool:
        """A few grid points chosen from the seed against the pointwise oracle."""
        coeffs, points = inp
        if self.full_xy is None:
            self.full_xy = self.blocks.spatial_grid.full_xy()
        values = out.values
        scale = float(np.sqrt(np.mean(np.abs(values) ** 2)))
        for n, j in points:
            ref = T.evaluate_at_point(coeffs, self.full_xy[n, j])
            if not abs(values[n, j] - ref) <= EVAL_TOL * max(abs(ref), scale):
                return False
        return True


class Fit(Workload):
    """One operation: ``interpolate`` plus ``approximate`` (paper banded weights) on one sample set."""

    batch = 16

    def __init__(self, N: int, Q: int):
        self.N, self.Q = N, Q

    def setup(self) -> None:
        self.E, F = square_grids(self.N, self.Q)
        self.blocks = B.assemble_blocks(self.E, F)
        self.weights = T.banded_weights(F, ALPHA)
        self.interp = T.prefactorize(self.blocks, "interpolation")
        self.approx = T.prefactorize(self.blocks, "approximation", self.weights)
        self.stacked = None

    def make_input(self, rng, i: int):
        """Random coefficients and their samples, computed per bin with numpy."""
        if self.stacked is None:
            self.stacked = np.asarray(self.blocks.blocks)
        coeffs = random_complex(rng, (self.N, self.Q))
        shat = np.einsum("npq,nq->np", self.stacked, unitary_dft(coeffs))
        return coeffs, T.SampleArray(unitary_dft(shat, inverse=True), self.E)

    def op(self, inp):
        samples = inp[1]
        return T.interpolate(samples, self.interp), T.approximate(samples, self.approx)

    def check(self, inp, out, i: int) -> bool:
        """Round trip of the interpolation; one approximation bin, in rotation, against dense least squares."""
        coeffs, samples = inp
        interpolated, approximated = out
        if not np.linalg.norm(interpolated.values - coeffs) <= ROUND_TRIP_TOL * np.linalg.norm(coeffs):
            return False
        b = i % self.N
        d = self.weights.values[b]
        system = np.vstack([self.stacked[b], np.diag(d)])
        rhs = np.concatenate([unitary_dft(samples.values)[b], np.zeros(self.Q)])
        expected = np.linalg.lstsq(system, rhs, rcond=None)[0]
        got = unitary_dft(approximated.values)[b]
        return bool(np.linalg.norm(got - expected) <= LSTSQ_TOL * np.linalg.norm(expected))


@dataclass
class CommandResult:
    code: int
    stdout: str


class CliImage(Workload):
    """The paper's image demo through the ``rotap`` CLI, as a user runs it.

    Set-up canonicalizes the full, shuffled point set with ``rotap grid
    --from-points``.  One operation is the pipeline ``demo-image`` ->
    ``evaluate --check-oracle`` -> ``approximate --weights-scheme paper``.
    Commands run as subprocesses, or in-process through ``rotap.cli.main``
    (the traced run).
    """

    def __init__(self, N: int, Q: int, workdir: Path, in_process: bool = False):
        self.N, self.Q = N, Q
        self.workdir = workdir
        self.in_process = in_process
        self.points = workdir / "points.json"
        self.grid = workdir / "grid.json"
        # Keep the sampled disc, of radius 1 + Q/2 grid units, inside the image.
        self.scale = 0.4 * IMAGE_SIZE / (1.0 + self.Q / 2)
        self.launcher = [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {ROTAP_SRC!r}); from rotap.cli import main; sys.exit(main(sys.argv[1:]))",
        ]

    def run(self, argv: list[str]) -> CommandResult:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = C.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return CommandResult(code, out.getvalue())
        proc = subprocess.run(
            self.launcher + argv, capture_output=True, text=True, cwd=self.workdir, timeout=CLI_TIMEOUT_S
        )
        return CommandResult(proc.returncode, proc.stdout)

    def prepare(self, rng) -> None:
        """Write the full polar point set, shuffled from the seed."""
        radii = square_radii(self.Q)
        angles = 2 * np.pi * np.arange(self.N) / self.N
        x = (radii[None, :] * np.cos(angles[:, None])).ravel()
        y = (radii[None, :] * np.sin(angles[:, None])).ravel()
        order = rng.permutation(x.size)
        points = np.column_stack([x[order], y[order]])
        self.points.write_text(json.dumps({"N": self.N, "points": points.tolist()}))

    def setup(self) -> None:
        result = self.run(["grid", "--from-points", str(self.points), "--N", str(self.N), "--out", str(self.grid)])
        if result.code != 0:
            raise RuntimeError(f"rotap grid exited with {result.code}")

    def make_input(self, rng, i: int) -> Path:
        """A fresh directory holding a smooth random PGM image."""
        opdir = self.workdir / f"op{i}"
        opdir.mkdir()
        y, x = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE] / IMAGE_SIZE
        img = np.full((IMAGE_SIZE, IMAGE_SIZE), 0.3)
        for _ in range(6):
            cx, cy = rng.uniform(0.2, 0.8, 2)
            width = rng.uniform(0.05, 0.2)
            img += rng.uniform(-0.3, 0.4) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * width**2))
        img += 0.03 * rng.standard_normal(img.shape)
        pixels = np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
        (opdir / "image.pgm").write_bytes(b"P5\n%d %d\n255\n" % (IMAGE_SIZE, IMAGE_SIZE) + pixels.tobytes())
        return opdir

    def op(self, opdir: Path) -> list[CommandResult]:
        grid = str(self.grid)
        demo = self.run(
            ["demo-image", str(opdir / "image.pgm"), "--grid", grid, "--scale", repr(self.scale),
             "--out-prefix", str(opdir / "demo")]
        )
        evaluate = self.run(
            ["evaluate", str(opdir / "demo.approximation.coeffs.bin"), "--grid", grid,
             "--out", str(opdir / "eval.bin"), "--check-oracle"]
        )
        approximate = self.run(
            ["approximate", str(opdir / "eval.bin"), "--weights-scheme", "paper", "--out", str(opdir / "fit.bin")]
        )
        return [demo, evaluate, approximate]

    def check(self, opdir: Path, out: list[CommandResult], i: int) -> bool:
        """Exit codes 0, oracle deviation within 1e-10, rotated norm equal to evaluated norm."""
        demo, evaluate, approximate = out
        if any(r.code != 0 for r in out) or not (opdir / "fit.bin").is_file():
            return False
        rows = [line.split("\t") for line in demo.stdout.splitlines()]
        table = {row[0]: [float(v) for v in row[1:]] for row in rows[1:] if len(row) == 5}
        if set(table) != {"interpolation", "approximation"}:
            return False
        for norm_coeffs, norm_eval, norm_rotated, norm_translated in table.values():
            if not abs(norm_rotated - norm_eval) <= NORM_PRINT_TOL * abs(norm_eval):
                return False
        match = re.search(r"oracle max relative deviation: (\S+)", evaluate.stdout)
        return bool(match) and float(match.group(1)) <= ORACLE_TOL

    def finish(self, opdir: Path) -> None:
        shutil.rmtree(opdir, ignore_errors=True)

    def startup_s(self, repeats: int = 3) -> float:
        """Median fresh-interpreter time to import ``rotap.cli``, minus that of a bare interpreter."""
        importing = [sys.executable, "-c", f"import sys; sys.path.insert(0, {ROTAP_SRC!r}); import rotap.cli"]
        bare = [sys.executable, "-c", "pass"]
        times = {"bare": [], "import": []}
        for _ in range(repeats):
            for key, argv in (("bare", bare), ("import", importing)):
                start = perf_counter()
                subprocess.run(argv, check=True, cwd=self.workdir, timeout=CLI_TIMEOUT_S)
                times[key].append(perf_counter() - start)
        return float(np.median(times["import"]) - np.median(times["bare"]))


NAME = re.compile(r"(eval|fit|cli-image)-n(\d+)-q(\d+)")


def make(name: str, workdir: Path, in_process: bool = False):
    """Build the workload a name like ``eval-n64-q128`` describes."""
    match = NAME.fullmatch(name)
    if not match:
        raise ValueError(f"unknown workload {name!r}")
    kind, N, Q = match.group(1), int(match.group(2)), int(match.group(3))
    if kind == "cli-image":
        return CliImage(N, Q, workdir, in_process)
    return {"eval": Evaluate, "fit": Fit}[kind](N, Q)


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Per batch: operations that passed their check over the batch's timed seconds.
    batch_rates: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        """Median over batches, so that a batch stalled by another process on the host weighs as one."""
        return statistics.median(self.batch_rates) if self.batch_rates else 0.0

    def add(self, other: "LoopResult") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.batch_rates += other.batch_rates


def timed_setups(workload, tracer=None) -> list[float]:
    """Run the set-up SETUPS times and return each duration; the last state is kept."""
    times = []
    for k in range(SETUPS):
        ctx = tracer.root("setup", -1 - k) if tracer else contextlib.nullcontext()
        start = perf_counter()
        with ctx:
            workload.setup()
        times.append(perf_counter() - start)
    return times


def closed_loop(workload, rng, seconds: float, first_op: int = 0, tracer=None, corrupt=None) -> LoopResult:
    """One caller, next operation after the last completes, until ``seconds`` of wall time pass.

    Operations run in batches of ``workload.batch``: the batch's inputs are
    made first, its operations then run back to back, each timed on its own,
    and their outputs are checked after the batch.  Checking between
    operations instead would leave the timed operations interleaved with the
    single-threaded oracle; a block product using both BLAS threads then
    slowed by about 40% beside a process busy 20% of one core.  At least one
    batch runs.  An exception or a failed check counts as a failure.
    ``corrupt(out, i)``, used by the self-test, alters an output before it is
    checked.
    """
    result = LoopResult()
    deadline = perf_counter() + seconds
    i = first_op
    while result.attempted == 0 or perf_counter() < deadline:
        ids = range(i, i + workload.batch)
        inputs = [workload.make_input(rng, j) for j in ids]
        outputs = []
        timed_s = 0.0
        passed = 0
        for j, inp in zip(ids, inputs):
            result.attempted += 1
            try:
                ctx = tracer.root("op", j) if tracer else contextlib.nullcontext()
                start = perf_counter()
                with ctx:
                    out = workload.op(inp)
                elapsed = perf_counter() - start
                result.latencies.append(elapsed)
                timed_s += elapsed
                outputs.append((True, out))
            except Exception:
                traceback.print_exc()
                outputs.append((False, None))
        for j, inp, (ran, out) in zip(ids, inputs, outputs):
            try:
                if ran and corrupt:
                    out = corrupt(out, j)
                ok = ran and workload.check(inp, out, j)
            except Exception:
                traceback.print_exc()
                ok = False
            finally:
                workload.finish(inp)
            if ok:
                passed += 1
            else:
                result.failed += 1
                print(f"operation {j} failed its check", file=sys.stderr)
        result.batch_rates.append(passed / timed_s if timed_s else 0.0)
        i += workload.batch
    return result
