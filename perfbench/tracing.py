"""Span tracing of rotap's layers, from outside the program.

The tracer replaces each traced public function on every name its callers
look it up by (``rotap.cli.assemble_blocks``, ``rotap.transform.dft_rotation_axis``
inside ``evaluate_fast``, ...), records one span per call in memory, and puts
the originals back when it is uninstalled.  A span is
``(name, start, end, parent, op, value)``: ``parent`` is the index of the
enclosing span (-1 for a root), ``op`` the operation id (set-ups are negative),
and ``value`` a number the call reports: bytes, entries, points or an exit code.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import rotap
import rotap.bessel
import rotap.cli
import rotap.grids
import rotap.image
import rotap.transform

# Every module whose globals a traced function may be looked up in.
MODULES = (rotap, rotap.grids, rotap.bessel, rotap.transform, rotap.image, rotap.cli)


def _prefactorize_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "unknown")
    return f"transform.prefactorize.{mode}"


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (home module, function, span name or name function, value function, key function)
TRACED = (
    (rotap.grids, "build_polar_grid", "grids.build_polar_grid", None, None),
    (rotap.grids, "canonicalize", "grids.canonicalize", None, None),
    (rotap.grids, "load_grid", "grids.load_grid", None, None),
    (
        rotap.bessel,
        "assemble_blocks",
        "bessel.assemble_blocks",
        lambda a, k, r: a[0].N * len(a[0].points) * len(a[1].points),
        # Distinct (spatial, frequency) geometries: fewer calls per pair means reuse.
        lambda a, k: (a[0].N, a[0].points, a[1].points),
    ),
    (
        rotap.transform,
        "evaluate_fast",
        "transform.evaluate_fast",
        # Computed bytes: one pass over the N*P*Q complex128 block entries.
        lambda a, k, r: a[0].values.size * len(a[1].spatial_grid.points) * 16,
        None,
    ),
    (rotap.transform, "dft_rotation_axis", "transform.dft_rotation_axis", None, None),
    (rotap.transform, "prefactorize", _prefactorize_name, None, None),
    (rotap.transform, "interpolate", "transform.interpolate", None, None),
    (rotap.transform, "approximate", "transform.approximate", None, None),
    (rotap.transform, "evaluate_naive", "transform.evaluate_naive", None, None),
    (rotap.transform, "save_coefficients", "transform.io", _file_size, None),
    (rotap.transform, "load_coefficients", "transform.io", _file_size, None),
    (rotap.transform, "save_samples", "transform.io", _file_size, None),
    (rotap.transform, "load_samples", "transform.io", _file_size, None),
    (rotap.image, "load_image", "image.load_image", None, None),
    (rotap.image, "bilinear_sample", "image.bilinear_sample", lambda a, k, r: r.size, None),
    (rotap.cli, "main", lambda a, k: "cli.main." + a[0][0], lambda a, k, r: r, None),
)


def _exit_value(exc: BaseException) -> int:
    """The exit code a raised exception stands for: SystemExit's code, else 0."""
    if not isinstance(exc, SystemExit) or exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


class Tracer:
    """In-memory span recorder: install() patches the layers, root() opens a set-up or operation."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    def _begin(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, name: str, start: float, end: float, value=0) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._op, value)

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """A root span: ``name`` is "setup" (``op`` < 0) or "op" (``op`` >= 0)."""
        self._op = op
        idx = self._begin()
        start = perf_counter()
        try:
            yield
        finally:
            self._end(idx, name, start, perf_counter())

    def _wrap(self, fn, name, value_fn, key_fn):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self._begin()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                if isinstance(exc, Exception):
                    self.errors[span_name] += 1
                self._end(idx, span_name, start, end, _exit_value(exc))
                raise
            end = perf_counter()
            value = value_fn(args, kwargs, result) if value_fn else 0
            if key_fn:
                self.keys[span_name].add(key_fn(args, kwargs))
            self._end(idx, span_name, start, end, value)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every traced function on every module name that refers to it."""
        patched = []
        try:
            for home, fname, name, value_fn, key_fn in TRACED:
                original = getattr(home, fname)
                wrapper = self._wrap(original, name, value_fn, key_fn)
                for module in MODULES:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        patched.append((module, fname, original))
            yield self
        finally:
            for module, fname, original in reversed(patched):
                setattr(module, fname, original)

    def write(self, path, context: dict) -> None:
        """Write the run context and then every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"context": context}) + "\n")
            for name, start, end, parent, op, value in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op, "value": value}
                fh.write(json.dumps(record) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, untraced_ops_per_s: float, traced_ops_per_s: float, startup_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from the recorded spans.

    ``.s`` is the median inclusive time of one call, ``.self_s`` the median
    time of one call not covered by its child spans.  ``.calls`` and
    ``.bytes`` are per set-up plus per operation: their mean over set-ups
    plus their mean over operations.  A layer the workload never reaches
    reads 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, value in spans:
        if parent >= 0:
            child_time[parent] += end - start

    inclusive: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    values: dict[str, list[float]] = defaultdict(list)
    setup_calls, op_calls, setup_values, op_values = Counter(), Counter(), Counter(), Counter()
    setups = ops = 0
    op_total = op_unaccounted = 0.0
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        duration = end - start
        if parent < 0:
            if name == "setup":
                setups += 1
            else:
                ops += 1
                op_total += duration
                op_unaccounted += duration - child_time[i]
            continue
        inclusive[name].append(duration)
        own[name].append(duration - child_time[i])
        values[name].append(value)
        (op_calls if op >= 0 else setup_calls)[name] += 1
        (op_values if op >= 0 else setup_values)[name] += value

    def per_unit(in_setup: Counter, in_ops: Counter, name: str) -> float:
        return in_setup[name] / max(setups, 1) + in_ops[name] / max(ops, 1)

    def s(name):
        return _median(inclusive.get(name))

    def self_s(name):
        return _median(own.get(name))

    def calls(name):
        return per_unit(setup_calls, op_calls, name)

    assemble = "bessel.assemble_blocks"
    assemble_time = sum(inclusive.get(assemble, ()))
    evaluate = "transform.evaluate_fast"
    evaluate_self = sum(own.get(evaluate, ()))
    return {
        "grids.build_polar_grid.s": (s("grids.build_polar_grid"), "s"),
        "grids.canonicalize.s": (s("grids.canonicalize"), "s"),
        "grids.load_grid.s": (s("grids.load_grid"), "s"),
        "grids.load_grid.calls": (calls("grids.load_grid"), "count"),
        "bessel.assemble_blocks.s": (s(assemble), "s"),
        "bessel.assemble_blocks.calls": (calls(assemble), "count"),
        "bessel.assemble_blocks.entries_per_s": (
            sum(values.get(assemble, ())) / assemble_time if assemble_time else 0.0,
            "1/s",
        ),
        "bessel.assemble_blocks.unique_ratio": (
            len(tracer.keys.get(assemble, ())) / len(inclusive[assemble]) if inclusive.get(assemble) else 0.0,
            "ratio",
        ),
        "transform.evaluate_fast.self_s": (self_s(evaluate), "s"),
        "transform.evaluate_fast.computed_GBps": (
            sum(values.get(evaluate, ())) / evaluate_self / 1e9 if evaluate_self else 0.0,
            "GB/s",
        ),
        "transform.dft_rotation_axis.s": (s("transform.dft_rotation_axis"), "s"),
        "transform.dft_rotation_axis.calls": (calls("transform.dft_rotation_axis"), "count"),
        "transform.prefactorize.interpolation.s": (s("transform.prefactorize.interpolation"), "s"),
        "transform.prefactorize.approximation.s": (s("transform.prefactorize.approximation"), "s"),
        "transform.interpolate.self_s": (self_s("transform.interpolate"), "s"),
        "transform.approximate.self_s": (self_s("transform.approximate"), "s"),
        "transform.evaluate_naive.s": (s("transform.evaluate_naive"), "s"),
        "transform.io.s": (s("transform.io"), "s"),
        "transform.io.bytes": (per_unit(setup_values, op_values, "transform.io"), "bytes"),
        "transform.errors": (sum(n for name, n in tracer.errors.items() if name.startswith("transform.")), "count"),
        "image.load_image.s": (s("image.load_image"), "s"),
        "image.bilinear_sample.s": (s("image.bilinear_sample"), "s"),
        "image.bilinear_sample.points": (_median(values.get("image.bilinear_sample")), "count"),
        "cli.startup_s": (startup_s, "s"),
        "cli.main.grid.s": (s("cli.main.grid"), "s"),
        "cli.main.demo-image.s": (s("cli.main.demo-image"), "s"),
        "cli.main.evaluate.s": (s("cli.main.evaluate"), "s"),
        "cli.main.approximate.s": (s("cli.main.approximate"), "s"),
        "cli.exit_nonzero": (
            sum(1 for name, vals in values.items() if name.startswith("cli.main.") for v in vals if v != 0),
            "count",
        ),
        "trace.overhead": (1.0 - traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0, "ratio"),
        "trace.unaccounted_share": (op_unaccounted / op_total if op_total else 0.0, "ratio"),
    }
