"""The library calls the benchmark makes, run in process at tiny sizes.

``perfbench/workloads.py`` reaches rotap only through its public functions
(``assemble_blocks``, ``prefactorize``, ``.blocks``, ``evaluate_fast``,
``interpolate``, ``approximate`` and the array classes) and through the CLI
commands of its image workload (``grid --from-points``, ``demo-image
--out-prefix``, ``evaluate --check-oracle``, ``approximate --weights-scheme
paper``).  One checked batch of each workload, run in process, pins those
calls, so that a change which breaks them fails here and not only in a
benchmark run.  The traced cases run the batch under
``perfbench/tracing.py``'s tracer, which patches every function it names by
that name, so renaming or removing one of them fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    modules = {name: _load(name) for name in ("workloads", "tracing")}
    yield modules
    for module in modules.values():
        del sys.modules[module.__name__]


WORKLOADS = ["eval-n4-q8", "fit-n4-q8", "cli-image-n4-q8"]


@pytest.mark.parametrize(
    "name, traced",
    [pytest.param(name, traced, id=name + "-traced" * traced) for traced in (False, True) for name in WORKLOADS],
)
def test_one_checked_batch(perfbench, tmp_path, name, traced):
    workloads = perfbench["workloads"]
    workload = workloads.make(name, tmp_path, in_process=True)
    workload.prepare(np.random.default_rng(2))  # writes the image workload's point set
    workload.setup()
    if traced:
        tracer = perfbench["tracing"].Tracer()
        with tracer.install():
            result = workloads.closed_loop(workload, np.random.default_rng(3), 0.0, tracer=tracer)
        assert len(tracer.spans) > workload.batch and not tracer.errors
    else:
        result = workloads.closed_loop(workload, np.random.default_rng(3), 0.0)
    assert result.attempted == workload.batch
    assert result.failed == 0
