"""The library calls the benchmark makes, run in process at tiny sizes.

``perfbench/workloads.py`` reaches rotap only through its public functions
(``assemble_blocks``, ``prefactorize``, ``.blocks``, ``evaluate_fast``,
``interpolate``, ``approximate`` and the array classes) and through the CLI
commands of its image workload (``grid --from-points``, ``demo-image
--out-prefix``, ``evaluate --check-oracle``, ``approximate --weights-scheme
paper``).  One checked batch of each workload, run in process, pins those
calls, so that a change which breaks them fails here and not only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["eval-n4-q8", "fit-n4-q8", "cli-image-n4-q8"])
def test_one_checked_batch(workloads, tmp_path, name):
    workload = workloads.make(name, tmp_path, in_process=True)
    workload.prepare(np.random.default_rng(2))  # writes the image workload's point set
    workload.setup()
    result = workloads.closed_loop(workload, np.random.default_rng(3), 0.0)
    assert result.attempted == workload.batch
    assert result.failed == 0
