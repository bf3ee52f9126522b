"""The benchmark's untraced pass against the package API.

Each workload of ``perfbench/workloads.py`` draws its tiny inputs, prepares
them, runs one op and checks its output, as ``perfbench/run.py`` does.  This
catches an API change that would break the benchmark: the CLI argv, the
library signatures and the config keys the workloads write.  The workloads
are loaded from their file, read-only.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["certify", "surface", "screen", "crosscheck"])
def test_workload_op_passes_its_check(tmp_path, name):
    workload = load_workloads().WORKLOADS[name]()
    inputs = workload.inputs(3, "tiny")
    assert inputs
    workload.prepare(inputs, tmp_path)
    result = workload.op(inputs[0], tmp_path / "op0")
    workload.check(inputs[0], result)
