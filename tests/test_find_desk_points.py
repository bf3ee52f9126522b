"""The desk-point finder against the package API.

``tools/find_desk_points.py`` searches for the stored desk points and checks
each one end to end with ``verify_point``.  Re-running that check on the
four stored points catches an API change that would break the tool.  The
tool is loaded from its file, read-only.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "find_desk_points.py"


@pytest.fixture(scope="module")
def finder():
    spec = importlib.util.spec_from_file_location("find_desk_points", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("desk", ["l1_k8", "l1_k10", "l3_k8", "l3_k10"])
def test_verify_point_passes_on_stored_desks(finder, desk_points, desk):
    point = desk_points[desk]
    # verify_point raises on any failed gate of its own
    metrics = finder.verify_point(
        point["l"], point["delta"], point["j"], point["t"], point["window"]
    )
    stored = point["metrics"]
    assert metrics["fp_steps"] == stored["fp_steps"]
    assert metrics["slack_margin"] == stored["slack_margin"]
    assert metrics["fp_residual"] < 1e-8
    assert metrics["newton_d_lam"] < 1e-9
    assert metrics["newton_d_psi"] < 1e-9
