"""The benchmark's traced pass against the package API.

``perfbench/tracer.py`` wraps public functions by module and name and reads
their arguments and results in counter hooks.  Running the pipeline under
it here catches an API change that would break ``perfbench --trace 1``.
The tracer is loaded from its file, read-only.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from polywave import fixedpoint, galerkin, iso

from conftest import context_for

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for modname, *_ in module.LAYERS:
        importlib.import_module(modname)
    return module


def test_traced_pass_fills_its_counters(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    lin = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    p = np.add(t, j)
    direction = p / np.linalg.norm(p)

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # called through their modules, where the tracer rebinds them
        sol, _ = fixedpoint.iterate(ctx, t, j)
        fixedpoint.iterate(ctx, t, j, backend="diag")
        galerkin.compare(ctx, sol)
        iso.kappa_solve(lin, point["k"] ** (2 * lin.l), direction)
    finally:
        tracer.uninstall()

    counters = tracer.counters
    assert counters["bloch.oracle.dim_max"] == 1089
    assert counters["fixedpoint.steps"] >= 2
    assert counters["galerkin.newton.support_sum"] > 0
    assert counters["iso.root_evals"] >= 1
    assert counters["lattice.multiply.pairs"] > 0
    assert counters["bloch.chain.nodes"] > 0
    assert counters["nonres.check.admitted"] >= 1
    calls, self_s = tracer.self_times()
    for name in ("fixedpoint.iterate", "bloch.oracle", "galerkin.newton", "iso.kappa"):
        assert calls[name] >= 1 and math.isfinite(self_s[name])
    # uninstalled: the package holds its own functions again
    assert not hasattr(galerkin.newton_solve, "__wrapped__")
