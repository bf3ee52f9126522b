"""Self-consistency loop: map identities, traces, contraction audits."""

import cmath
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polywave import fixedpoint
from polywave.bloch import diagonalize_oracle, series_eigenpair
from polywave.errors import ConfigError, ContractError
from polywave.galerkin import compare
from polywave.fixedpoint import (
    contraction_ratio,
    contraction_report,
    effective_perturbation,
    iterate,
    residual,
)
from polywave.lattice import (
    ModelContext,
    PeriodicFunction,
    abs_squared,
    cosine_potential,
    star_norm,
    zero_mean_shift,
)
from polywave.nonres import k1_threshold, sample_nonresonant

from closed_forms import first_order_column
from conftest import COUPLING, context_for, make_context
from test_bloch import COL_RTOL, LAM_RTOL


def free_context(amp2=COUPLING):
    return ModelContext(
        n=2, l=3, sigma=1.0, A=math.sqrt(amp2), V=PeriodicFunction.zero(2), delta=0.05
    )


# -- single map applications ------------------------------------------

def test_effective_perturbation_of_plane_wave(ctx_l3_nl):
    W, tail = effective_perturbation(ctx_l3_nl, PeriodicFunction.constant(2, 1.0))
    assert tail == 0.0
    expected = ctx_l3_nl.V + PeriodicFunction.constant(2, COUPLING)
    assert star_norm(W - expected) == 0.0
    # iterate's W_0, formed without the product, holds the same bits
    W_0 = ctx_l3_nl.V + PeriodicFunction.constant(2, ctx_l3_nl.sigma * abs(ctx_l3_nl.A) ** 2)
    assert W_0.box.tobytes() == W.box.tobytes()


def test_map_without_potential_fixes_plane_wave():
    ctx = free_context()
    sol, trace = iterate(ctx, (0.3, 0.4), (4, 1))
    W_tilde, w_mean = zero_mean_shift(trace.rows[0].w)
    assert len(W_tilde) == 0
    assert w_mean == pytest.approx(COUPLING)
    assert star_norm(sol.psi - PeriodicFunction.constant(2, ctx.A)) == 0.0


def test_map_linear_case_is_stationary(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    sol, trace = iterate(ctx, t, j)
    # sigma = 0: the effective perturbation never moves off V, nor the column
    assert sol.steps == 1
    row = trace.rows[0]
    assert star_norm(row.w - ctx.V) == 0.0
    assert row.d_w == 0.0 and row.d_col == 0.0
    assert sol.lam_gap == series_eigenpair(ctx, ctx.V, t, j).lam_gap


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10"])
def test_map_ignores_the_phase_of_A(desk_points, name):
    """W depends on |A|^2 alone: a complex amplitude keeps every W real, so
    the band solves stay on the folded ring and the eigenvalue is the one of
    the real amplitude of the same modulus."""
    point = desk_points[name]
    real = context_for(point, nonlinear=True)
    A = real.A * cmath.exp(0.3j)
    ctx = replace(real, A=A)
    sol, trace = iterate(ctx, point["t"], point["j"])
    ref, _ = iterate(real, point["t"], point["j"])
    assert all(row.w.is_even() for row in trace.rows)
    assert abs(sol.lam_gap - ref.lam_gap) <= 1e-15 * abs(ref.lam_gap)
    assert sol.psi == sol.eigenpair.proj_column.scale(A)


def test_first_increment_is_the_modulus_defect(desk_points, monkeypatch):
    """|| M W0 - W0 ||_* must equal sigma * || |psi0|^2 - |A|^2 ||_*."""
    point = desk_points["l1_k8"]
    ctx = context_for(point, nonlinear=True)
    t, j = point["t"], point["j"]
    monkeypatch.setattr(fixedpoint, "M_MAX", 2)
    _, trace = iterate(ctx, t, j)

    pair0 = series_eigenpair(ctx, ctx.V, t, j)
    psi0 = pair0.psi(ctx.A)
    defect = abs_squared(psi0) - abs_squared(PeriodicFunction.constant(2, ctx.A))
    assert trace.rows[0].d_w == pytest.approx(abs(ctx.sigma) * star_norm(defect), abs=1e-13)


# -- full iteration ---------------------------------------------------

def test_iterate_without_potential_is_exact_in_one_step():
    ctx = free_context()
    sol, trace = iterate(ctx, (0.3, 0.4), (4, 1))
    assert sol is not None
    assert sol.steps == 1
    assert len(trace.rows) == 1
    assert sol.lam == sol.center + COUPLING
    assert sol.lam_gap == pytest.approx(COUPLING)
    assert sol.asym_remainder == pytest.approx(0.0, abs=1e-18)
    assert residual(ctx, sol) < 1e-12
    assert sol.certified  # ratio 8e-3 / rho << 1


def test_iterate_desk_converges_and_traces_shrink(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    sol, trace = iterate(ctx, point["t"], point["j"])
    assert sol is not None
    assert sol.steps == len(trace.rows)
    assert residual(ctx, sol) < 1e-8
    # increments fall monotonically once the loop is past its first step
    for prev, cur in zip(trace.rows[1:], trace.rows[2:]):
        assert cur.d_w <= prev.d_w * (1 + 1e-9) + trace.noise_floor
    # the correction to the naive eigenvalue stays tiny at this energy
    assert abs(sol.asym_remainder) < 1e-4


# Coefficient boxes one l3_k8 ``iterate`` and ``residual`` form, as measured
# once each Fourier result was canonicalised in one pass (46 before).
L3_K8_BOXES = 27


def test_iterate_and_residual_canonicalise_each_result_once(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    formed = []
    from_box = PeriodicFunction.from_box.__func__

    def counting(cls, arr):
        formed.append(np.shape(arr))
        return from_box(cls, arr)

    monkeypatch.setattr(PeriodicFunction, "from_box", classmethod(counting))
    sol, _ = iterate(ctx, point["t"], point["j"])
    residual(ctx, sol)
    assert 0 < len(formed) <= L3_K8_BOXES


@pytest.mark.parametrize(
    "name, nonlinear, backend, solves",
    [
        # seed solve on V, one on the 12-coefficient W; the second step's W
        # differs from the first by rounding and keeps its pair
        ("l3_k8", True, "series", 2),
        # sigma = 0: W never moves off V, so the seed pair is the answer
        ("l3_k8", False, "series", 1),
        # every l = 1 increment sits far above the noise floor
        ("l1_k8", True, "diag", 4),
    ],
)
def test_iterate_reuses_the_pair_while_W_sits_at_the_noise_floor(
    desk_points, monkeypatch, name, nonlinear, backend, solves
):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=nonlinear)
    t, j = point["t"], point["j"]
    calls = []
    for attr in ("_series_eigenpair", "diagonalize_oracle"):
        def counted(*args, _solve=getattr(fixedpoint, attr), **kwargs):
            calls.append(attr)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, attr, counted)
    sol, trace = iterate(ctx, t, j, backend=backend)
    assert sol is not None
    assert len(calls) == solves
    reused = [row for row in trace.rows if row.d_w <= trace.noise_floor]
    assert len(calls) == 1 + len(trace.rows) - len(reused)
    assert all(row.d_col == 0.0 for row in reused)

    # differential reference: a fresh solve on the last step's own W
    W_tilde = zero_mean_shift(trace.rows[-1].w)[0]
    if backend == "series":
        fresh = series_eigenpair(ctx, W_tilde, t, j)
    else:
        fresh = diagonalize_oracle(ctx, W_tilde, t, j)
    assert abs(sol.eigenpair.lam_gap - fresh.lam_gap) <= LAM_RTOL * abs(fresh.lam_gap)
    radius = max(sol.eigenpair.proj_column.box_radius, fresh.proj_column.box_radius)
    col = sol.eigenpair.proj_column.to_box(radius)
    ref = fresh.proj_column.to_box(radius)
    assert np.abs(col - ref).max() <= COL_RTOL * np.abs(ref).sum()


@pytest.mark.parametrize("name", ["l1_k8", "l1_k10"])
def test_diag_iterate_measures_the_second_eigenvalue_once(
    desk_points, eigensolves, factorisations, name
):
    """The seed solve on V factors the window and measures the band's
    isolation; every later step inherits the bound through Weyl's inequality
    and continues from the seed's factor, with no factorisation or eigensolve
    of its own."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=True)
    t, j = point["t"], point["j"]
    sol, trace = iterate(ctx, t, j, backend="diag")
    assert sol is not None
    assert eigensolves == [2]
    assert factorisations == ["splu"]
    assert sol.eigenpair.isolation >= sol.eigenpair.rho
    assert sol.eigenpair.inverse is None

    # differential reference: a fresh solve on the last step's own W, with
    # no bound passed, measures the second eigenvalue itself
    eigensolves.clear()
    fresh = diagonalize_oracle(ctx, zero_mean_shift(trace.rows[-1].w)[0], t, j)
    assert eigensolves == [2]
    assert abs(sol.eigenpair.lam_gap - fresh.lam_gap) <= LAM_RTOL * abs(fresh.lam_gap)
    radius = max(sol.eigenpair.proj_column.box_radius, fresh.proj_column.box_radius)
    col = sol.eigenpair.proj_column.to_box(radius)
    ref = fresh.proj_column.to_box(radius)
    assert np.abs(col - ref).max() <= COL_RTOL * np.abs(ref).sum()


N3_CONTEXT = ModelContext(
    n=3, l=3, sigma=1.0, A=math.sqrt(COUPLING), V=cosine_potential(3, (1.0, 1.0, 1.0))
)
N3_T = (0.19061364492264854, 0.49689265475472233, 0.42132525273177723)
N3_J = (-4, 6, -7)


def test_gp_waves_approach_the_plane_wave_like_one_over_k():
    """The paper's claim at l = 1 (Gross-Pitaevskii): ``psi / A`` tends to the
    plane wave as ``|k|`` grows, and each wave's deviation is its first-order
    column ``C_1``, of size ~1/k, up to a second-order remainder.

    The first 4 admitted draws of 400 at each k, all kept.  Measured:
    ``||psi/A - 1||_* / ||C_1||_* - 1`` reads 0.63-0.70 ``||C_1||_*`` on all
    12, and k times the median deviation reads 3.40, 6.09 and 3.72; the
    k = 256 median sits high because two of its four draws have a small gap
    along V's support (ratios 1.040 and 1.020 to C_1, which predicts them).
    From k = 128 to 1024 the median falls as k^-0.96.
    """
    A = math.sqrt(COUPLING)
    ctx = ModelContext(
        n=2, l=1, sigma=1.0, A=A, V=cosine_potential(2, (1.0, 1.0)), delta=0.25, r_max=10,
        seed=42,
    )
    plane = PeriodicFunction.constant(2, 1.0)
    medians = {}
    for k in (128.0, 256.0, 1024.0):
        draws = [r for r in sample_nonresonant(ctx, k, 400).reports if r.admitted][:4]
        assert len(draws) == 4
        devs = []
        for r in draws:
            sol, _ = iterate(ctx, r.t, r.j)
            assert sol is not None
            assert residual(ctx, sol) < 1e-8
            moved = compare(ctx, sol)
            assert moved.d_psi < 1e-9 and moved.d_lam_gap < 1e-9
            dev = star_norm(sol.psi.scale(1.0 / A) - plane)
            c1 = star_norm(first_order_column(ctx, ctx.V, r.t, r.j))
            assert abs(dev / c1 - 1.0) <= c1
            devs.append(dev)
        medians[k] = float(np.median(devs))
        assert 2.5 <= k * medians[k] <= 8.0
    assert -1.25 <= math.log(medians[1024.0] / medians[128.0]) / math.log(8.0) <= -0.75


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "n3_k10"])
def test_series_path_keeps_W_even(desk_points, name):
    """A folded column is exactly real, so |psi|^2 and the next W are even
    again: every band solve along the path runs the folded half ring."""
    if name == "n3_k10":
        ctx, t, j = N3_CONTEXT, N3_T, N3_J
    else:
        point = desk_points[name]
        ctx, t, j = context_for(point, nonlinear=True), point["t"], point["j"]
    sol, trace = iterate(ctx, t, j)
    assert sol is not None
    assert len(trace.rows) >= 2
    assert all(row.w.is_even() for row in trace.rows)
    assert sol.psi.is_even()


@pytest.mark.parametrize("backend", ["series", "diag"])
@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_trace_rows_carry_the_drift_from_V(desk_points, monkeypatch, name, backend):
    """Each row's drift is ``||W~_m - V||_*``, bit for bit, measured once:
    the diag backend's Weyl bound and the contraction report read it."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=True)
    if backend == "series" and point["l"] == 1:
        monkeypatch.setattr(fixedpoint, "M_MAX", 1)   # each l = 1 series step takes seconds
    _, trace = iterate(ctx, point["t"], point["j"], backend=backend)
    drifts = [star_norm(zero_mean_shift(row.w)[0] - ctx.V) for row in trace.rows]
    assert [row.drift for row in trace.rows] == drifts
    assert list(contraction_report(ctx, trace, point["k"]).drifts) == drifts


def test_iterate_budget_exhaustion_returns_trace(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    monkeypatch.setattr(fixedpoint, "M_MAX", 1)
    sol, trace = iterate(ctx, point["t"], point["j"])
    assert sol is None
    assert len(trace.rows) == 1


def test_iterate_enforces_coupling_smallness():
    ctx = make_context(1, 0.25, sigma=1.0, amp2=0.5)
    with pytest.raises(ConfigError):
        iterate(ctx, (0.13, 0.81), (7, 2))


def test_iterate_refuses_an_unknown_backend(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    with pytest.raises(ConfigError, match="unknown backend 'dense'"):
        iterate(ctx, point["t"], point["j"], backend="dense")


def test_contraction_ratio_formula(ctx_l3_nl):
    ratio = contraction_ratio(ctx_l3_nl, 10.0)
    assert ratio == pytest.approx(8.0 * COUPLING * 10.0 ** -3.95, rel=1e-12)


@pytest.mark.parametrize(
    "name, nonlinear, backend, certified",
    [
        # ratio ~0.013 < 1, but k ~ 8 sits far below k1 ~ 1e36
        ("l1_k8", True, "diag", False),
        # the same below k1 on the series backend, where sigma = 0 gives
        # ratio 0 and keeps the solve cheap
        ("l1_k8", False, "series", False),
        ("l3_k8", True, "series", True),
        ("l3_k8", True, "diag", True),
    ],
)
def test_certified_means_the_bounds_apply(desk_points, name, nonlinear, backend, certified):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=nonlinear)
    sol, trace = iterate(ctx, point["t"], point["j"], backend=backend)
    assert contraction_ratio(ctx, sol.k) < 1.0
    assert sol.certified == certified
    assert contraction_report(ctx, trace, sol.k).bound_applicable == certified


def test_contraction_report_certified_leg(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    _, trace = iterate(ctx, point["t"], point["j"])
    rep = contraction_report(ctx, trace, point["k"])
    assert rep.bound_applicable  # k = 8 is beyond k1 ~ 2.66
    assert rep.k1 == pytest.approx(k1_threshold(ctx))
    assert not rep.violated
    assert all(s in ("held", "not-applicable") for s in rep.ratio_status)
    assert all(s in ("held", "not-applicable") for s in rep.drift_status)
    assert all(s in ("held", "not-applicable") for s in rep.col_status)
    assert len(rep.increments) == len(trace.rows)


def test_residual_requires_wave():
    ctx = free_context()
    sol, _ = iterate(ctx, (0.3, 0.4), (4, 1))
    stripped = sol.__class__(**{**sol.__dict__, "psi": PeriodicFunction.zero(2)})
    with pytest.raises(ContractError):
        residual(ctx, stripped)


def test_series_pipeline_never_imports_scipy():
    """Only the window oracle needs scipy, and it imports it on first use:
    the series path (fixed point, residual, Newton check, surface root)
    runs without loading it, which keeps its start-up time and memory."""
    script = textwrap.dedent("""
        import json, math, sys
        import numpy as np
        from polywave.fixedpoint import iterate, residual
        from polywave.galerkin import compare
        from polywave.iso import kappa_solve
        from polywave.lattice import ModelContext, cosine_potential

        point = json.load(open(sys.argv[1]))["l3_k8"]
        ctx = ModelContext(
            n=2, l=3, sigma=1.0, A=math.sqrt(1e-3), V=cosine_potential(2, (1.0, 1.0)),
            delta=point["delta"],
        )
        sol, _ = iterate(ctx, point["t"], point["j"])
        residual(ctx, sol)
        compare(ctx, sol)
        p = np.add(point["t"], point["j"])
        kappa_solve(ctx, float(np.linalg.norm(p)) ** 6 + 1e-3, p)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tests / "fixtures" / "desk_points.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
