"""Self-consistency loop: map identities, traces, contraction audits."""

import math

import pytest

from polywave import fixedpoint
from polywave.bloch import series_eigenpair
from polywave.errors import ConfigError, ContractError
from polywave.fixedpoint import (
    apply_map,
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
)
from polywave.nonres import k1_threshold

from conftest import COUPLING, context_for, make_context


def free_context(amp2=COUPLING):
    return ModelContext(
        n=2, l=3, sigma=1.0, A=math.sqrt(amp2), V=PeriodicFunction.zero(2), delta=0.05
    )


# -- single map applications ------------------------------------------

def test_effective_perturbation_of_plane_wave(ctx_l3_nl):
    psi = PeriodicFunction.constant(2, ctx_l3_nl.A)
    W, tail = effective_perturbation(ctx_l3_nl, psi)
    assert tail == 0.0
    expected = ctx_l3_nl.V + PeriodicFunction.constant(2, COUPLING)
    assert star_norm(W - expected) == 0.0


def test_apply_map_without_potential_fixes_plane_wave():
    ctx = free_context()
    psi = PeriodicFunction.constant(2, ctx.A)
    res = apply_map(ctx, psi, (0.3, 0.4), (4, 1))
    assert len(res.w_tilde) == 0
    assert res.w_mean == pytest.approx(COUPLING)
    assert star_norm(res.psi_next - psi) == 0.0


def test_apply_map_linear_case_is_stationary(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    first = apply_map(ctx, PeriodicFunction.constant(2, 1.0), t, j)
    assert star_norm(first.w_tilde - ctx.V) == 0.0
    second = apply_map(ctx, first.psi_next, t, j)
    # sigma = 0: the effective perturbation never moves off V
    assert star_norm(second.w_tilde - ctx.V) == 0.0
    assert second.eigenpair.lam_gap == first.eigenpair.lam_gap


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
    assert sol is not None and sol.converged
    assert sol.steps == 1
    assert trace.converged_at == 1
    assert sol.lam == sol.center + COUPLING
    assert sol.lam_gap == pytest.approx(COUPLING)
    assert sol.asym_remainder == pytest.approx(0.0, abs=1e-18)
    assert residual(ctx, sol) < 1e-12
    assert sol.certified  # ratio 8e-3 / rho << 1


def test_iterate_desk_converges_and_traces_shrink(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    sol, trace = iterate(ctx, point["t"], point["j"])
    assert sol is not None and trace.converged
    assert sol.steps == trace.converged_at == len(trace.rows)
    assert residual(ctx, sol) < 1e-8
    # increments fall monotonically once the loop is past its first step
    for prev, cur in zip(trace.rows[1:], trace.rows[2:]):
        assert cur.d_w <= prev.d_w * (1 + 1e-9) + trace.noise_floor
    # the correction to the naive eigenvalue stays tiny at this energy
    assert abs(sol.asym_remainder) < 1e-4


N3_CONTEXT = ModelContext(
    n=3, l=3, sigma=1.0, A=math.sqrt(COUPLING), V=cosine_potential(3, (1.0, 1.0, 1.0))
)
N3_T = (0.19061364492264854, 0.49689265475472233, 0.42132525273177723)
N3_J = (-4, 6, -7)


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
    assert sol is not None and sol.converged
    assert len(trace.rows) >= 2
    assert all(row.w.is_even() for row in trace.rows)
    assert sol.psi.is_even()


def test_iterate_budget_exhaustion_returns_trace(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    monkeypatch.setattr(fixedpoint, "M_MAX", 1)
    sol, trace = iterate(ctx, point["t"], point["j"])
    assert sol is None
    assert not trace.converged
    assert len(trace.rows) == 1


def test_iterate_enforces_coupling_smallness():
    ctx = make_context(1, 0.25, sigma=1.0, amp2=0.5)
    with pytest.raises(ConfigError):
        iterate(ctx, (0.13, 0.81), (7, 2))


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
