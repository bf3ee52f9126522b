"""Newton refinement: confirmation of fixed points and basin stability."""

import pytest

from polywave.errors import ContractError
from polywave.fixedpoint import defect, iterate, residual
from polywave.galerkin import compare, newton_solve
from polywave.lattice import PeriodicFunction, star_norm

from conftest import context_for


@pytest.fixture(scope="module")
def desk_solution(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=True)
    sol, _ = iterate(ctx, point["t"], point["j"])
    assert sol is not None
    return ctx, sol


def test_newton_confirms_fixed_point(desk_solution):
    ctx, sol = desk_solution
    cmp = compare(ctx, sol)
    assert cmp.steps <= 3
    assert cmp.d_lam_gap < 1e-9
    assert cmp.d_psi < 1e-9


def test_newton_recovers_from_perturbed_init(desk_solution):
    ctx, sol = desk_solution
    refined, _ = newton_solve(ctx, sol.t, sol.j, sol.psi, sol.lam_gap)

    # perturb only the free coefficients: the anchor is the gauge pin, and
    # moving it selects a genuinely different amplitude branch of the cubic
    # problem rather than testing the basin of this one
    noise = PeriodicFunction(
        2, {d: 1e-4 for d, _ in sol.psi.items() if d != (0, 0) and abs(sum(d)) <= 2}
    )
    assert len(noise) > 3
    noisy, _ = newton_solve(ctx, sol.t, sol.j, sol.psi + noise, sol.lam_gap)
    assert abs(noisy.lam_gap - refined.lam_gap) < 1e-10
    assert star_norm(noisy.psi - refined.psi) < 1e-10


def test_newton_from_a_formed_defect_is_bitwise_its_own(desk_solution):
    """Started on the wave's full defect box, Newton crops its first defect
    from it and takes the same steps, bit for bit, as from its own."""
    ctx, sol = desk_solution
    noise = PeriodicFunction(2, {(1, 0): 1e-6, (0, -1): -1e-6})
    start = sol.psi + noise
    box = defect(ctx, sol.t, sol.j, start, sol.lam_gap)
    assert box.shape[0] > 2 * start.box_radius + 1
    own, own_steps = newton_solve(ctx, sol.t, sol.j, start, sol.lam_gap)
    shared, shared_steps = newton_solve(ctx, sol.t, sol.j, start, sol.lam_gap, box)
    assert shared_steps == own_steps >= 1
    assert shared.lam_gap == own.lam_gap and shared.psi == own.psi
    wave = sol.__class__(**{**sol.__dict__, "psi": start})
    assert residual(ctx, wave, box) == residual(ctx, wave)


def test_newton_requires_anchor_amplitude(desk_solution):
    ctx, sol = desk_solution
    headless = PeriodicFunction(2, {(1, 0): 0.1, (-1, 0): 0.1})
    with pytest.raises(ContractError):
        newton_solve(ctx, sol.t, sol.j, headless, sol.lam_gap)


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_diag_fixed_point_needs_no_newton_step(desk_points, name):
    """The oracle's column carries no rounding dust on far sites that Newton
    would have to remove: its projected defect is already below tolerance."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=True)
    sol, _ = iterate(ctx, point["t"], point["j"], backend="diag")
    assert sol is not None
    assert compare(ctx, sol).steps == 0
