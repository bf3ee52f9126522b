"""Isoenergetic surface: reference radius, root solves, scans, gradients."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywave import iso
from polywave.errors import ConfigError, NonConvergence, ResonanceError
from polywave.fixedpoint import iterate
from polywave.iso import kappa_solve, reference_radius, sample_surface
from polywave.lattice import decompose, momentum
from polywave.nonres import check_quasimomentum, sample_nonresonant

from closed_forms import eigenvalue_gradient
from conftest import COUPLING, context_for, make_context


@pytest.fixture(scope="module")
def ctx_iso():
    return make_context(3, 0.05)


@pytest.fixture(scope="module")
def admitted_direction(ctx_iso):
    """A direction whose base momentum at ktilde = 8 passes admission."""
    stats = sample_nonresonant(replace(ctx_iso, seed=0), 8.0, 400)
    reports = [r for r in stats.reports if r.admitted]
    assert reports, "no admitted direction in 400 draws"
    p = momentum(reports[0].j, reports[0].t)
    return p / np.linalg.norm(p)


# -- reference radius -------------------------------------------------

def test_reference_radius_splits_cubic_shift():
    ctx = make_context(1, 0.25, sigma=1.0, amp2=1e-3)
    assert reference_radius(ctx, 100.001) == (10.0, 0.0)


def test_reference_radius_exact_power(ctx_iso):
    assert reference_radius(ctx_iso, 8.0 ** 6) == (8.0, 0.0)


def test_reference_radius_rounding_defect_is_small(ctx_iso):
    lam = 1234.5678
    kt, c0 = reference_radius(ctx_iso, lam)
    # c0 is the double-rounding defect of kt; the half-ulp error in kt is
    # amplified by d(kt^6)/dkt, i.e. a factor 2l on the scale of lam
    assert abs(c0) <= 6 * np.spacing(lam)
    assert kt ** 6 == pytest.approx(lam + c0, rel=1e-15)


@given(
    st.sampled_from((1, 2, 3)),
    st.sampled_from((0.0, 1.0)),
    st.floats(min_value=100.0, max_value=1e18),
)
@example(3, 0.0, 8.0 ** 6)      # the criterion-08 surface energies
@example(3, 0.0, 12.0 ** 6)
@example(3, 0.0, 16.0 ** 6)
@example(3, 0.0, 24.0 ** 6)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reference_radius_is_exact(l, sigma, lam):
    """ktilde is the float nearest base^(1/2l); c0 is ktilde^{2l} - base rounded once."""
    ctx = make_context(l, 0.05, sigma=sigma, amp2=1e-3)
    kt, c0 = reference_radius(ctx, lam)
    two_l = 2 * ctx.l
    base = Fraction(lam - ctx.sigma * abs(ctx.A) ** 2)
    below = (Fraction(math.nextafter(kt, 0.0)) + Fraction(kt)) / 2
    above = (Fraction(kt) + Fraction(math.nextafter(kt, math.inf))) / 2
    assert below ** two_l < base < above ** two_l
    assert c0 == float(Fraction(kt) ** two_l - base)


def test_reference_radius_guards():
    nl = make_context(3, 0.05, sigma=1.0, amp2=1e-3)
    with pytest.raises(ConfigError):
        reference_radius(nl, 5e-4)  # below the cubic shift
    with pytest.raises(ConfigError):
        reference_radius(nl, 1.0)   # radius under the working floor


# -- single root solves -----------------------------------------------

def test_kappa_solve_certifies_and_repeats(ctx_iso, admitted_direction, monkeypatch):
    lam = 8.0 ** 6
    s = kappa_solve(ctx_iso, lam, admitted_direction)
    assert abs(s.f_at_root) <= 1e-9 * lam
    assert abs(s.h) / s.ktilde < 1e-3
    assert s.kappa == pytest.approx(s.ktilde, rel=1e-3)
    j, t = decompose(s.kappa * np.asarray(admitted_direction))
    assert s.j == j
    assert np.allclose(s.t, t)
    again = kappa_solve(ctx_iso, lam, admitted_direction)
    assert again.h == s.h and again.kappa == s.kappa and again.evals == s.evals
    # one evaluation cannot certify a step (it must be 0 at h = 0), so a cap
    # of one is exhausted
    monkeypatch.setattr(iso, "MAX_ROOT_EVALS", 1)
    with pytest.raises(NonConvergence):
        kappa_solve(ctx_iso, lam, admitted_direction)


def test_kappa_solve_refuses_resonant_axis(ctx_iso):
    # kappa * (1, 0) stays glued to the lattice line: the direction is a hole
    with pytest.raises(ResonanceError):
        kappa_solve(ctx_iso, 8.0 ** 6, (1.0, 0.0))


@pytest.mark.parametrize("desk", ["l3_k8", "l3_k10"])
def test_first_order_gap_matches_self_consistent_eigenvalue(desk_points, desk):
    """At l = 3 the root's gap, linear band plus the mean of the cubic term,
    is the self-consistent eigenvalue of ``iterate`` far inside tol_root."""
    point = desk_points[desk]
    ctx = context_for(point, nonlinear=True)
    p = np.add(point["t"], point["j"])
    lam = float(np.linalg.norm(p)) ** 6 + COUPLING
    s = kappa_solve(ctx, lam, p)
    assert abs(s.f_at_root) <= 1e-9 * lam
    kt, c0 = reference_radius(ctx, lam)
    slope = math.fsum(s.kappa ** e * kt ** (5 - e) for e in range(6))
    sol, _ = iterate(ctx, s.t, s.j)
    f = s.h * slope + c0 + (sol.lam_gap - ctx.sigma * abs(ctx.A) ** 2)
    assert abs(f - s.f_at_root) <= 1e-12


# -- scans ------------------------------------------------------------

def test_sample_surface_accounts_every_direction(ctx_iso):
    scan = sample_surface(replace(ctx_iso, seed=0), 8.0 ** 6, 6)
    assert scan.requested == 6
    assert len(scan.resolved) + scan.holes + scan.failures == 6
    # every seed-0 direction has a base momentum the admission tests reject
    for draw in scan.draws:
        j, t = decompose(8.0 * np.asarray(draw.direction))
        assert not check_quasimomentum(ctx_iso, t, j).admitted
        assert draw.status == "hole" and draw.error == "ResonanceError"
    assert scan.holes == 6 and scan.failures == 0


# -- typed errors at the library boundary -------------------------------

_LAM = 8.0 ** 6
_BAD_CALLS = {
    "reference_radius-lam-nan": lambda ctx, nu, desk: reference_radius(ctx, math.nan),
    "reference_radius-lam-inf": lambda ctx, nu, desk: reference_radius(ctx, math.inf),
    "kappa_solve-lam-nan": lambda ctx, nu, desk: kappa_solve(ctx, math.nan, nu),
    "kappa_solve-lam-inf": lambda ctx, nu, desk: kappa_solve(ctx, math.inf, nu),
    "sample_surface-lam-nan": lambda ctx, nu, desk: sample_surface(ctx, math.nan, 2),
    "sample_surface-lam-inf": lambda ctx, nu, desk: sample_surface(ctx, math.inf, 2),
    "sample_surface-count-0": lambda ctx, nu, desk: sample_surface(ctx, _LAM, 0),
    "kappa_solve-direction-nan": lambda ctx, nu, desk: kappa_solve(ctx, _LAM, (math.nan, 1.0)),
    "kappa_solve-direction-inf": lambda ctx, nu, desk: kappa_solve(ctx, _LAM, (math.inf, 1.0)),
    "kappa_solve-direction-zero": lambda ctx, nu, desk: kappa_solve(ctx, _LAM, (0.0, 0.0)),
    "kappa_solve-direction-3d": lambda ctx, nu, desk: kappa_solve(ctx, _LAM, (1.0, 0.5, 0.1)),
    "sample_nonresonant-k-nan": lambda ctx, nu, desk: sample_nonresonant(ctx, math.nan, 2),
    "sample_nonresonant-k-inf": lambda ctx, nu, desk: sample_nonresonant(ctx, math.inf, 2),
    "eigenvalue_gradient-step-0": lambda ctx, nu, desk: eigenvalue_gradient(
        ctx, ctx.V, desk["t"], desk["j"], step=0.0
    ),
}


@pytest.mark.parametrize("call", list(_BAD_CALLS.values()), ids=list(_BAD_CALLS))
def test_bad_input_raises_config_error(ctx_iso, admitted_direction, desk_points, call):
    # the step case starts from an admitted momentum, so only the bad
    # input can end it
    with pytest.raises(ConfigError):
        call(ctx_iso, admitted_direction, desk_points["l3_k8"])
