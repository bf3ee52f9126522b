"""Admission tests for quasi-momenta: exponents, margins, sphere sampling."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave import nonres
from polywave.errors import ConfigError, ResonanceError
from polywave.lattice import (
    ModelContext,
    PeriodicFunction,
    cosine_potential,
    decompose,
    momentum,
)
from polywave.nonres import (
    K0,
    PAIR_FACTOR,
    check_quasimomentum,
    contour_center,
    contour_radius,
    energy_gaps,
    exponents,
    k1_threshold,
    require_nonresonant,
    sample_directions,
    sample_nonresonant,
)

import admission_reference
from conftest import context_for, make_context

SCREEN_POOL = Path(__file__).parents[1] / "perfbench" / "screen_reference.json"


# -- exponent arithmetic ----------------------------------------------

def test_exponents_l3():
    e = exponents(make_context(3, 0.05))
    assert e.gamma0 == pytest.approx(3.9)
    assert e.gamma1 == pytest.approx(9.55)
    assert e.gamma2 == pytest.approx(4.25)
    assert e.valid


def test_exponents_l1():
    e = exponents(make_context(1, 0.05))
    assert e.gamma0 == pytest.approx(-0.1)
    assert e.gamma1 == pytest.approx(1.55)
    assert e.gamma2 == pytest.approx(0.25)
    assert e.valid  # negative gamma0 alone does not invalidate the scheme


def test_exponent_validity_boundary():
    # beta -> 1 squeezes the admissible delta band shut; the context refuses
    # the combination outright rather than running with 2*gamma2 < 0.
    with pytest.raises(ConfigError):
        make_context(1, 0.05, beta=0.99)


def test_k1_threshold_values():
    assert k1_threshold(make_context(3, 0.05)) == pytest.approx(64.0 ** (1 / 4.25))
    assert k1_threshold(make_context(1, 0.05)) == pytest.approx(64.0 ** 4)
    # the working floor K0 dominates when the potential is tiny
    tiny = ModelContext(
        n=2, l=3, sigma=0.0, A=0.0,
        V=cosine_potential(2, (1e-9, 1e-9)), delta=0.05,
    )
    assert k1_threshold(tiny) == K0


def test_contour_geometry():
    ctx3 = make_context(3, 0.05)
    assert contour_center(ctx3, 10.0) == pytest.approx(1e6)
    assert contour_radius(ctx3, 10.0) == pytest.approx(10.0 ** 3.95)
    ctx1 = make_context(1, 0.05)
    assert contour_center(ctx1, 10.0) == pytest.approx(100.0)
    assert contour_radius(ctx1, 10.0) == pytest.approx(10.0 ** -0.05)


@given(st.floats(2.0, 50.0))
def test_radius_center_ratio(k):
    ctx = make_context(3, 0.05)
    ratio = contour_radius(ctx, k) / contour_center(ctx, k)
    assert math.isclose(ratio, k ** (-ctx.n - ctx.delta), rel_tol=1e-12)


# -- energy gaps ------------------------------------------------------

def test_energy_gaps_match_direct_formula():
    ctx = make_context(3, 0.05)
    t, j = (0.37, 0.21), (4, -3)
    offsets = np.array([[1, 0], [0, -2], [3, 3]])
    got = energy_gaps(ctx, t, j, offsets)
    p = momentum(j, t)
    mu_j = (p @ p) ** 3
    for row, d in zip(got, offsets):
        q = momentum(np.asarray(j) + d, t)
        assert math.isclose(row, (q @ q) ** 3 - mu_j, rel_tol=1e-12)


# -- admission checks -------------------------------------------------

def test_self_intersection_fails_separation():
    # t = 0 puts the momentum on the lattice: (5,0) collides with (0,5) etc.
    ctx = make_context(3, 0.05)
    rep = check_quasimomentum(ctx, (0.0, 0.0), (5, 0))
    assert not rep.cond_separation
    assert rep.margin_separation <= -contour_radius(ctx, 5.0)
    assert not rep.admitted
    with pytest.raises(ResonanceError) as err:
        require_nonresonant(ctx, (0.0, 0.0), (5, 0))
    assert err.value.report is rep or err.value.report.margin_separation == rep.margin_separation


def test_report_independent_of_potential():
    a = make_context(3, 0.05)
    b = ModelContext(n=2, l=3, sigma=0.0, A=0.0,
                     V=cosine_potential(2, (0.3, 1.7)), delta=0.05)
    t, j = (0.31, 0.77), (6, 2)
    ra = check_quasimomentum(a, t, j)
    rb = check_quasimomentum(b, t, j)
    assert ra.margin_separation == rb.margin_separation
    assert ra.margin_slack == rb.margin_slack
    assert ra.margin_pair == rb.margin_pair


def test_stored_desk_points_are_admitted(desk_points):
    for name, point in desk_points.items():
        ctx = context_for(point, nonlinear=False)
        rep = require_nonresonant(ctx, point["t"], point["j"])
        assert rep.admitted, name
        assert rep.k == pytest.approx(point["k"], rel=1e-9)


def test_rejects_t_outside_unit_cell():
    ctx = make_context(3, 0.05)
    with pytest.raises(ConfigError):
        check_quasimomentum(ctx, (1.0, 0.5), (5, 0))
    with pytest.raises(ConfigError):
        check_quasimomentum(ctx, (-0.1, 0.5), (5, 0))


def test_rejects_momentum_below_floor():
    ctx = make_context(3, 0.05)
    with pytest.raises(ConfigError):
        check_quasimomentum(ctx, (0.5, 0.5), (0, 0))


@given(
    st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
    st.tuples(st.integers(3, 7), st.integers(0, 7)),
)
@settings(max_examples=40, deadline=None)
def test_delta_tightening_never_rescues(t, j):
    """A point failing at some delta still fails at any smaller delta."""
    tight = check_quasimomentum(make_context(3, 0.02), t, j)
    loose = check_quasimomentum(make_context(3, 0.05), t, j)
    assert not (tight.admitted and not loose.admitted)


def test_pair_condition_sound_against_contour_sweep(desk_points):
    """The product-of-minima shortcut must imply the pointwise bound on C0."""
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    rep = check_quasimomentum(ctx, point["t"], point["j"])
    assert rep.cond_pair

    k, rho = rep.k, rep.rho
    beta, gamma2 = ctx.beta, exponents(ctx).gamma2
    box_radius = rep.box_radius
    pad = int(math.ceil(k ** beta))
    r = box_radius + pad
    axes = np.arange(-r, r + 1)
    grid = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1)
    gaps = energy_gaps(ctx, point["t"], point["j"], grid - np.asarray(point["j"]))

    zeta = rho * np.exp(2j * np.pi * np.arange(1024) / 1024)
    side = 2 * box_radius + 1
    inner = (slice(pad, pad + side),) * 2
    threshold = k ** (2.0 * gamma2)

    q_grid = grid.reshape(-1, 2)
    q_norms2 = np.sum(q_grid * q_grid, axis=1)
    worst = math.inf
    for q in q_grid[(q_norms2 > 0) & (q_norms2 < k ** (2 * beta))]:
        shifted = tuple(slice(pad + int(c), pad + int(c) + side) for c in q)
        # distance of each ladder point to each contour node, exact product
        d_a = np.abs(gaps[inner][..., None] - zeta)
        d_b = np.abs(gaps[shifted][..., None] - zeta)
        worst = min(worst, float((PAIR_FACTOR * d_a * d_b).min()))
    assert worst > threshold
    # and the shortcut is indeed the conservative side of the comparison
    assert rep.margin_pair + threshold <= worst * (1 + 1e-12)


def test_report_covariant_under_axis_swap():
    ctx = make_context(3, 0.05)
    t, j = (0.2199, 0.6613), (6, -3)
    a = check_quasimomentum(ctx, t, j)
    b = check_quasimomentum(ctx, t[::-1], j[::-1])
    assert a.admitted == b.admitted
    # dot products re-associate under the swap, so margins match to rounding
    # at the energy scale, not bitwise
    scale = a.center
    assert math.isclose(a.margin_separation, b.margin_separation, abs_tol=1e-9 * scale)
    assert math.isclose(a.margin_slack, b.margin_slack, abs_tol=1e-9 * scale)
    assert math.isclose(a.margin_pair, b.margin_pair, rel_tol=1e-9)
    assert b.worst_separation == a.worst_separation[::-1]


# -- shell screen against the full-box reference ------------------------

_REPORT_FIELDS = (
    "admitted", "cond_separation", "cond_slack", "cond_pair",
    "margin_separation", "margin_slack", "margin_pair",
    "worst_separation", "box_radius",
)


def assert_matches_box(ctx, t, j):
    """The shell screen must reproduce the full-box report bit for bit."""
    got = check_quasimomentum(ctx, t, j)
    want = admission_reference.check_quasimomentum(ctx, t, j)
    for name in _REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, t, j)


def cosine_context(n, l, **controls):
    return ModelContext(n=n, l=l, sigma=0.0, A=0.0, V=cosine_potential(n, (1.0,) * n), **controls)


def test_shell_matches_box_on_desk_points(desk_points):
    for point in desk_points.values():
        assert_matches_box(context_for(point, nonlinear=False), point["t"], point["j"])


def test_shell_matches_box_on_screen_pool():
    """Every momentum of the benchmark's recorded n = 3, k = 16 and k = 6 pools."""
    doc = json.loads(SCREEN_POOL.read_text())
    ctx = cosine_context(3, 3)
    for size in ("full", "tiny"):
        for entry in doc[size]["entries"]:
            assert_matches_box(ctx, entry["t"], entry["j"])


@pytest.mark.parametrize("n, l", [(2, 1), (2, 3), (3, 3)])
def test_shell_matches_box_on_symmetric_momenta(n, l):
    """Symmetric t ties products exactly: the first lexicographic i must win."""
    ctx = cosine_context(n, l)
    for t in [(0.0,) * n, (0.5,) * n, (0.5,) + (0.0,) * (n - 1)]:
        for j in [(5, 0, 0), (3, 4, 0), (-6, 2, 0), (4, -4, 0)]:
            assert_matches_box(ctx, t, j[:n])


@given(
    nl=st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]),
    k=st.floats(2.5, 16.0),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_shell_matches_box_on_random_momenta(nl, k, direction):
    n, l = nl
    v = np.asarray(direction[:n])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.eye(n)[0], 1.0
    j, t = decompose(k * v / norm)
    assert_matches_box(cosine_context(n, l), t, j)


@pytest.mark.parametrize("t, j", [
    ((0.29430236870833326, 0.4045655493382547), (-5, -23)),
    ((0.5184806625260254, 0.8108163755257163), (13, -5)),
])
def test_shell_grows_until_certified(t, j):
    """Momenta whose first shell misses the least pair: stopping there
    reports a larger margin_pair."""
    assert_matches_box(cosine_context(2, 3), t, j)


def test_shell_reaches_beyond_the_box_guard():
    """n = 3, k = 40: the padded box (175^3 sites) was refused, the shell is not."""
    ctx = cosine_context(3, 3)
    j, t = decompose(40.0 * np.array([0.48, -0.6, 0.64]))
    with pytest.raises(ConfigError):
        admission_reference.check_quasimomentum(ctx, t, j)
    rep = check_quasimomentum(ctx, t, j)
    assert rep.k == pytest.approx(40.0)
    assert all(math.isfinite(m) for m in (rep.margin_separation, rep.margin_pair))


@pytest.mark.parametrize("budget, fragment", [
    (100, "admission shell of 102 sites exceeds 100"),
    (200, "admission pair pass exceeds 200 pairs"),
])
def test_admission_refuses_past_its_site_budget(desk_points, monkeypatch, budget, fragment):
    """On the linear l3_k8 desk the shell holds 102 sites: a budget of 100 refuses
    the shell, and one of 200 holds it but refuses its pair pass."""
    point = desk_points["l3_k8"]
    monkeypatch.setattr(nonres, "BOX_SITES_MAX", budget)
    with pytest.raises(ConfigError, match=fragment):
        check_quasimomentum(context_for(point, nonlinear=False), point["t"], point["j"])


@pytest.mark.parametrize("n, l, k", [
    (3, 3, 600.0),    # column grid of side 2431: 2431^2 > 2^22 sites
    (2, 20, 2e4),     # k^(2l) is finite, the pair threshold k^(2*gamma2) is not
])
def test_shell_refuses_what_it_cannot_hold(n, l, k):
    j, t = decompose(k * np.array({2: (0.6, 0.8), 3: (0.48, -0.6, 0.64)}[n]))
    with pytest.raises(ConfigError):
        check_quasimomentum(cosine_context(n, l), t, j)


# -- sphere sampling --------------------------------------------------

def test_sample_directions_unit_norm_and_prefix_stable():
    dirs = sample_directions(2, 12, seed=7)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.array_equal(sample_directions(2, 5, seed=7), dirs[:5])


def test_sample_nonresonant_guards():
    ctx = make_context(3, 0.05)
    with pytest.raises(ConfigError):
        sample_nonresonant(ctx, 1.0, 10)
    with pytest.raises(ConfigError):
        sample_nonresonant(ctx, 10.0, 0)


def test_sample_nonresonant_deterministic_and_accounted():
    ctx = make_context(3, 0.05, seed=3)
    a = sample_nonresonant(ctx, 6.0, 60)
    b = sample_nonresonant(ctx, 6.0, 60)
    assert a.admitted == b.admitted
    assert a.fraction == b.fraction
    assert [r.t for r in a.reports] == [r.t for r in b.reports]
    assert a.admitted + a.failed_separation + a.failed_slack + a.failed_pair == a.samples
    assert a.admitted == sum(r.admitted for r in a.reports)


# -- the admitted set as a lattice count ------------------------------

@pytest.mark.parametrize("n, l, delta, k", [
    (2, 3, 0.25, 16.0), (2, 3, 0.25, 256.0), (2, 1, 0.25, 1024.0),
    (3, 3, 0.55, 16.0), (3, 3, 0.55, 64.0), (3, 2, 0.55, 32.0),
])
def test_slack_implies_the_pair_condition_below_k_star(n, l, delta, k):
    """Slack keeps every site's distance to the contour at rho or more (the
    anchor's is rho), so every pair product is at least 200 rho^2, above
    k^(2 gamma2) exactly when k < k* = 200^(1/((n-1)(1-beta)))."""
    ctx = cosine_context(n, l, delta=delta, seed=5)
    reports = sample_nonresonant(ctx, k, 60).reports
    k_star = PAIR_FACTOR ** (1.0 / ((n - 1) * (1.0 - ctx.beta)))
    assert k < k_star
    slack = [r for r in reports if r.cond_slack]
    assert slack    # at least one draw to test, in every setting
    for r in slack:
        floor = PAIR_FACTOR * r.rho * r.rho - r.k ** (2.0 * exponents(ctx).gamma2)
        assert r.margin_pair >= floor > 0.0 and r.admitted


@pytest.mark.parametrize("l, delta, k", [
    (3, 0.25, 16.0), (3, 0.25, 64.0), (3, 0.25, 256.0), (3, 0.25, 1024.0),
    (1, 0.29, 64.0), (1, 0.29, 256.0), (1, 0.29, 1024.0),
])
def test_admitted_fraction_follows_the_lattice_count(l, delta, k):
    """The slack shell around k^(2l) holds on average (2 |S^(n-1)| / l) k^(-delta)
    other sites of Z^2 + t, so about exp(-(4 pi / l) k^(-delta)) of the draws
    are admitted; 400 draws at seed 1 lie within 3 binomial sigma of it."""
    draws = 400
    fraction = sample_nonresonant(cosine_context(2, l, delta=delta, seed=1), k, draws).fraction
    law = math.exp(-(4.0 * math.pi / l) * k ** (-delta))
    assert abs(fraction - law) <= 3.0 * math.sqrt(law * (1.0 - law) / draws)
