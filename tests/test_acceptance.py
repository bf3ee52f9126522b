"""Acceptance gate: eleven end-to-end checks of the high-energy band solver.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line on the real
stdout (bypassing capture) so the run log always shows the scoreboard, then
asserts.  Tolerances are pinned constants; timing caps are generous
wall-clock guards for the slow paths.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from polywave.bloch import diagonalize_oracle, series_eigenpair
from polywave.cli import main as cli_main
from polywave.fixedpoint import contraction_report, iterate, residual
from polywave.galerkin import compare
from polywave.iso import kappa_solve, reference_radius
from polywave.lattice import (
    ModelContext,
    PeriodicFunction,
    abs_squared,
    momentum,
    multiply,
    star_norm,
)
from polywave.nonres import check_quasimomentum, sample_directions, sample_nonresonant

from closed_forms import eigenvalue_gradient, first_order_column, second_order_eigenvalue_shift
from conftest import COUPLING, context_for, make_context
from dense_reference import dense_window_series


_DISABLE_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_scoreboard(capfd):
    """Let _report reach the real stdout even under fd-level capture."""
    global _DISABLE_CAPTURE
    _DISABLE_CAPTURE = capfd.disabled
    yield
    _DISABLE_CAPTURE = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    if _DISABLE_CAPTURE is not None:
        with _DISABLE_CAPTURE():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _diagonal_first(reports):
    """Admitted draws ordered from most to least diagonal momentum."""
    admitted = [r for r in reports if r.admitted]
    admitted.sort(
        key=lambda r: abs(abs(momentum(r.j, r.t)[0]) - abs(momentum(r.j, r.t)[1]))
    )
    return admitted


# ---------------------------------------------------------------------
# 1. Decoupled limit: the plane wave solves the cubic problem exactly.
# ---------------------------------------------------------------------

def test_criterion_01_plane_wave_limit():
    ctx = ModelContext(
        n=2, l=3, sigma=1.0, A=math.sqrt(COUPLING),
        V=PeriodicFunction.zero(2), delta=0.05,
    )
    t0 = time.perf_counter()
    sol, _ = iterate(ctx, (0.3, 0.4), (4, 1))
    dt = time.perf_counter() - t0

    res = residual(ctx, sol) if sol is not None else math.inf
    lam_err = (
        abs(sol.lam - (sol.center + sol.sigma_abs2)) if sol is not None else math.inf
    )
    ok = (
        sol is not None
        and sol.steps == 1
        and lam_err <= 1e-12
        and res < 1e-12
        and dt < 1.0
    )
    _report(1, ok, f"(lam error {lam_err:.1e}, residual {res:.1e}, {dt:.2f}s)")
    assert ok


# ---------------------------------------------------------------------
# 2. Linear limit: fixed point == series == dense eigensolve, two windows.
# ---------------------------------------------------------------------

def test_criterion_02_linear_equivalence(desk_points):
    worst = 0.0
    ok = True
    t0 = time.perf_counter()
    for name in ("l1_k8", "l1_k10", "l3_k8", "l3_k10"):
        point = desk_points[name]
        ctx = context_for(point, nonlinear=False)
        if point["l"] == 1:
            ctx = replace(ctx, r_max=14)
        t, j = point["t"], point["j"]

        t_case = time.perf_counter()
        pair = series_eigenpair(ctx, ctx.V, t, j)
        sol, _ = iterate(ctx, t, j)
        ok &= sol is not None and sol.lam_gap == pair.lam_gap

        M = ctx.m_lin(point["k"])
        for window in (M, M + 4):
            diag = diagonalize_oracle(ctx, ctx.V, t, j, window=window)
            gap = abs(pair.lam_gap - diag.lam_gap)
            ok &= gap <= pair.tail_bound + 1e-9
            worst = max(worst, gap)
        ok &= time.perf_counter() - t_case < 60.0
    dt = time.perf_counter() - t0
    _report(2, ok, f"(4 desks x 2 windows, worst |series-diag| {worst:.1e}, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 3. Perturbative orders against residue-calculus closed forms.
# ---------------------------------------------------------------------

def test_criterion_03_closed_form_orders():
    ctx = make_context(3, 0.05)
    worst_g2 = worst_col = 0.0
    checked = 0
    t0 = time.perf_counter()
    for s in range(20):
        k = 10.0 + 30.0 * s / 19.0
        found = None
        for omega in sample_directions(2, 400, seed=s):
            from polywave.lattice import decompose

            j, t = decompose(k * omega)
            rep = check_quasimomentum(ctx, t, j)
            if rep.admitted:
                found = rep
                break
        assert found is not None, f"no admitted draw at k={k}"
        t, j = found.t, found.j

        pair = series_eigenpair(ctx, ctx.V, t, j)
        shift = second_order_eigenvalue_shift(ctx, ctx.V, t, j)
        worst_g2 = max(worst_g2, abs(pair.g_terms[1].real - shift) / abs(shift))

        dense = dense_window_series(ctx, ctx.V, t, j, r_max=2)
        closed = first_order_column(ctx, ctx.V, t, j)
        col = dense.order_terms[1][:, dense.center_index]
        for idx, site in enumerate(dense.sites):
            d = tuple(int(a - b) for a, b in zip(site, j))
            want = closed.get(d)
            if want != 0.0:
                worst_col = max(worst_col, abs(col[idx] - want) / abs(want))
            else:
                worst_col = max(worst_col, abs(col[idx]))
        checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 20 and worst_g2 <= 1e-10 and worst_col <= 1e-10
    _report(3, ok, f"(20 configs, worst g2 rel {worst_g2:.1e}, "
                   f"worst column rel {worst_col:.1e}, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 4. Structural identities of the expansion algebra.
# ---------------------------------------------------------------------

def test_criterion_04_algebraic_identities(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    dense = dense_window_series(ctx, ctx.V, point["t"], point["j"], r_max=2)
    c = dense.center_index
    diag_entry = dense.order_terms[1][c, c]

    rng = np.random.default_rng(4)
    freqs = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]

    def draw():
        size = int(rng.integers(1, 7))
        picks = rng.choice(len(freqs), size=size, replace=False)
        return PeriodicFunction(
            2,
            {
                freqs[i]: complex(rng.standard_normal(), rng.standard_normal())
                for i in picks
            },
        )

    sub_ok = real_ok = 0
    for _ in range(1000):
        f, g = draw(), draw()
        if star_norm(multiply(f, g)) <= star_norm(f) * star_norm(g) * (1 + 1e-12):
            sub_ok += 1
        if abs_squared(draw()).is_real_valued(1e-13):
            real_ok += 1

    ok = diag_entry == 0.0 and sub_ok == 1000 and real_ok == 1000
    _report(4, ok, f"(anchor diagonal {complex(diag_entry)}, submultiplicative "
                   f"{sub_ok}/1000, |.|^2 real {real_ok}/1000)")
    assert ok


# ---------------------------------------------------------------------
# 5. Certified contraction of the self-consistency map (l=3, k=10).
# ---------------------------------------------------------------------

def test_criterion_05_certified_contraction(desk_points):
    point = desk_points["l3_k10"]
    ctx = context_for(point, nonlinear=True)
    t0 = time.perf_counter()
    sol, trace = iterate(ctx, point["t"], point["j"])
    rep = contraction_report(ctx, trace, sol.k)
    dt = time.perf_counter() - t0

    ratio_bound = 8.0 * COUPLING * sol.k ** -3.95
    drift_bound = 8.0 * COUPLING * ctx.v_star * sol.k ** -4.25
    increments_ok = all(
        nxt <= max(ratio_bound * cur, rep.noise_floor) * (1 + 1e-9)
        for cur, nxt in zip(rep.increments, rep.increments[1:])
    )
    statuses = rep.ratio_status + rep.drift_status + rep.col_status
    ok = (
        sol is not None
        and rep.bound_applicable
        and not rep.violated
        and all(s in ("held", "not-applicable") for s in statuses)
        and rep.ratio_bound == pytest.approx(ratio_bound, rel=1e-12)
        and 8.9e-7 < rep.ratio_bound < 9.1e-7
        and rep.drift_bound == pytest.approx(drift_bound, rel=1e-12)
        and all(d <= rep.drift_bound for d in rep.drifts)
        and increments_ok
        and dt < 300.0
    )
    _report(5, ok, f"(ratio bound {rep.ratio_bound:.2e}, max drift "
                   f"{max(rep.drifts):.2e} <= {rep.drift_bound:.2e}, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 6. Second-order desk case (l=1, k~8): solve, confirm, flag no bounds.
# ---------------------------------------------------------------------

def test_criterion_06_gross_pitaevskii_desk(desk_points):
    point = desk_points["l1_k8"]
    ctx = context_for(point, nonlinear=True)
    t0 = time.perf_counter()
    # second-order dispersion converges too slowly in perturbation orders for
    # a 1e-8 residual; the desk case therefore runs on the dense window
    sol, trace = iterate(ctx, point["t"], point["j"], backend="diag")
    res = residual(ctx, sol) if sol is not None else math.inf
    ref = compare(ctx, sol) if sol is not None else None
    rep = contraction_report(ctx, trace, sol.k)
    dt = time.perf_counter() - t0

    statuses = rep.ratio_status + rep.drift_status + rep.col_status
    ok = (
        sol is not None
        and res < 1e-8
        and ref is not None
        and ref.d_lam_gap < 1e-9
        and ref.d_psi < 1e-9
        and not rep.bound_applicable           # k ~ 8 sits far below k1 here
        and len(statuses) > 0
        and all(s == "not-applicable" for s in statuses)
        and not rep.violated
    )
    _report(6, ok, f"(residual {res:.1e}, newton moves {ref.d_lam_gap:.1e}/"
                   f"{ref.d_psi:.1e}, k1 {rep.k1:.2e} unreached, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 7. Eigenvalue remainder decays with k at the certified rate.
# ---------------------------------------------------------------------

def test_criterion_07_remainder_decay():
    ctx = make_context(3, 0.05, sigma=1.0, amp2=COUPLING, seed=0)
    rems = []
    t0 = time.perf_counter()
    for k in (8.0, 12.0, 16.0, 24.0):
        stats = sample_nonresonant(ctx, k, 400)
        rep = _diagonal_first(stats.reports)[0]
        sol, _ = iterate(ctx, rep.t, rep.j)
        assert sol is not None
        rems.append(abs(sol.asym_remainder))
    dt = time.perf_counter() - t0

    ks = np.array([8.0, 12.0, 16.0, 24.0])
    decreasing = all(b < a for a, b in zip(rems, rems[1:]))
    # scale out the contour-radius prefactor of the remainder estimate;
    # the decay exponent left over must beat 2*gamma2 - 1 = 7.5
    scaled = np.array(rems) / (ks ** 3.95 + COUPLING)
    slope = float(np.polyfit(np.log(ks), np.log(scaled), 1)[0])
    ok = decreasing and slope <= -7.5 and dt < 300.0
    _report(7, ok, f"(remainders {rems[0]:.1e}->{rems[-1]:.1e}, "
                   f"scaled slope {slope:.2f} <= -7.5, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 8. Isoenergetic surface: correction decay, certificates, D4 symmetry.
# ---------------------------------------------------------------------

def test_criterion_08_surface_decay_and_symmetry():
    ctx = make_context(3, 0.05, seed=0)
    hs = []
    certs = 0
    base_dirs = {}
    t0 = time.perf_counter()
    for kt in (8.0, 12.0, 16.0, 24.0):
        lam = kt ** 6
        ktilde, _ = reference_radius(ctx, lam)
        stats = sample_nonresonant(ctx, ktilde, 400)
        rep = _diagonal_first(stats.reports)[0]
        p = momentum(rep.j, rep.t)
        nu = p / np.linalg.norm(p)
        base_dirs[kt] = nu
        sample = kappa_solve(replace(ctx, tol_root=1e-13 * lam), lam, nu)
        hs.append(abs(sample.h))
        certs += abs(sample.f_at_root) <= 1e-13 * lam

    a, b = base_dirs[12.0]
    orbit = [
        (a, b), (-a, b), (a, -b), (-a, -b),
        (b, a), (-b, a), (b, -a), (-b, -a),
    ]
    lam12 = 12.0 ** 6
    ctx12 = replace(ctx, tol_root=1e-13 * lam12)
    kappas = [kappa_solve(ctx12, lam12, img).kappa for img in orbit]
    spread = max(kappas) - min(kappas)
    dt = time.perf_counter() - t0

    slope = float(np.polyfit(np.log([8.0, 12.0, 16.0, 24.0]), np.log(hs), 1)[0])
    ok = certs == 4 and slope <= -9.05 and spread <= 1e-10 and dt < 900.0
    _report(8, ok, f"(|h| slope {slope:.2f} <= -9.05, certificates {certs}/4, "
                   f"square-orbit spread {spread:.1e}, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 9. Admitted fraction grows with k (within binomial noise).
# ---------------------------------------------------------------------

def test_criterion_09_admitted_fraction_trend():
    ctx = make_context(3, 0.05, seed=1)
    t0 = time.perf_counter()
    fractions = [sample_nonresonant(ctx, k, 400).fraction for k in (10.0, 20.0, 40.0)]
    dt = time.perf_counter() - t0
    ok = True
    for cur, nxt in zip(fractions, fractions[1:]):
        noise = 2.0 * math.sqrt(cur * (1.0 - cur) / 400.0)
        ok &= nxt >= cur - noise
    _report(9, ok, f"(fractions {fractions[0]:.4f}/{fractions[1]:.4f}/"
                   f"{fractions[2]:.4f} at k=10/20/40, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 10. Quasi-momentum gradient tracks the free-wave formula.
# ---------------------------------------------------------------------

def test_criterion_10_eigenvalue_gradient(desk_points):
    point = desk_points["l3_k10"]
    ctx = context_for(point, nonlinear=False)
    t0 = time.perf_counter()
    check = eigenvalue_gradient(ctx, ctx.V, point["t"], point["j"], step=1e-3)
    dt = time.perf_counter() - t0
    ok = check.relative < 1e-2
    _report(10, ok, f"(relative deviation {check.relative:.1e} < 1e-2, {dt:.1f}s)")
    assert ok


# ---------------------------------------------------------------------
# 11. Bytewise determinism of every command-line artifact.
# ---------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, desk_points):
    point = desk_points["l3_k8"]
    t, j = point["t"], point["j"]
    model = "\n".join(
        [
            "n = 2",
            "l = 3",
            "v.1,0 = 1.0",
            "v.-1,0 = 1.0",
            "v.0,1 = 1.0",
            "v.0,-1 = 1.0",
        ]
    )
    model_nl = model + f"\nsigma = 1.0\nA = {math.sqrt(COUPLING)!r}"
    desk = f"\nt = {t[0]!r},{t[1]!r}\nj = {j[0]},{j[1]}"

    fp_out = None
    configs = {
        "linear-eig": model + desk,
        "nonres-scan": model + "\nk = 6.0\nsamples = 24",
        "fixed-point": model_nl + desk,
        "isoenergetic": model + "\nlambda = 262144.0\nsamples = 2",
    }

    t0 = time.perf_counter()
    identical = True
    compared = 0
    for command, body in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(body + "\n")
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
            runs.append(out)
        if command == "fixed-point":
            fp_out = runs[0]
        for artifact in sorted(p.name for p in runs[0].iterdir()):
            identical &= (
                (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()
            )
            compared += 1

    vcfg = tmp_path / "verify.cfg"
    vcfg.write_text(model_nl + f"\nsolution = {fp_out / 'solution.json'}\n")
    vruns = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify-{tag}"
        assert cli_main(["verify", "--config", str(vcfg), "--out", str(out)]) == 0
        vruns.append(out)
    for artifact in sorted(p.name for p in vruns[0].iterdir()):
        identical &= (
            (vruns[0] / artifact).read_bytes() == (vruns[1] / artifact).read_bytes()
        )
        compared += 1
    dt = time.perf_counter() - t0

    ok = identical and compared >= 12
    _report(11, ok, f"(5 commands re-run, {compared} artifacts byte-identical, {dt:.1f}s)")
    assert ok
