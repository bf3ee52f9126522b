"""Contour-series band solver against closed forms and dense references."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave import bloch, fixedpoint
from polywave.bloch import (
    ContourSpec,
    _chain_series,
    _eigenvalue_terms,
    diagonalize_oracle,
    series_eigenpair,
)
from polywave.errors import ConfigError, ContractError, NumericalFailure, ResonanceError
from polywave.fixedpoint import iterate
from polywave.lattice import (
    ModelContext,
    PeriodicFunction,
    cosine_potential,
    integer_grid,
    momentum,
    star_norm,
    zero_mean_shift,
)
from polywave.nonres import contour_radius, energy_gaps, sample_nonresonant

import chain_reference
import dense_reference
from closed_forms import eigenvalue_gradient, first_order_column, second_order_eigenvalue_shift
from dense_reference import dense_window_series, op_norm_1
from conftest import context_for, make_context


# -- contour quadrature ------------------------------------------------

def test_contour_weights_reproduce_residues():
    contour = ContourSpec(center=0.0, rho=2.5, count=64)
    zeta, w = contour.nodes()
    # closed path: integral of dz vanishes
    assert abs(np.sum(w)) < 1e-13 * contour.rho
    # simple pole at the center: residue 1, exactly one term per node
    assert np.sum(w / zeta) == pytest.approx(1.0, abs=1e-14)
    # pole inside but off-center: still residue 1, trapezoid-fast convergence
    assert np.sum(w / (zeta - 1.0)) == pytest.approx(1.0, abs=1e-12)
    # pole outside: integral 0
    assert abs(np.sum(w / (zeta - 5.0))) < 1e-12


# -- energy ladder -----------------------------------------------------

def test_ladder_at_origin():
    offsets = integer_grid(1, 2).reshape(-1, 2)
    ladder1 = np.sort(energy_gaps(make_context(1, 0.25), (0.0, 0.0), (0, 0), offsets))
    assert np.array_equal(ladder1, [0, 1, 1, 1, 1, 2, 2, 2, 2])
    ladder3 = np.sort(energy_gaps(make_context(3, 0.05), (0.0, 0.0), (0, 0), offsets))
    assert np.array_equal(ladder3, [0, 1, 1, 1, 1, 8, 8, 8, 8])


# -- free (decoupled) case --------------------------------------------

def test_series_free_case_is_exact(ctx_l3_lin):
    pair = series_eigenpair(ctx_l3_lin, PeriodicFunction.zero(2), (0.3, 0.4), (4, 1))
    p = momentum((4, 1), (0.3, 0.4))
    assert pair.lam == pair.center
    assert pair.lam == pytest.approx(float(p @ p) ** 3, rel=1e-15)
    assert pair.lam_gap == 0.0
    assert all(g == 0.0 for g in pair.g_terms)
    assert pair.e_jj == 1.0
    assert len(pair.proj_column) == 1
    psi = pair.psi(0.5 + 0.5j)
    assert psi.get((0, 0)) == 0.5 + 0.5j
    assert pair.tail_bound == 0.0 and pair.tail_certified


# -- perturbative orders against closed forms -------------------------

def test_first_orders_match_residue_calculus(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = series_eigenpair(ctx, ctx.V, t, j)

    # zero-mean perturbation: no first-order eigenvalue shift, bitwise
    assert pair.g_terms[0] == 0.0

    shift = second_order_eigenvalue_shift(ctx, ctx.V, t, j)
    assert pair.g_terms[1].real == pytest.approx(shift, rel=1e-10)

    dense = dense_window_series(ctx, ctx.V, t, j, r_max=2)
    col_oracle = first_order_column(ctx, ctx.V, t, j)
    col_dense = dense.order_terms[1][:, dense.center_index]
    for idx, site in enumerate(dense.sites):
        d = tuple(int(a - b) for a, b in zip(site, j))
        assert col_dense[idx] == pytest.approx(col_oracle.get(d), abs=1e-12)


@pytest.mark.parametrize("odd", [False, True])
def test_eigenvalue_terms_read_the_second_order_off_the_first_order_column(desk_points, odd):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    # an even W has w_d = w_{-d}, so only the odd harmonic can tell them apart
    W = ctx.V + ODD_HARMONIC if odd else ctx.V
    assert W.is_even() is not odd
    R = W.box_radius
    columns = np.zeros((3,) + (2 * R + 1,) * 2, dtype=complex)
    columns[1] = first_order_column(ctx, W, t, j).to_box(R)
    g = _eigenvalue_terms(W, columns)
    assert g[1] == 0.0
    shift = second_order_eigenvalue_shift(ctx, W, t, j)
    assert abs(g[2] - shift) <= 1e-14 * abs(shift)


def test_dense_window_cross_checks_chain_engine(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = series_eigenpair(replace(ctx, r_max=4), ctx.V, t, j)
    dense = dense_window_series(ctx, ctx.V, t, j, r_max=4)
    for r in range(4):
        assert pair.g_terms[r] == pytest.approx(dense.g_dense[r + 1], rel=1e-9, abs=1e-12)
    # total projector column through the dense route
    total = sum(term[:, dense.center_index] for term in dense.order_terms)
    for idx, site in enumerate(dense.sites):
        d = tuple(int(a - b) for a, b in zip(site, j))
        assert total[idx] == pytest.approx(pair.proj_column.get(d), abs=1e-11)


def test_projector_column_bound(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = series_eigenpair(ctx, ctx.V, t, j)
    # operator norms of the order terms, from the dense expansion
    G_norms = [op_norm_1(Gr) for Gr in dense_window_series(ctx, ctx.V, t, j).order_terms[1:]]
    A = 0.125
    psi = pair.psi(A)
    dev = star_norm(psi - PeriodicFunction.constant(2, A))
    assert dev <= abs(A) * math.fsum(G_norms) * (1 + 1e-12)


# -- chain engine against the anchor-split reference -------------------

# Fixed from float64 rounding before the batched kernel was written.  The
# reference splits every chain at the anchor and takes the eigenvalue from the
# trace formula; the engine runs one chain per node on the full resolvent and
# reads the eigenvalue off the columns, so the two agree only as algorithms.
LAM_RTOL = 1e-12        # lam_gap, relative
G_RTOL = 1e-12          # g_terms, absolute per order, in units of max |g_r|
COL_RTOL = 1e-14        # column sup-norm, in units of its 1-norm


def _reference_sums(ctx, W, pair, r_max):
    """Per-node reference pass to order ``r_max`` over a fresh ring of the
    size ``pair`` accepted, at its anchor: (g_terms, per-order column boxes
    with ``e_anchor`` in the r = 0 slot)."""
    gaps = energy_gaps(ctx, pair.t, pair.j, integer_grid(r_max * W.box_radius, ctx.n))
    contour = ContourSpec(pair.center, pair.rho, pair.quad_nodes)
    g, cols = chain_reference._chain_series(ctx, gaps, W, r_max, contour)
    cols[(0,) + (r_max * W.box_radius,) * ctx.n] = 1.0
    return g, cols


def _assert_matches_reference(ctx, W, pair):
    """The pair against the reference at the order the pair ran."""
    r_max = len(pair.g_terms)
    g_ref, cols_ref = _reference_sums(ctx, W, pair, r_max)
    col_ref = cols_ref.sum(axis=0)
    lam_ref = float(np.sum(g_ref).real)
    assert abs(pair.lam_gap - lam_ref) <= LAM_RTOL * abs(lam_ref)
    g_dev = np.abs(np.array(pair.g_terms) - g_ref[1:]).max()
    assert g_dev <= G_RTOL * np.abs(g_ref).max()
    col = pair.proj_column.to_box(r_max * W.box_radius)
    assert np.abs(col - col_ref).max() <= COL_RTOL * np.abs(col_ref).sum()


def _assert_truncation_within_tail(ctx, W, pair):
    """The pair, cut at its certified order, against the reference run to
    ``ctx.r_max``: the orders it left out move lam_gap and the column by no
    more than the tails it reports.  The column's gap is the reference's own
    orders past the pair's; the whole gap, pruning included, is
    ``test_column_tail_covers_the_pruned_mass``'s."""
    assert pair.tail_certified
    g_ref, cols_ref = _reference_sums(ctx, W, pair, ctx.r_max)
    assert abs(pair.lam_gap - float(np.sum(g_ref).real)) <= pair.tail_bound
    left_out = cols_ref[len(pair.g_terms) + 1:].sum(axis=0)
    assert np.abs(left_out).sum() <= pair.tail_bound_column


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_chain_engine_matches_reference_on_desks(desk_points, name):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    pair = series_eigenpair(ctx, ctx.V, point["t"], point["j"])
    # the accepted ring, as measured: the first pass's 2N ring on three desks,
    # one doubling more on l1_k10; compared with a fresh pass of the reference
    N = bloch.QUAD_NODES
    assert pair.quad_nodes == {"l3_k8": 2 * N, "l3_k10": 2 * N, "l1_k8": 2 * N, "l1_k10": 4 * N}[name]
    _assert_matches_reference(ctx, ctx.V, pair)
    # the l = 3 tails are certified and stop the series early; every l = 1
    # order runs, for an empirical tail
    order = {"l3_k8": 5, "l3_k10": 4}.get(name, ctx.r_max)
    assert len(pair.g_terms) == len(pair.G_norms) == order
    assert pair.tail_certified is (order < ctx.r_max)
    if pair.tail_certified:
        _assert_truncation_within_tail(ctx, ctx.V, pair)


_offsets = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda q: q != (0, 0))
_amplitudes = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _zero_mean_real(draw):
    """Zero-mean real W with 2-14 coefficients: 1-7 Hermitian pairs."""
    coeffs = {}
    for q, c in draw(st.dictionaries(_offsets, _amplitudes, min_size=1, max_size=7)).items():
        mq = (-q[0], -q[1])
        if mq not in coeffs:
            coeffs[q], coeffs[mq] = c, c.conjugate()
    return PeriodicFunction(2, coeffs)


@given(_zero_mean_real())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_chain_engine_matches_reference_on_drawn_W(desk_points, W):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    assert 2 <= len(W) <= 14 and W.is_real_valued()
    pair = series_eigenpair(ctx, W, point["t"], point["j"])
    _assert_matches_reference(ctx, W, pair)

    # one ring at a time: the batched kernel against the reference pass
    gaps = energy_gaps(ctx, pair.t, pair.j, integer_grid(ctx.r_max * W.box_radius, 2))
    contour = ContourSpec(pair.center, pair.rho, bloch.QUAD_NODES)
    cols = _chain_series(gaps, W, ctx.r_max, *contour.nodes())
    g = _eigenvalue_terms(W, cols)
    g_ref, cols_ref = chain_reference._chain_series(ctx, gaps, W, ctx.r_max, contour)
    assert np.abs(g - g_ref).max() <= G_RTOL * np.abs(g_ref).max()
    assert np.abs(cols - cols_ref).max() <= COL_RTOL * np.abs(cols_ref).sum()


_real_amplitudes = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda c: abs(c) >= 1e-3)


@st.composite
def _zero_mean_even(draw):
    """Zero-mean even W with 2-14 real coefficients, w_{-q} = w_q."""
    coeffs = {}
    for q, c in draw(st.dictionaries(_offsets, _real_amplitudes, min_size=1, max_size=7)).items():
        mq = (-q[0], -q[1])
        if mq not in coeffs:
            coeffs[q] = coeffs[mq] = c
    return PeriodicFunction(2, coeffs)


@given(_zero_mean_even())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_folded_ring_matches_full_reference_on_drawn_even_W(desk_points, W):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    assert 2 <= len(W) <= 14 and W.is_even() and W.is_real_valued()
    pair = series_eigenpair(ctx, W, point["t"], point["j"])
    # the reference runs every node of the accepted ring
    _assert_matches_reference(ctx, W, pair)
    # the folded sums are real by construction, not to rounding
    assert not np.imag(pair.g_terms).any()
    assert pair.proj_column.is_even()
    _assert_truncation_within_tail(ctx, W, pair)


# Fixed draws of even W at the l3_k8 anchor for the column tail: 1-7 pairs
# w_q = w_-q on the offsets of [-2, 2]^2, amplitudes of modulus 1e-3 to 1.
COLUMN_TAIL_SEED = 1
COLUMN_TAIL_DRAWS = 40


def test_column_tail_covers_the_pruned_mass(desk_points):
    """The pair's column is within ``tail_bound_column`` of the reference
    run to ``ctx.r_max``, in 1-norm.  The bound counts the orders past the
    pair's last and the mass ``from_box`` prunes at ``PRUNE_TOL``; the
    pruned mass alone exceeds the orders' bound on some draws.  The
    reference column adds ``e_anchor`` after its orders, as the engine does,
    so the anchor's ``1 + E_jj`` rounds alike on both sides: added first, it
    can round one ulp (1.1e-16) apart, which is rounding, not tail."""
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    rng = np.random.default_rng(COLUMN_TAIL_SEED)
    half = [q for q in map(tuple, integer_grid(2, 2).reshape(-1, 2).tolist()) if q > (0, 0)]
    misses = []
    for draw in range(COLUMN_TAIL_DRAWS):
        count = rng.integers(1, 8)
        picks = rng.choice(len(half), count, replace=False)
        amps = rng.uniform(1e-3, 1.0, count) * rng.choice([-1.0, 1.0], count)
        coeffs = {}
        for i, c in zip(picks, amps):
            q = half[i]
            coeffs[q] = coeffs[(-q[0], -q[1])] = float(c)
        W = PeriodicFunction(2, coeffs)
        pair = series_eigenpair(ctx, W, point["t"], point["j"])
        assert pair.tail_certified
        _, cols_ref = _reference_sums(ctx, W, pair, ctx.r_max)
        R = ctx.r_max * W.box_radius
        col_ref = cols_ref[1:].sum(axis=0)
        col_ref[R, R] += 1.0
        gap = float(np.abs(pair.proj_column.to_box(R) - col_ref).sum())
        if not gap <= pair.tail_bound_column:
            misses.append((draw, gap, pair.tail_bound_column))
    assert not misses


def test_only_even_W_folds_the_ring(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    N = bloch.QUAD_NODES
    counts = []     # nodes of every chain-engine call, in call order
    engine = bloch._chain_series

    def counting(gaps, W, r_max, zeta, weights):
        counts.append(zeta.size)
        return engine(gaps, W, r_max, zeta, weights)

    monkeypatch.setattr(bloch, "_chain_series", counting)

    # V even: one pass over k = 0..N of the 2N ring, which holds the N ring
    folded = series_eigenpair(ctx, ctx.V, t, j)
    assert counts == [N + 1]
    assert not np.imag(folded.g_terms).any() and folded.proj_column.is_even()

    # one complex Hermitian pair: every node runs, and the sums stay complex
    counts.clear()
    W = ctx.V + ODD_HARMONIC
    assert W.is_real_valued() and not W.is_even()
    full = series_eigenpair(ctx, W, t, j)
    assert counts == [2 * N]
    assert full.quad_nodes == folded.quad_nodes == 2 * N
    assert not full.proj_column.is_even()
    _assert_matches_reference(ctx, W, full)


@pytest.mark.parametrize("odd", [False, True])
def test_one_pass_holds_both_rings(desk_points, monkeypatch, odd):
    """The first pass's two weight rows are the N ring's sums and the 2N
    ring's, as separate passes over the N ring and the odd half of the 2N
    ring (folded where W is even) give them."""
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    W = ctx.V + ODD_HARMONIC if odd else ctx.V
    N = bloch.QUAD_NODES
    passes = []
    engine = bloch._chain_series

    def recording(*args):
        passes.append(engine(*args))
        return passes[-1]

    monkeypatch.setattr(bloch, "_chain_series", recording)
    pair = series_eigenpair(ctx, W, point["t"], point["j"])
    assert len(passes) == 1 and pair.quad_nodes == 2 * N
    order = len(pair.g_terms)
    gaps = energy_gaps(ctx, pair.t, pair.j, integer_grid(order * W.box_radius, 2))

    def ring(size, start):
        """Separate pass over nodes start, start + 2, ... (every node from
        start = 0 when size is N) of the size ring."""
        zeta, w = ContourSpec(pair.center, pair.rho, size).nodes()
        idx = np.arange(start, size, 2 if size > N else 1)
        if not odd:
            idx = idx[2 * idx <= size]
            w = w * np.where((np.arange(size) == 0) | (2 * np.arange(size) == size), 1.0, 2.0)
        cols = engine(gaps, W, order, zeta[idx], w[idx])
        return cols if odd else cols.real

    one = passes[0] if odd else passes[0].real
    n_ring = ring(N, 0)
    for row, ref in ((one[:, 1], n_ring), (one[:, 0], 0.5 * n_ring + ring(2 * N, 1))):
        lam, lam_ref = (np.sum(_eigenvalue_terms(W, cols)) for cols in (row, ref))
        assert abs(lam - lam_ref) <= LAM_RTOL * abs(lam_ref)
        assert np.abs(row - ref).max() <= COL_RTOL * np.abs(ref).sum()


def test_ring_escalation_reaches_1024_nodes(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    N = bloch.QUAD_NODES
    counts = []
    engine = bloch._chain_series

    def counting(gaps, W, r_max, zeta, weights):
        counts.append(zeta.size)
        return engine(gaps, W, r_max, zeta, weights)

    monkeypatch.setattr(bloch, "_chain_series", counting)
    # no two rings agree to 0: every doubling runs, each on the folded odd
    # half of the next ring, and the last names the largest pair of rings
    monkeypatch.setattr(bloch, "QUAD_RTOL", 0.0)
    with pytest.raises(NumericalFailure, match="between 512 and 1024 nodes"):
        series_eigenpair(ctx, ctx.V, point["t"], point["j"])
    assert counts == [N + 1] + [size // 4 for size in (64, 128, 256, 512, 1024)]


def test_quad_nodes_records_escalation(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    # eight nodes alias far above QUAD_RTOL, so the ring must double
    monkeypatch.setattr(bloch, "QUAD_NODES", 8)
    pair = series_eigenpair(ctx, ctx.V, point["t"], point["j"])
    assert pair.quad_nodes > 2 * 8
    _assert_matches_reference(ctx, ctx.V, pair)


# -- series order -------------------------------------------------------

@pytest.mark.parametrize("k, order", [(8.0, 5), (12.0, 4), (16.0, 3)])
def test_certified_series_stops_at_the_order_its_tail_needs(ctx_l3_nl, k, order):
    """On the l = 3 model the band solve, and the fixed point's last one,
    run the first order whose certified tails are within tol_fp_value."""
    ctx = ctx_l3_nl
    report = next(r for r in sample_nonresonant(ctx, k, 120).reports if r.admitted)
    pair = series_eigenpair(ctx, ctx.V, report.t, report.j)
    sol, _ = iterate(ctx, report.t, report.j)
    for p in (pair, sol.eigenpair):
        assert p.tail_certified and len(p.g_terms) == len(p.G_norms) == order < ctx.r_max
        assert max(p.tail_bound, p.tail_bound_column) <= ctx.tol_fp_value


def test_series_requires_zero_mean_real_input(ctx_l3_lin):
    with pytest.raises(ContractError):
        series_eigenpair(ctx_l3_lin, PeriodicFunction.constant(2, 1.0), (0.3, 0.4), (4, 1))
    skew = PeriodicFunction(2, {(1, 0): 1j, (-1, 0): 1j})
    with pytest.raises(ContractError):
        series_eigenpair(ctx_l3_lin, skew, (0.3, 0.4), (4, 1))


def test_series_rejects_resonant_momentum(ctx_l3_lin):
    with pytest.raises(ResonanceError):
        series_eigenpair(ctx_l3_lin, ctx_l3_lin.V, (0.0, 0.0), (5, 0))


# -- dense diagonalization oracle -------------------------------------

def test_oracle_matches_series_within_tail(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = series_eigenpair(ctx, ctx.V, t, j)
    assert pair.tail_certified
    diag = diagonalize_oracle(ctx, ctx.V, t, j)
    assert abs(pair.lam_gap - diag.lam_gap) <= pair.tail_bound + 1e-9
    assert diag.backend == "diag"
    # projector columns agree to the column tail
    assert star_norm(pair.proj_column - diag.proj_column) <= pair.tail_bound_column + 1e-9


def test_oracle_input_contracts(ctx_l3_lin):
    with pytest.raises(ContractError):
        diagonalize_oracle(ctx_l3_lin, PeriodicFunction.constant(2, 1.0), (0.3, 0.4), (4, 1))
    skew = PeriodicFunction(2, {(1, 0): 1j, (-1, 0): 1j})
    with pytest.raises(ContractError):
        diagonalize_oracle(ctx_l3_lin, skew, (0.3, 0.4), (4, 1))


def test_oracle_flags_degenerate_window(ctx_l3_lin):
    # lattice point: several unperturbed energies collide inside the ring
    with pytest.raises(ResonanceError):
        diagonalize_oracle(ctx_l3_lin, ctx_l3_lin.V, (0.0, 0.0), (5, 0))


# admitted n = 3, l = 3, k = 10 point: rho ~ 891, default radius 20 (41^3 sites)
N3_T = (0.19061364492264854, 0.49689265475472233, 0.42132525273177723)
N3_J = (-4, 6, -7)


def n3_context(amplitude):
    return ModelContext(
        n=3, l=3, sigma=0.0, A=0.0, V=cosine_potential(3, (amplitude,) * 3)
    )


def test_oracle_window_bounds_at_three_dimensions():
    t, j = N3_T, N3_J
    weak, strong = n3_context(1.0), n3_context(1000.0)
    # ||V||_* = 6000 >= rho: admission cannot isolate the band, so the 2k
    # window stays and exceeds the site budget
    with pytest.raises(ConfigError, match="exceeds"):
        diagonalize_oracle(strong, strong.V, t, j)
    with pytest.raises(ConfigError, match="below the 4"):
        diagonalize_oracle(weak, weak.V, t, j, window=0)


# -- sparse oracle against the dense eigh reference ---------------------

# Fixed before the sparse oracle was written, from the dense solve's rounding:
# its column carries ~1e-15 dust on every window site.
ORACLE_LAM_RTOL = 1e-13     # lam_gap, relative
ORACLE_COL_ATOL = 1e-10     # star norm of the column difference


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_sparse_oracle_matches_dense_reference(
    desk_points, factorisations, eigensolves, name, extra
):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    window = ctx.m_lin(point["k"]) + extra
    sparse = diagonalize_oracle(ctx, ctx.V, t, j, window=window)
    # four coefficients store well under 1 % of the window operator
    assert factorisations == ["splu"]
    # a Weyl bound isolates every l = 3 band; no l = 1 band has one
    assert eigensolves == ([] if point["l"] == 3 else [2])
    dense = dense_reference.diagonalize_oracle(ctx, ctx.V, t, j, window=window)
    assert abs(sparse.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(sparse.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


def nonlinear_perturbation(point):
    """Zero-mean ``W = V + sigma |psi|^2`` of the first fixed-point step at a
    desk point, the first ``W`` the diag backend solves after its seed on V."""
    ctx = context_for(point, nonlinear=True)
    _, trace = iterate(ctx, point["t"], point["j"], backend="diag")
    return ctx, zero_mean_shift(trace.rows[0].w)[0]


# sin(x1 + x2): odd, so H is complex Hermitian rather than real symmetric
ODD_HARMONIC = PeriodicFunction(2, {(1, 1): 0.3j, (-1, -1): -0.3j})


@pytest.mark.parametrize(
    "name, odd, window, coefficients",
    [
        pytest.param("l1_k8", False, None, 288, id="l1_k8-False-288"),
        pytest.param("l1_k8", True, None, 288, id="l1_k8-True-288"),
        pytest.param("l1_k8", True, 15, 288, id="l1_k8-True-288-window15"),
        pytest.param("l3_k8", False, None, 12, id="l3_k8-False-12"),
    ],
)
def test_sparse_oracle_matches_dense_reference_on_nonlinear_W(
    desk_points, factorisations, name, odd, window, coefficients
):
    point = desk_points[name]
    ctx, W = nonlinear_perturbation(point)
    assert len(W) == coefficients and not W.box.imag.any()
    if odd:
        W = W + ODD_HARMONIC
    t, j = point["t"], point["j"]
    factorisations.clear()
    pair = diagonalize_oracle(ctx, W, t, j, window=window)
    assert factorisations == ["splu"]
    dense = dense_reference.diagonalize_oracle(ctx, W, t, j, window=window)
    assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


# -- continued oracle solves against fresh ones ----------------------------

def assert_same_band(pair, fresh, dense):
    """``pair`` matches a fresh oracle solve on its ``W`` to the series
    tolerances and the dense ``eigh`` reference to the oracle's."""
    assert abs(pair.lam_gap - fresh.lam_gap) <= LAM_RTOL * abs(fresh.lam_gap)
    radius = max(pair.proj_column.box_radius, fresh.proj_column.box_radius)
    ref = fresh.proj_column.to_box(radius)
    assert np.abs(pair.proj_column.to_box(radius) - ref).max() <= COL_RTOL * np.abs(ref).sum()
    assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_continued_oracle_matches_fresh_solves_on_every_step(
    desk_points, monkeypatch, factorisations, name
):
    """Every step of a diag fixed point after the seed continues from the
    seed's factor and lands on the band a fresh solve on its own W finds."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=True)
    t, j = point["t"], point["j"]
    calls = []

    def recorded(*args, **kwargs):
        pair = diagonalize_oracle(*args, **kwargs)
        calls.append((args[1], kwargs, pair))
        return pair

    monkeypatch.setattr(fixedpoint, "diagonalize_oracle", recorded)
    iterate(ctx, t, j, backend="diag")
    assert factorisations == ["splu"]
    assert len(calls) > 1
    for W, kwargs, pair in calls[1:]:
        assert pair.isolation == kwargs["isolation"] >= pair.rho
        fresh = diagonalize_oracle(ctx, W, t, j)
        assert_same_band(pair, fresh, dense_reference.diagonalize_oracle(ctx, W, t, j))


@pytest.mark.parametrize("name", ["l1_k8", "l1_k10"])
def test_continued_oracle_matches_fresh_solve_on_odd_W(
    desk_points, factorisations, eigensolves, name
):
    """A complex Hermitian window continues from the real factor of V's."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    seed = diagonalize_oracle(ctx, ctx.V, t, j)
    harmonic = ODD_HARMONIC.scale(0.5)
    W = ctx.V + harmonic
    factorisations.clear()
    eigensolves.clear()
    pair = diagonalize_oracle(
        ctx, W, t, j, isolation=seed.isolation - star_norm(harmonic), previous=seed
    )
    assert factorisations == [] and eigensolves == []
    assert pair.inverse is seed.inverse
    fresh = diagonalize_oracle(ctx, W, t, j)
    assert_same_band(pair, fresh, dense_reference.diagonalize_oracle(ctx, W, t, j))


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "n3_k10"])
def test_isolated_bands_need_no_eigensolve(desk_points, eigensolves, name):
    """The band finder alone solves the clipped n = 3 window and every step
    of an l = 3 diag fixed point; each lands on the series band."""
    if name == "n3_k10":
        ctx, t, j = n3_context(1.0), N3_T, N3_J
        diag = diagonalize_oracle(ctx, ctx.V, t, j)
        series = series_eigenpair(ctx, ctx.V, t, j)
    else:
        point = desk_points[name]
        ctx, t, j = context_for(point, nonlinear=True), point["t"], point["j"]
        diag = iterate(ctx, t, j, backend="diag")[0]
        series = iterate(ctx, t, j)[0]
    assert eigensolves == []
    assert abs(diag.lam_gap - series.lam_gap) <= LAM_RTOL * abs(series.lam_gap)


def test_band_finder_refuses_a_vanishing_vector():
    """On ``H``'s own factor ``e_anchor`` has ``theta = 0`` and steps to the
    zero vector: the finder proves nothing there, without dividing by zero,
    and finds the band from ``H^-1 e_anchor``."""
    H = np.array([[0.0, 0.125], [0.125, 32.0]])    # zero anchor entry, as for zero-mean W
    inverse = np.array([[-2048.0, 8.0], [8.0, 0.0]])    # H^-1, exact in binary
    e_anchor = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bloch._continued_band(H.__matmul__, inverse, e_anchor, 1.0) is None
    v = bloch._continued_band(H.__matmul__, inverse, inverse @ e_anchor, 1.0)
    band = np.linalg.eigh(H)[1][:, 0]
    assert abs(abs(np.vdot(v, band)) / np.linalg.norm(v) - 1.0) <= 1e-15


def test_continued_oracle_falls_back_to_a_fresh_solve(
    desk_points, monkeypatch, factorisations, eigensolves
):
    """Without a proof from the continuation, the oracle factors the new
    window; a bound below rho measures the second eigenvalue, and so does a
    bound at rho where the finder proves nothing on the fresh factor."""
    point = desk_points["l1_k8"]
    ctx, W = nonlinear_perturbation(point)
    t, j = point["t"], point["j"]
    seed = diagonalize_oracle(ctx, ctx.V, t, j)
    dense = dense_reference.diagonalize_oracle(ctx, W, t, j)
    factorisations.clear()
    eigensolves.clear()
    pair = diagonalize_oracle(ctx, W, t, j, isolation=0.99 * seed.rho, previous=seed)
    assert factorisations == ["splu"] and eigensolves == [2]
    assert pair.isolation >= pair.rho
    assert_same_band(pair, diagonalize_oracle(ctx, W, t, j), dense)

    bound = seed.isolation - star_norm(W - ctx.V)
    assert bound >= seed.rho
    monkeypatch.setattr(bloch, "CONTINUE_STEPS_MAX", 0)
    factorisations.clear()
    eigensolves.clear()
    pair = diagonalize_oracle(ctx, W, t, j, isolation=bound, previous=seed)
    # nor does it from the vector of the loose isolation solve, which then
    # runs again to rounding
    assert factorisations == ["splu"] and eigensolves == [2, 2]
    fresh = diagonalize_oracle(ctx, W, t, j, isolation=bound)
    assert pair.lam_gap == fresh.lam_gap and pair.isolation == fresh.isolation
    assert star_norm(pair.proj_column - fresh.proj_column) == 0.0
    assert_same_band(pair, fresh, dense)


def test_empirical_tail_estimates_each_parity():
    # alternate orders vanish: the ratio is re-expressed per single order
    tail, ratio = bloch._empirical_tail([1.0, 0.0, 0.25, 0.0, 0.0625])
    assert ratio == 0.5 and tail == bloch.EMPIRICAL_SAFETY * 0.0625
    # alternate orders tiny but present: a ratio across parities would be
    # 1e4, each parity on its own decays at 0.1 per order
    tail, ratio = bloch._empirical_tail([0.0, 1.0, 1e-8, 1e-2, 1e-10, 1e-4])
    assert ratio == pytest.approx(0.1, rel=1e-12)
    assert tail == pytest.approx(bloch.EMPIRICAL_SAFETY * 1e-4 / 9.0, rel=1e-12)
    # one term per parity says nothing about decay
    assert bloch._empirical_tail([1.0, 0.5]) == (math.inf, math.inf)


def test_l1_empirical_tail_covers_the_oracle_gap(desk_points):
    """On the nonlinear l = 1 W the odd orders are parity-breaking dust; the
    tail of the r_max 6 series still bounds its distance to the oracle."""
    point = desk_points["l1_k8"]
    ctx = context_for(point, nonlinear=True)
    t, j = point["t"], point["j"]
    sol, trace = iterate(ctx, t, j, backend="diag")
    W, _ = zero_mean_shift(trace.rows[-1].w)
    assert sol is not None and W.is_even() and ctx.r_max == 6
    pair = series_eigenpair(ctx, W, t, j)
    diag = diagonalize_oracle(ctx, W, t, j)
    assert not pair.tail_certified
    assert math.isfinite(pair.tail_bound) and math.isfinite(pair.tail_bound_column)
    assert pair.tail_bound >= abs(pair.lam_gap - diag.lam_gap)
    assert pair.tail_bound_column >= star_norm(pair.proj_column - diag.proj_column)


@pytest.mark.parametrize(
    "name, bound, solved",
    [
        # ||V||_* = 4 exceeds rho ~ 0.6: no bound of the oracle's own
        pytest.param("l1_k8", None, [2], id="l1_k8-no_bound"),
        # a passed bound below rho proves nothing; the second eigenvalue is measured
        pytest.param("l1_k8", 0.99, [2], id="l1_k8-bound_below_rho"),
        # a bound at rho: the band finder on the fresh factor, no eigensolve
        pytest.param("l1_k8", 1.0, [], id="l1_k8-bound_at_rho"),
        # ||V||_* is far below rho: the oracle's own Weyl bound isolates the band
        pytest.param("l3_k8", None, [], id="l3_k8-own_bound"),
    ],
)
def test_oracle_solves_for_a_second_eigenvalue_only_without_a_bound(
    desk_points, eigensolves, name, bound, solved
):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    rho = contour_radius(ctx, point["k"])
    isolation = -math.inf if bound is None else bound * rho
    pair = diagonalize_oracle(ctx, ctx.V, t, j, isolation=isolation)
    assert eigensolves == solved
    assert pair.isolation >= rho
    if name == "l3_k8":
        offsets = integer_grid(ctx.m_lin(point["k"]), ctx.n).reshape(-1, ctx.n)
        others = np.abs(energy_gaps(ctx, t, j, offsets))[offsets.any(axis=1)]
        assert pair.isolation == others.min() - star_norm(ctx.V)
    elif not solved:
        assert pair.isolation == isolation
    else:
        # the |mu| of the second eigenvalue, measured
        assert pair.isolation > isolation
    dense = dense_reference.diagonalize_oracle(ctx, ctx.V, t, j)
    assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


@pytest.mark.parametrize("name", ["l1_k8", "l1_k10"])
def test_oracle_isolation_is_the_second_eigenvalue_of_the_window(desk_points, name):
    """The two-eigenvalue solve also finds eigenvectors that do not overlap
    the anchor site: it measures the second-smallest |mu| of the window."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = diagonalize_oracle(ctx, ctx.V, t, j)
    _, gaps, coupling = dense_reference._window(ctx, ctx.V, t, j, ctx.m_lin(point["k"]))
    mu = np.sort(np.abs(np.linalg.eigvalsh(np.diag(gaps) + coupling)))
    assert pair.isolation == pytest.approx(mu[1], rel=1e-9)


# How many times the seeds' isolation solves applied the factor when
# ISOLATION_RTOL was chosen (55 and 72 at tol = 0).
SEED_APPLICATIONS = {"l1_k8": 21, "l1_k10": 38}


@pytest.mark.parametrize("name", ["l1_k8", "l1_k10"])
def test_isolation_solve_asks_only_for_its_accuracy(desk_points, eigsh_work, name):
    """ARPACK only measures the isolation; the band finder takes its band
    vector to rounding on the fresh factor."""
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = diagonalize_oracle(ctx, ctx.V, t, j)
    [(tol, applications)] = eigsh_work
    assert tol == bloch.ISOLATION_RTOL
    assert applications <= SEED_APPLICATIONS[name]
    dense = dense_reference.diagonalize_oracle(ctx, ctx.V, t, j)
    assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


def test_loose_isolation_near_rho_is_measured_to_rounding(desk_points, monkeypatch, eigsh_work):
    """A loose isolation that lies within its own accuracy of rho settles
    nothing: the solve runs again at tol = 0 and the oracle keeps its pair."""
    point = desk_points["l1_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    exact = diagonalize_oracle(ctx, ctx.V, t, j)
    # 1.12 (1 - 0.75) is below rho = 0.601; a loose |mu| would have to read 2.4
    monkeypatch.setattr(bloch, "ISOLATION_RTOL", 0.75)
    eigsh_work.clear()
    pair = diagonalize_oracle(ctx, ctx.V, t, j)
    assert [tol for tol, _ in eigsh_work] == [0.75, 0]
    assert pair.isolation == pytest.approx(exact.isolation, rel=1e-9)
    dense = dense_reference.diagonalize_oracle(ctx, ctx.V, t, j)
    assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


@pytest.mark.parametrize("window", [None, 14])
def test_both_oracles_flag_degenerate_window(ctx_l3_lin, window):
    for oracle in (diagonalize_oracle, dense_reference.diagonalize_oracle):
        with pytest.raises(ResonanceError):
            oracle(ctx_l3_lin, ctx_l3_lin.V, (0.0, 0.0), (5, 0), window=window)


def test_oracle_decoupled_case(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    # H = diag(gaps) is exactly singular at the shift, so no factorisation runs
    pair = diagonalize_oracle(ctx, PeriodicFunction.zero(2), point["t"], point["j"])
    assert pair.lam_gap == 0.0
    assert star_norm(pair.proj_column - PeriodicFunction.constant(2, 1.0)) == 0.0


def test_oracle_ignores_harmonics_wider_than_window(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    far = PeriodicFunction(2, {(4, 0): 0.5, (-4, 0): 0.5})
    near = diagonalize_oracle(ctx, ctx.V, point["t"], point["j"], window=1)
    both = diagonalize_oracle(ctx, ctx.V + far, point["t"], point["j"], window=1)
    assert both.lam_gap == near.lam_gap
    assert star_norm(both.proj_column - near.proj_column) == 0.0


# -- operator norm helper ---------------------------------------------

def test_op_norm_1_examples():
    assert op_norm_1(np.eye(3)) == 1.0
    assert op_norm_1(np.array([[0.0, 2.0], [1j, 0.0]])) == 2.0
    D = np.diag([0.5, -3.0, 2.0])
    assert op_norm_1(D) == 3.0


# -- eigenvalue gradient ----------------------------------------------

def test_gradient_free_case_truncation_only(ctx_l3_lin):
    zero = PeriodicFunction.zero(2)
    coarse = eigenvalue_gradient(ctx_l3_lin, zero, (0.3, 0.4), (3, 0), step=1e-2)
    fine = eigenvalue_gradient(ctx_l3_lin, zero, (0.3, 0.4), (3, 0), step=5e-3)
    assert coarse.relative < 1e-4
    # second-order differencing: halving the step cuts the error ~4x
    assert fine.deviation < coarse.deviation / 3.0


def test_gradient_shape_contract(ctx_l3_lin):
    with pytest.raises(Exception):
        eigenvalue_gradient(ctx_l3_lin, PeriodicFunction.zero(2), (0.3,), (3, 0))
