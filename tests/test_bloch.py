"""Contour-series band solver against closed forms and dense references."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave import bloch
from polywave.bloch import (
    ContourSpec,
    _chain_series,
    _eigenvalue_terms,
    diagonalize_oracle,
    series_eigenpair,
)
from polywave.errors import ConfigError, ContractError, ResonanceError
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
from polywave.nonres import contour_radius, energy_gaps

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


def _reference_sums(ctx, W, pair, r_max, count):
    """Per-node reference pass over a fresh ``count``-node ring at the
    anchor of ``pair``: (g_terms, total column box)."""
    gaps = energy_gaps(ctx, pair.t, pair.j, integer_grid(r_max * W.box_radius, ctx.n))
    contour = ContourSpec(pair.center, pair.rho, count)
    g, cols = chain_reference._chain_series(ctx, gaps, W, r_max, contour)
    col = cols.sum(axis=0)
    col[(r_max * W.box_radius,) * ctx.n] += 1.0
    return g, col


def _assert_matches_reference(ctx, W, pair, r_max):
    g_ref, col_ref = _reference_sums(ctx, W, pair, r_max, pair.quad_nodes)
    lam_ref = float(np.sum(g_ref).real)
    assert abs(pair.lam_gap - lam_ref) <= LAM_RTOL * abs(lam_ref)
    g_dev = np.abs(np.array(pair.g_terms) - g_ref[1:]).max()
    assert g_dev <= G_RTOL * np.abs(g_ref).max()
    col = pair.proj_column.to_box(r_max * W.box_radius)
    assert np.abs(col - col_ref).max() <= COL_RTOL * np.abs(col_ref).sum()


@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_chain_engine_matches_reference_on_desks(desk_points, name):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    pair = series_eigenpair(ctx, ctx.V, point["t"], point["j"])
    # the accepted resolution is the nested 2N ring, compared with a fresh
    # 2N-node pass of the reference
    assert pair.quad_nodes == 2 * bloch.QUAD_NODES
    _assert_matches_reference(ctx, ctx.V, pair, ctx.r_max)


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
    _assert_matches_reference(ctx, W, pair, ctx.r_max)

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
    _assert_matches_reference(ctx, W, pair, ctx.r_max)
    # the folded sums are real by construction, not to rounding
    assert not np.imag(pair.g_terms).any()
    assert pair.proj_column.is_even()


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

    # V even: k = 0..N/2 of the N ring, then k = 0..N/2-1 of its odd half
    folded = series_eigenpair(ctx, ctx.V, t, j)
    assert counts == [N // 2 + 1, N // 2]
    assert not np.imag(folded.g_terms).any() and folded.proj_column.is_even()

    # one complex Hermitian pair: every node runs, and the sums stay complex
    counts.clear()
    W = ctx.V + ODD_HARMONIC
    assert W.is_real_valued() and not W.is_even()
    full = series_eigenpair(ctx, W, t, j)
    assert counts == [N, N]
    assert full.quad_nodes == folded.quad_nodes == 2 * N
    assert not full.proj_column.is_even()
    _assert_matches_reference(ctx, W, full, ctx.r_max)


def test_quad_nodes_records_escalation(desk_points, monkeypatch):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    # eight nodes alias far above QUAD_RTOL, so the ring must double
    monkeypatch.setattr(bloch, "QUAD_NODES", 8)
    pair = series_eigenpair(ctx, ctx.V, point["t"], point["j"])
    assert pair.quad_nodes > 2 * 8
    _assert_matches_reference(ctx, ctx.V, pair, ctx.r_max)


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


def test_oracle_window_bounds_at_three_dimensions():
    # admitted n = 3, l = 3, k = 10 point: rho ~ 891, default radius 20 (41^3 sites)
    t = (0.19061364492264854, 0.49689265475472233, 0.42132525273177723)
    j = (-4, 6, -7)
    weak, strong = (
        ModelContext(n=3, l=3, sigma=0.0, A=0.0, V=cosine_potential(3, (a, a, a)))
        for a in (1.0, 1000.0)
    )
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


@pytest.fixture
def factorisations(monkeypatch):
    """Names of the LU routines the oracle calls, in call order."""
    import scipy.linalg
    import scipy.sparse.linalg

    calls = []
    for module, name in ((scipy.linalg, "lu_factor"), (scipy.sparse.linalg, "splu")):
        def spy(*args, _factor=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _factor(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("name", ["l3_k8", "l3_k10", "l1_k8", "l1_k10"])
def test_sparse_oracle_matches_dense_reference(desk_points, factorisations, name, extra):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    window = ctx.m_lin(point["k"]) + extra
    sparse = diagonalize_oracle(ctx, ctx.V, t, j, window=window)
    # four coefficients store well under 1 % of the window operator
    assert factorisations == ["splu"]
    dense = dense_reference.diagonalize_oracle(ctx, ctx.V, t, j, window=window)
    assert abs(sparse.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
    assert star_norm(sparse.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


def nonlinear_perturbation(point):
    """Zero-mean ``W = V + sigma |psi|^2`` of the second fixed-point step at a
    desk point, the matrix the diag backend factors once ``psi`` has spread."""
    ctx = context_for(point, nonlinear=True)
    _, trace = iterate(ctx, point["t"], point["j"], backend="diag")
    return ctx, zero_mean_shift(trace.rows[0].w)[0]


# sin(x1 + x2): odd, so H is complex Hermitian rather than real symmetric
ODD_HARMONIC = PeriodicFunction(2, {(1, 1): 0.3j, (-1, -1): -0.3j})


# The LU routine each window's own fill selects: the real l1_k8 operator
# stores 20 % of its entries; the complex one would not fit the dense byte
# budget on its default window, and on the 961-site window (14.1 MiB) its
# 22 % stays below the complex crossover of twice ORACLE_DENSE_FRACTION; the
# l3_k8 operator stores about 1 %.
@pytest.mark.parametrize(
    "name, odd, window, coefficients, natural",
    [
        pytest.param("l1_k8", False, None, 288, "lu_factor", id="l1_k8-False-288"),
        pytest.param("l1_k8", True, None, 288, "splu", id="l1_k8-True-288"),
        pytest.param("l1_k8", True, 15, 288, "splu", id="l1_k8-True-288-window15"),
        pytest.param("l3_k8", False, None, 12, "splu", id="l3_k8-False-12"),
    ],
)
def test_sparse_oracle_matches_dense_reference_on_nonlinear_W(
    desk_points, factorisations, monkeypatch, name, odd, window, coefficients, natural
):
    point = desk_points[name]
    ctx, W = nonlinear_perturbation(point)
    assert len(W) == coefficients and not W.box.imag.any()
    if odd:
        W = W + ODD_HARMONIC
    t, j = point["t"], point["j"]
    factorisations.clear()
    diagonalize_oracle(ctx, W, t, j, window=window)
    assert factorisations == [natural]
    dense = dense_reference.diagonalize_oracle(ctx, W, t, j, window=window)
    # both factorisations, forced through the crossover constants
    for fraction, budget, path in ((0.0, math.inf, "lu_factor"), (math.inf, 0, "splu")):
        monkeypatch.setattr(bloch, "ORACLE_DENSE_FRACTION", fraction)
        monkeypatch.setattr(bloch, "ORACLE_DENSE_BYTES", budget)
        factorisations.clear()
        pair = diagonalize_oracle(ctx, W, t, j, window=window)
        assert factorisations == [path]
        assert abs(pair.lam_gap - dense.lam_gap) <= ORACLE_LAM_RTOL * abs(dense.lam_gap)
        assert star_norm(pair.proj_column - dense.proj_column) <= ORACLE_COL_ATOL


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
    "name, bound, nev",
    [
        # ||V||_* = 4 exceeds rho ~ 0.6: no bound of the oracle's own
        pytest.param("l1_k8", None, 2, id="l1_k8-no_bound"),
        # a passed bound below rho proves nothing; the second eigenvalue is measured
        pytest.param("l1_k8", 0.99, 2, id="l1_k8-bound_below_rho"),
        pytest.param("l1_k8", 1.0, 1, id="l1_k8-bound_at_rho"),
        # ||V||_* is far below rho: the oracle's own Weyl bound isolates the band
        pytest.param("l3_k8", None, 1, id="l3_k8-own_bound"),
    ],
)
def test_oracle_solves_for_a_second_eigenvalue_only_without_a_bound(
    desk_points, eigensolves, name, bound, nev
):
    point = desk_points[name]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    rho = contour_radius(ctx, point["k"])
    isolation = -math.inf if bound is None else bound * rho
    pair = diagonalize_oracle(ctx, ctx.V, t, j, isolation=isolation)
    assert eigensolves == [nev]
    assert pair.isolation >= rho
    if name == "l3_k8":
        offsets = integer_grid(ctx.m_lin(point["k"]), ctx.n).reshape(-1, ctx.n)
        others = np.abs(energy_gaps(ctx, t, j, offsets))[offsets.any(axis=1)]
        assert pair.isolation == others.min() - star_norm(ctx.V)
    elif nev == 1:
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
