"""Contour-series band solver against closed forms and dense references."""

import math

import numpy as np
import pytest

from polywave.bloch import (
    ContourSpec,
    dense_window_series,
    diagonalize_oracle,
    eigenvalue_gradient,
    eigenvalue_ladder,
    first_order_column,
    op_norm_1,
    periodic_eigenfunction,
    second_order_eigenvalue_shift,
    series_eigenpair,
)
from polywave.errors import ContractError, ResonanceError
from polywave.lattice import PeriodicFunction, momentum, star_norm

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


# -- ladder diagnostics ------------------------------------------------

def test_ladder_at_origin():
    ladder1 = eigenvalue_ladder(make_context(1, 0.25), (0.0, 0.0), (0, 0), 1)
    assert np.array_equal(ladder1, [0, 1, 1, 1, 1, 2, 2, 2, 2])
    ladder3 = eigenvalue_ladder(make_context(3, 0.05), (0.0, 0.0), (0, 0), 1)
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


def test_free_eigenfunction_is_plane_wave(ctx_l3_lin):
    pair = series_eigenpair(ctx_l3_lin, PeriodicFunction.zero(2), (0.3, 0.4), (4, 1))
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-0.5, 3.0]])
    vals = periodic_eigenfunction(pair, pts)
    p = momentum((4, 1), (0.3, 0.4))
    assert np.allclose(vals, np.exp(1j * pts @ p))


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


def test_dense_window_cross_checks_chain_engine(desk_points):
    point = desk_points["l3_k8"]
    ctx = context_for(point, nonlinear=False)
    t, j = point["t"], point["j"]
    pair = series_eigenpair(ctx, ctx.V, t, j, r_max=4)
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
    assert diag.backend == "diag" and diag.norm_mode == "none"
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
