"""Frequency-map algebra, momentum bookkeeping and context validation."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_reference as ref
import polywave
from polywave.errors import ConfigError, ContractError
from polywave.fixedpoint import check_smallness
from polywave.lattice import (
    BOX_SITES_MAX,
    ModelContext,
    PeriodicFunction,
    abs_squared,
    cosine_potential,
    decompose,
    from_json_dict,
    momentum,
    multiply,
    star_norm,
    to_json_dict,
    truncate_support,
    zero_mean_shift,
)
from polywave.nonres import exponents

from conftest import make_context


def pf(n, coeffs):
    return PeriodicFunction(n, dict(coeffs))


# -- momentum split ----------------------------------------------------

def test_momentum_componentwise():
    assert np.allclose(momentum((0, 0), (0.0, 0.0)), [0.0, 0.0])
    p = momentum((3, -2), (0.3, 0.7))
    assert np.allclose(p, [3.3, -1.3])
    assert math.isclose(float(p @ p), 12.58)


def test_momentum_shape_mismatch():
    with pytest.raises(ContractError):
        momentum((1, 2, 3), (0.1, 0.2))


def test_decompose_cases():
    j, t = decompose((3.3, -1.3))
    assert j == (3, -2)
    assert np.allclose(t, [0.3, 0.7])

    j, t = decompose((4.0, 4.0))
    assert j == (4, 4)
    assert np.allclose(t, [0.0, 0.0])

    j, t = decompose((-0.2, 0.0))
    assert j == (-1, 0)
    assert np.allclose(t, [0.8, 0.0])


def test_momentum_decompose_round_trip():
    v = np.array([5.25, -2.5])
    j, t = decompose(v)
    assert np.allclose(momentum(j, t), v)


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=4).map(np.array)
)
def test_decompose_fraction_in_unit_cell(v):
    j, t = decompose(v)
    assert np.all(t >= 0.0) and np.all(t < 1.0)
    assert np.allclose(momentum(j, t), v, atol=1e-12)


# -- frequency maps ----------------------------------------------------

def test_star_norm_examples():
    assert star_norm(cosine_potential(2, (1.0, 1.0))) == 4.0
    assert star_norm(PeriodicFunction.zero(2)) == 0.0
    assert math.isclose(star_norm(pf(1, {(3,): 1 + 1j})), math.sqrt(2))


def test_cosine_potential_coefficients():
    V = cosine_potential(2, (1.0, 1.0))
    assert V.get((1, 0)) == 1.0
    assert V.get((-1, 0)) == 1.0
    assert V.get((0, 1)) == 1.0
    assert V.get((0, -1)) == 1.0
    assert len(V) == 4
    assert V.get((0, 0)) == 0.0
    assert V.is_real_valued()


def test_multiply_conjugate_frequencies():
    f = pf(1, {(1,): 1.0})
    g = pf(1, {(-1,): 1.0})
    out = multiply(f, g)
    assert len(out) == 1
    assert out.get((0,)) == 1.0


def test_multiply_identity_element():
    g = pf(2, {(1, 0): 0.5 - 0.25j, (2, -1): 1.5})
    out = multiply(PeriodicFunction.constant(2, 1.0), g)
    assert star_norm(out - g) == 0.0


def test_multiply_norm_equality_case():
    f = pf(1, {(1,): 1.0, (-1,): 1.0})  # 2 cos x
    sq = multiply(f, f)
    assert star_norm(sq) == 4.0
    assert star_norm(f) ** 2 == 4.0


def test_multiply_dimension_mismatch():
    with pytest.raises(ContractError):
        multiply(pf(1, {(1,): 1.0}), pf(2, {(1, 0): 1.0}))


def test_abs_squared_plane_wave():
    psi = PeriodicFunction.constant(2, 0.3 - 0.4j)
    out = abs_squared(psi)
    assert len(out) == 1
    assert math.isclose(out.get((0, 0)).real, 0.25)
    assert abs(out.get((0, 0)).imag) < 1e-18


def test_abs_squared_two_modes():
    psi = pf(1, {(1,): 1.0, (-1,): 1.0})
    out = abs_squared(psi)
    assert out.get((0,)) == 2.0
    assert out.get((2,)) == 1.0
    assert out.get((-2,)) == 1.0
    assert len(out) == 3


coeff = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
freq2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
sparse_map = st.dictionaries(freq2, coeff, min_size=1, max_size=6)


@given(sparse_map)
def test_abs_squared_mean_is_power(coeffs):
    psi = pf(2, coeffs)
    expected = math.fsum(abs(c) ** 2 for _, c in psi.items())
    assert math.isclose(abs_squared(psi).get((0, 0)).real, expected, rel_tol=1e-12)


@given(sparse_map)
def test_abs_squared_is_real_valued(coeffs):
    assert abs_squared(pf(2, coeffs)).is_real_valued()


@given(sparse_map, sparse_map)
def test_star_norm_submultiplicative(a, b):
    f, g = pf(2, a), pf(2, b)
    assert star_norm(multiply(f, g)) <= star_norm(f) * star_norm(g) * (1 + 1e-12)


@given(sparse_map, sparse_map)
def test_star_norm_triangle(a, b):
    f, g = pf(2, a), pf(2, b)
    assert star_norm(f + g) <= star_norm(f) + star_norm(g) + 1e-12


@given(sparse_map)
def test_conj_involution_and_real_part(coeffs):
    f = pf(2, coeffs)
    assert star_norm(f.conj().conj() - f) == 0.0
    assert (f + f.conj()).scale(0.5).is_real_valued()


def test_zero_mean_shift_examples():
    V = cosine_potential(2, (1.0, 1.0))
    shifted, mean = zero_mean_shift(V)
    assert mean == 0.0
    assert star_norm(shifted - V) == 0.0

    const = PeriodicFunction.constant(1, 7.0)
    shifted, mean = zero_mean_shift(const)
    assert mean == 7.0
    assert len(shifted) == 0


def test_zero_mean_shift_rejects_complex_mean():
    with pytest.raises(ContractError):
        zero_mean_shift(pf(1, {(0,): 1.0 + 1.0j, (1,): 1.0}))


def test_truncate_support_noop_and_drop():
    V = cosine_potential(2, (1.0, 1.0))
    kept, dropped = truncate_support(V, 5.0)
    assert dropped == 0.0
    assert star_norm(kept - V) == 0.0

    f = pf(2, {(4, 0): 0.3})
    kept, dropped = truncate_support(f, 3.0)
    assert len(kept) == 0
    assert math.isclose(dropped, 0.3)


def test_truncate_support_negative_radius():
    with pytest.raises(ContractError):
        truncate_support(PeriodicFunction.zero(1), -1.0)


def test_wrong_dimension_frequency_rejected():
    with pytest.raises(ContractError):
        PeriodicFunction(2, {(1,): 1.0})


def test_add_dimension_mismatch():
    with pytest.raises(ContractError):
        pf(1, {(1,): 1.0}) + pf(2, {(1, 0): 1.0})


def test_tiny_coefficients_pruned():
    f = pf(1, {(1,): 1e-30, (2,): 1.0})
    assert len(f) == 1
    assert f.get((1,)) == 0.0


def test_support_and_box_radius():
    f = pf(2, {(3, 4): 1.0, (1, 0): 1.0})
    assert f.support_radius == 5.0
    assert f.box_radius == 4
    assert PeriodicFunction.zero(2).support_radius == 0.0


@given(sparse_map)
@settings(max_examples=50)
def test_json_round_trip(coeffs):
    f = pf(2, coeffs)
    assert star_norm(from_json_dict(to_json_dict(f), n=2) - f) == 0.0


# -- box layout against the dict reference ----------------------------

def _coeff_maps(n):
    freq = st.tuples(*[st.integers(-4, 4)] * n)
    amp = st.one_of(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        # straddles PRUNE_TOL, so pruning of inputs and products is exercised
        st.complex_numbers(min_magnitude=1e-20, max_magnitude=1e-9),
    )
    # exactly real maps are even functions, which multiply in real arithmetic
    real = st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(1e-20, 1e-9) | st.floats(-1e-9, -1e-20),
    ).map(complex)
    return st.dictionaries(freq, amp, max_size=8) | st.dictionaries(freq, real, max_size=8)


_map_pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), _coeff_maps(n), _coeff_maps(n))
)
_scalars = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@given(_map_pairs, _scalars, st.floats(0.0, 7.0))
@settings(max_examples=150, deadline=None)
def test_box_layout_matches_dict_reference(case, s, radius):
    n, a, b = case
    f, g = PeriodicFunction(n, a), PeriodicFunction(n, b)
    rf, rg = ref.DictFunction(n, a), ref.DictFunction(n, b)
    assert f.coeffs == rf.coeffs and len(f) == len(rf.coeffs)

    assert multiply(f, g).coeffs == ref.multiply(rf, rg).coeffs
    assert abs_squared(f).coeffs == ref.abs_squared(rf).coeffs
    assert (f + g).coeffs == (rf + rg).coeffs
    assert f.scale(s).coeffs == rf.scale(s).coeffs
    assert f.conj().coeffs == rf.conj().coeffs

    assert star_norm(f) == ref.star_norm(rf)
    kept, tail = truncate_support(f, radius)
    ref_kept, ref_tail = ref.truncate_support(rf, radius)
    assert kept.coeffs == ref_kept.coeffs and tail == ref_tail

    h = (f + f.conj()).scale(0.5)
    ref_h = ref.DictFunction(n, h.coeffs)
    assert f.is_real_valued() == rf.is_real_valued()
    assert h.is_real_valued() == ref_h.is_real_valued()
    shifted, mean = zero_mean_shift(h)
    ref_shifted, ref_mean = ref.zero_mean_shift(ref_h)
    assert shifted.coeffs == ref_shifted.coeffs and mean == ref_mean

    doc = to_json_dict(f)
    assert doc == ref.to_json_dict(rf)
    assert from_json_dict(doc, n=n) == f


def test_from_box_canonical_form():
    box = np.zeros((5, 5), dtype=complex)
    box[2, 3] = 2.0
    box[0, 0] = 1e-30
    f = PeriodicFunction.from_box(box)
    assert f.box_radius == 1 and f.box.shape == (3, 3)
    assert f.coeffs == {(0, 1): 2.0}
    assert not f.box.flags.writeable
    assert box[0, 0] == 1e-30      # the caller's array is copied, not pruned
    with pytest.raises(ContractError):
        PeriodicFunction.from_box(np.zeros((4, 5)))


def test_oversized_box_refused_before_allocation():
    side = math.isqrt(BOX_SITES_MAX) + 1
    with pytest.raises(ConfigError):
        PeriodicFunction(2, {(side // 2, 0): 1.0})
    with pytest.raises(ConfigError):
        PeriodicFunction(1, {(10 ** 300,): 1.0})


def test_json_empty_requires_dimension():
    assert len(from_json_dict({}, n=3)) == 0


# -- model context -----------------------------------------------------

def test_context_validation_rejects_bad_shapes():
    V = cosine_potential(2, (1.0, 1.0))
    with pytest.raises(ConfigError):
        ModelContext(n=0, l=3, sigma=0.0, A=0.0, V=V)
    with pytest.raises(ConfigError):
        ModelContext(n=2, l=3, sigma=0.0, A=0.0, V=V, beta=1.0)
    with pytest.raises(ConfigError):
        # smoothing order too low for the dimension: needs 4l > n + 1
        ModelContext(n=4, l=1, sigma=0.0, A=0.0, V=cosine_potential(4, (1.0,) * 4))
    with pytest.raises(ConfigError):
        # 2*delta must stay below (n-1)*(1-beta) = 0.6
        make_context(3, 0.31)
    with pytest.raises(ConfigError):
        ModelContext(n=1, l=1, sigma=0.0, A=0.0, V=pf(1, {(1,): 1.0, (-1,): 1.0}), delta=0.0)


@pytest.mark.parametrize(
    "control",
    [
        {"tol_root": -1.0},
        {"tol_root": 0.0},
        {"tol_root": math.nan},
        {"tol_root": math.inf},
    ],
)
def test_context_rejects_controls_that_cannot_be_met(control):
    with pytest.raises(ConfigError):
        make_context(3, 0.05, **control)


@pytest.mark.parametrize(
    "amplitude", [1e200, complex(0.0, 1e155), math.inf, complex(math.nan, 0.0)]
)
def test_context_rejects_amplitude_without_finite_square(amplitude):
    V = cosine_potential(2, (1.0, 1.0))
    with pytest.raises(ConfigError, match=r"\|A\|\^2"):
        ModelContext(n=2, l=3, sigma=1.0, A=amplitude, V=V)


def test_context_rejects_bad_potential():
    with pytest.raises(ConfigError):
        ModelContext(n=2, l=3, sigma=0.0, A=0.0, V=pf(1, {(1,): 1.0, (-1,): 1.0}))
    with pytest.raises(ConfigError):
        ModelContext(n=2, l=3, sigma=0.0, A=0.0, V=pf(2, {(0, 0): 1.0, (1, 0): 1.0, (-1, 0): 1.0}))
    with pytest.raises(ConfigError):
        ModelContext(n=2, l=3, sigma=0.0, A=0.0, V=pf(2, {(1, 0): 1.0j, (-1, 0): 1.0j}))


def test_context_derived_quantities():
    ctx = make_context(3, 0.05)
    assert ctx.v_star == 4.0
    assert exponents(ctx).gamma0 == pytest.approx(3.9)
    assert ctx.m_lin(10.0) == 20
    assert ctx.m_lin(10.1) == 21
    assert ctx.m_w() == 14.0  # (8 + r_max) * support radius 1
    assert ctx.tol_fp_value == pytest.approx(4e-12)


def test_controls_are_set_only_on_the_context():
    """No public stage taking ``ctx`` also takes a copy of one of its fields."""
    fields = {f.name for f in dataclasses.fields(ModelContext)}
    overrides = []
    for info in pkgutil.iter_modules(polywave.__path__):
        module = importlib.import_module(f"polywave.{info.name}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            params = list(inspect.signature(fn).parameters)
            if params[:1] == ["ctx"]:
                overrides += [f"{module.__name__}.{name}({p})" for p in params if p in fields]
    assert overrides == []


def test_check_smallness_gate():
    # l=1 has gamma0 - delta = -0.75 < 0, so the coupling ceiling k^(gamma0-delta)
    # decays with k: the same coupling is legal at desk scale, illegal far out.
    ctx = make_context(1, 0.25, sigma=1.0, amp2=1e-3)
    check_smallness(ctx, 8.0)
    with pytest.raises(ConfigError):
        check_smallness(ctx, 1e5)
