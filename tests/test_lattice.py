"""Frequency-map algebra, momentum bookkeeping and context validation."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_reference as ref
import polywave
from polywave.errors import ConfigError, ContractError
from polywave.fixedpoint import check_smallness
from polywave.lattice import (
    BOX_SITES_MAX,
    PRUNE_TOL,
    ModelContext,
    PeriodicFunction,
    abs_squared,
    cosine_potential,
    decompose,
    from_json_dict,
    integer_grid,
    moduli,
    momentum,
    multiply,
    star_norm,
    sum_moduli,
    to_json_dict,
    truncate_support,
    zero_mean_shift,
)
from polywave.nonres import exponents

from conftest import make_context


def pf(n, coeffs):
    return PeriodicFunction(n, dict(coeffs))


def exact(f):
    """The ``coeffs`` map of a box- or dict-backed function with every
    amplitude as the bytes of its two parts, so that -0.0 differs from 0.0."""
    return {q: struct.pack("<2d", c.real, c.imag) for q, c in f.coeffs.items()}


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


def _unpruned(box):
    """A function holding ``box`` as given, so that its subnormal and -0.0
    parts, which ``from_box`` would drop, reach ``star_norm``."""
    f = PeriodicFunction.__new__(PeriodicFunction)
    f.n, f.box = box.ndim, box
    return f


def test_sum_moduli_is_inf_where_the_sum_overflows():
    assert sum_moduli(np.array([3 + 4j, -1.0, 0.0])) == 6.0
    assert sum_moduli(np.zeros(0, dtype=complex)) == 0.0
    # each modulus is finite, but fsum's partial sums overflow
    assert sum_moduli(np.array([1e308, -1e308j])) == math.inf
    assert star_norm(_unpruned(np.array([1e308, 0.0, -1e308], dtype=complex))) == math.inf
    assert sum_moduli(np.array([math.inf, 1.0])) == math.inf


_part = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308])
_signed_zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=9, max_size=9)


@given(st.lists(_part, min_size=9, max_size=9),
       _signed_zeros | st.lists(_part, min_size=9, max_size=9))
@example([-0.0, 5e-324, 1.0, -2.5, 0.0, -5e-324, 3.0, 1e-300, -1e300], [-0.0] * 9)
@example([1.0] * 9, [0.0] * 8 + [5e-324])
def test_star_norm_is_the_fsum_of_python_moduli(real, imag):
    box = np.empty((3, 3), dtype=complex)
    box.real, box.imag = np.reshape(real, (3, 3)), np.reshape(imag, (3, 3))   # -0.0 kept
    for f in (_unpruned(box), PeriodicFunction.from_box(box)):
        assert star_norm(f) == math.fsum(map(abs, f.box.ravel().tolist()))


_near_tol = st.floats(-2 * PRUNE_TOL, 2 * PRUNE_TOL)


@given(st.lists(st.tuples(_part | _near_tol, _part | _near_tol), min_size=1, max_size=9))
@example([(-9.626681429324233e-19, -2.70684404026238e-19), (-0.0, -0.0), (5e-324, -1e300)])
def test_moduli_are_python_moduli(parts):
    box = np.empty(len(parts), dtype=complex)
    box.real, box.imag = np.transpose(parts)     # -0.0 kept
    want = np.array([abs(c) for c in box.ravel().tolist()])
    assert moduli(box).tobytes() == want.tobytes()


@given(st.builds(complex, _near_tol, _near_tol))
# numpy's complex modulus reads this one above PRUNE_TOL, Python's abs does not
@example(-9.626681429324233e-19 - 2.70684404026238e-19j)
def test_from_box_keeps_what_python_abs_puts_above_prune_tol(value):
    box = np.zeros((3, 3), dtype=complex)
    box[1, 1], box[2, 1] = 1.0, value
    kept = PeriodicFunction.from_box(box).coeffs
    assert kept == ({(0, 0): 1.0, (1, 0): value} if abs(value) > PRUNE_TOL else {(0, 0): 1.0})


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


@pytest.mark.parametrize("coeffs", [
    {(0, 0): 1.0, (0.2, 0): 5.0},     # both keys once rounded to the origin
    {(0.4, 0): 1.0, (1.6, 0): 2.0},
    {(0, 0): 1.0, (math.nan, 0): 2.0},
])
def test_non_integer_frequency_refused(coeffs):
    with pytest.raises(ContractError, match="is not an integer vector"):
        PeriodicFunction(2, coeffs)
    with pytest.raises(ContractError, match="is not an integer vector"):
        pf(2, {(0, 0): 1.0}).get(next(q for q in coeffs if q != (0, 0)))


def test_integer_valued_frequencies_accepted():
    f = PeriodicFunction(2, {(np.int64(1), 0.0): 2.0, (-1.0, np.float64(3)): 1.0})
    assert f.coeffs == {(-1, 3): 1.0, (1, 0): 2.0}
    assert f.get((1.0, 0)) == 2.0


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
# -0.0 parts of f meet the +0.0 parts that scale(-1) gives, where -g has -0.0
@example(case=(1, {(0,): complex(1.0, -0.0)}, {(0,): 2.0}), s=1j, radius=0.0)
@example(case=(2, {(1, 0): complex(-0.0, 1.0)}, {(1, 0): complex(0.0, -1.5)}), s=1j, radius=0.0)
def test_box_layout_matches_dict_reference(case, s, radius):
    n, a, b = case
    f, g = PeriodicFunction(n, a), PeriodicFunction(n, b)
    rf, rg = ref.DictFunction(n, a), ref.DictFunction(n, b)
    assert f.coeffs == rf.coeffs and len(f) == len(rf.coeffs)

    assert exact(multiply(f, g)) == exact(ref.multiply(rf, rg))
    assert exact(abs_squared(f)) == exact(ref.abs_squared(rf))
    assert exact(f + g) == exact(rf + rg)
    # a difference adds the terms of scale(-1), signed zeros included
    assert exact(f - g) == exact(rf + rg.scale(-1))
    assert exact(f.scale(s)) == exact(rf.scale(s))
    assert exact(f.conj()) == exact(rf.conj())
    assert exact(PeriodicFunction.constant(n, s)) == exact(ref.DictFunction(n, {(0,) * n: s}))

    assert star_norm(f) == ref.star_norm(rf)
    # the drawn radius, one that drops the outermost shell, and one just past
    # the box's farthest corner, within which nothing is dropped and f comes back
    corner = math.sqrt(n * f.box_radius ** 2 + 0.5)
    for cut in (radius, max(f.box_radius - 0.5, 0.0), corner):
        kept, tail = truncate_support(f, cut)
        ref_kept, ref_tail = ref.truncate_support(rf, cut)
        assert exact(kept) == exact(ref_kept) and tail == ref_tail
    assert truncate_support(f, corner) == (f, 0.0)

    h = (f + f.conj()).scale(0.5)
    ref_h = ref.DictFunction(n, h.coeffs)
    assert f.is_real_valued() == rf.is_real_valued()
    assert h.is_real_valued() == ref_h.is_real_valued()
    shifted, mean = zero_mean_shift(h)
    ref_shifted, ref_mean = ref.zero_mean_shift(ref_h)
    assert exact(shifted) == exact(ref_shifted) and mean == ref_mean

    doc = to_json_dict(f)
    assert doc == ref.to_json_dict(rf)
    assert exact(from_json_dict(doc, n=n)) == exact(rf)
    assert from_json_dict(doc, n=n) == f


def _pipeline_operand(rng, count, radius, kind):
    """``count`` coefficients at distinct frequencies of sup-norm at most
    ``radius`` in the plane, decaying like the l = 1 desk columns so that
    products span many magnitudes; ``kind`` is even (exactly real
    coefficients), complex, or odd (a real-valued odd function, which
    pairs ``count // 2`` drawn frequencies with their negatives)."""
    if kind == "odd":
        count //= 2
    sites = integer_grid(radius, 2).reshape(-1, 2)
    q = sites[rng.choice(len(sites), count, replace=False)]
    decay = np.exp(-np.abs(q).sum(axis=1))
    amp = rng.standard_normal(count) * decay
    if kind == "complex":
        amp = amp + 1j * rng.standard_normal(count) * decay
    f = PeriodicFunction(2, dict(zip(map(tuple, q.tolist()), amp)))
    if kind == "odd":
        f = PeriodicFunction.from_box(1j * (f.box - np.flip(f.box)))
    return f


@pytest.fixture(scope="module", params=["even", "complex", "odd"])
def pipeline_product(request):
    """Factors the size of the l1_k8 desk's cubic term (a 312-coefficient
    column times a 326-367-coefficient modulus square) and the dict
    reference's bits for their product and for the first one's ``abs_squared``."""
    rng = np.random.default_rng(23)
    f = _pipeline_operand(rng, 312, 15, "complex" if request.param == "complex" else "even")
    g = _pipeline_operand(rng, 367, 16, request.param)
    rf, rg = ref.DictFunction(2, f.coeffs), ref.DictFunction(2, g.coeffs)
    return f, g, exact(ref.multiply(rf, rg)), exact(ref.abs_squared(rf))


@pytest.mark.parametrize("block", [None, 3])
def test_multiply_matches_dict_reference_at_pipeline_size(pipeline_product, block, monkeypatch):
    """Bitwise equality with the pair loop, signed zeros included, at the
    default block size and with one factor row per block."""
    f, g, product, square = pipeline_product
    assert len(f) >= 300 and len(g) >= 300
    if block is not None:
        monkeypatch.setattr("polywave.lattice.PAIR_BLOCK", block)
    assert exact(multiply(f, g)) == product
    assert exact(abs_squared(f)) == square


def test_multiply_peak_memory_does_not_grow_with_pairs():
    """Two dense radius-30 factors make 3721^2 = 13.8 M pairs; one array of
    all pair terms and indices would take 24 B a pair (330 MB)."""
    rng = np.random.default_rng(5)
    f, g = (
        PeriodicFunction.from_box(rng.standard_normal((61, 61)) + 1j * rng.standard_normal((61, 61)))
        for _ in range(2)
    )
    assert len(f) == len(g) == 61 * 61
    tracemalloc.start()
    try:
        product = multiply(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.box_radius == 60
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_by_empty_and_constant_factors(n):
    g = PeriodicFunction.from_box(np.arange(3 ** n).reshape((3,) * n) * (0.5 - 1j))
    zero, one = PeriodicFunction.zero(n), PeriodicFunction.constant(n, 1.0)
    for a, b in [(zero, g), (g, zero), (zero, zero), (zero, one)]:
        assert multiply(a, b) == zero and multiply(a, b).box.shape == (1,) * n
    assert multiply(one, g) == g and multiply(g, one) == g
    c, d = 2.0 - 1.5j, -0.25 + 3.0j
    product = multiply(PeriodicFunction.constant(n, c), PeriodicFunction.constant(n, d))
    assert exact(product) == {(0,) * n: struct.pack("<2d", (c * d).real, (c * d).imag)}


def test_oversized_product_refused_before_pairs_are_formed():
    """The output box of a radius-41 factor squared has 165^3 > BOX_SITES_MAX
    sites at n = 3; it is refused before the output or any pair array exists."""
    f = pf(3, {(41, 0, 0): 1.0, (-41, 0, 0): 1.0})
    assert 83 ** 3 <= BOX_SITES_MAX < 165 ** 3
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            multiply(f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, math.nan)]
)
def test_non_finite_coefficients_refused(value):
    # |nan| > PRUNE_TOL is false, so a pruning mask alone would drop a NaN
    box = np.zeros((3, 3), dtype=complex)
    box[1, 1], box[2, 1] = 1.0, value
    with pytest.raises(ContractError, match="finite"):
        PeriodicFunction.from_box(box)
    with pytest.raises(ContractError, match="finite"):
        PeriodicFunction(2, {(0, 0): 1.0, (1, 0): value})
    # on a corner site, which the trim to the kept coefficients would cut
    box = np.zeros((5, 5), dtype=complex)
    box[2, 2], box[0, 4] = 1.0, value
    with pytest.raises(ContractError, match="finite"):
        PeriodicFunction.from_box(box)
    with pytest.raises(ContractError, match="finite"):
        PeriodicFunction(2, {(0, 0): 1.0, (-2, 2): value})


def test_oversized_box_refused_before_allocation():
    side = math.isqrt(BOX_SITES_MAX) + 1
    with pytest.raises(ConfigError):
        PeriodicFunction(2, {(side // 2, 0): 1.0})
    with pytest.raises(ConfigError):
        PeriodicFunction(1, {(10 ** 300,): 1.0})


def test_json_empty_requires_dimension():
    assert len(from_json_dict({}, n=3)) == 0


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _coeff_maps(n))))
@settings(max_examples=100, deadline=None)
@example(case=(2, {(1, 0): complex(-0.0, 1.0), (0, 0): complex(1.0, -0.0), (0, 2): -0.0}))
def test_json_dict_builds_the_bits_of_the_frequency_map(case):
    n, coeffs = case
    doc = {",".join(map(str, q)): [c.real, c.imag] for q, c in coeffs.items()}
    built, ref_f = from_json_dict(doc, n=n), PeriodicFunction(n, coeffs)
    assert built.box.shape == ref_f.box.shape
    assert built.box.tobytes() == ref_f.box.tobytes()


@pytest.mark.parametrize("doc, n, error, message", [
    ({"0,0": [1.0, 0.0], "1,0": [0.5, 0.0], "01,0": [0.5, 0.0]}, 2,
     ContractError, "frequency (1, 0) is given twice"),
    ({"0,0": [1.0, 0.0], "1,0,0": [0.5, 0.0]}, 2,
     ContractError, "frequency (1, 0, 0) does not have dimension 2"),
    ({"0,0": [1.0, 0.0], "1.5,0": [0.5, 0.0]}, 2,
     ValueError, "invalid literal for int() with base 10: '1.5'"),
    ({"0,0": [1.0, 0.0], "1,0": [math.nan, 0.0]}, 2,
     ContractError, "coefficients must be finite"),
])
def test_json_dict_refusals(doc, n, error, message):
    with pytest.raises(error) as info:
        from_json_dict(doc, n=n)
    assert str(info.value) == message


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
