"""Jet engine correctness against the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soliton_lab import autodiff as ad

import oracles

coords = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4)


def _poly(jets):
    x = jets[0]
    y = jets[1]
    out = 0.3 * x * x * y - y * y + 2.0 * x + 0.7
    for extra in jets[2:]:
        out = out + 0.1 * extra * extra * x
    return out


def _transcendental(jets):
    x, y = jets[0], jets[1]
    return ad.jet_exp(0.3 * x + 0.1 * y * y) / (1.0 + x * x) ** 0.5 + ad.jet_log(2.0 + y)


def _eval(fn, x):
    return fn(ad.seed(x))


@given(coords)
@settings(max_examples=60, deadline=None)
def test_polynomial_jet_matches_finite_differences(x):
    x = np.asarray(x)
    jet = _eval(_poly, x)
    value = lambda pt: _eval(_poly, pt).val
    np.testing.assert_allclose(jet.grad, oracles.fd_gradient(value, x), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(jet.hess, oracles.fd_hessian(value, x), rtol=1e-5, atol=1e-5)


@given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_transcendental_jet_matches_finite_differences(x):
    x = np.asarray(x)
    jet = _eval(_transcendental, x)
    value = lambda pt: _eval(_transcendental, pt).val
    np.testing.assert_allclose(jet.grad, oracles.fd_gradient(value, x), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(jet.hess, oracles.fd_hessian(value, x), rtol=1e-5, atol=1e-5)


def test_known_hessian_of_product():
    # f = x*y: hessian = [[0,1],[1,0]]
    x, y = ad.seed([1.3, -0.4])
    jet = x * y
    np.testing.assert_array_equal(jet.grad, [-0.4, 1.3])
    np.testing.assert_array_equal(jet.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_division_and_powers():
    x, y = ad.seed([2.0, 3.0])
    jet = (x**3) / y
    assert jet.val == pytest.approx(8.0 / 3.0)
    np.testing.assert_allclose(jet.grad, [12.0 / 3.0, -8.0 / 9.0], rtol=1e-14)
    np.testing.assert_allclose(
        jet.hess, [[12.0 / 3.0, -12.0 / 9.0], [-12.0 / 9.0, 16.0 / 27.0]], rtol=1e-13
    )


def test_lift_univariate_chain_rule():
    # h(t) = sin(t) through its 2-jet, composed with t = x^2.
    (x,) = ad.seed([0.7])
    t = x * x
    jet = ad.lift_univariate(t, math.sin(t.val), math.cos(t.val), -math.sin(t.val))
    v = 0.7**2
    assert jet.grad[0] == pytest.approx(math.cos(v) * 2 * 0.7, rel=1e-14)
    assert jet.hess[0, 0] == pytest.approx(-math.sin(v) * (2 * 0.7) ** 2 + math.cos(v) * 2.0, rel=1e-14)


def test_hessian_symmetric_bitwise():
    jet = _eval(_transcendental, np.array([0.3, -0.8]))
    assert np.array_equal(jet.hess, jet.hess.T)


def test_evaluation_deterministic():
    x = np.array([0.37, -1.21])
    a = _eval(_transcendental, x)
    b = _eval(_transcendental, x)
    assert a.val == b.val
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


def test_scalar_mixing():
    (x,) = ad.seed([2.0])
    jet = 1.0 - 3.0 / (x + 1.0)
    assert jet.val == pytest.approx(0.0)
    assert jet.grad[0] == pytest.approx(3.0 / 9.0)


# -- leading-axis (array-valued) jets ------------------------------------------------


def _array_jet(draw, shape, nvars):
    entries = lambda extra, lo, hi: draw(
        hnp.arrays(float, shape + extra, elements=st.floats(lo, hi, allow_subnormal=False))
    )
    return ad.Jet(entries((), 0.25, 3.0), entries((nvars,), -2.0, 2.0), entries((nvars, nvars), -2.0, 2.0))


@st.composite
def _jet_pairs(draw):
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(k,), (k, k)]))
    nvars = draw(st.integers(1, 4))
    return _array_jet(draw, shape, nvars), _array_jet(draw, shape, nvars)


def _assert_same_bits(got, expected):
    assert isinstance(got.val, float)
    for a, b in ((got.val, expected.val), (got.grad, expected.grad), (got.hess, expected.hess)):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _assert_entrywise(tensor_result, scalar_op, *operands):
    for index in np.ndindex(np.shape(tensor_result.val)):
        expected = scalar_op(*(x[index] if isinstance(x, (ad.Jet, np.ndarray)) else x for x in operands))
        _assert_same_bits(tensor_result[index], expected)


_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    lambda a, b: 1.5 + a - 0.5 * b,
    lambda a, b: 2.0 - a / 3.0 + 1.0 / b,
]
_UNARY = [
    lambda a: -a,
    lambda a: a**2,
    lambda a: a**-1,
    lambda a: a**-2,
    lambda a: a**0.5,
    lambda a: a**2.5,
    lambda a: a**0,
    ad.jet_exp,
    ad.jet_log,
    lambda a: ad.lift_univariate(a, 0.3 * a.val, a.val * a.val, -1.0 / a.val),
]


@given(_jet_pairs())
@settings(max_examples=60, deadline=None)
def test_array_jets_match_scalar_entries_bitwise(pair):
    a, b = pair
    for op in _BINARY:
        _assert_entrywise(op(a, b), op, a, b)
    for op in _UNARY:
        _assert_entrywise(op(a), op, a)


@given(_jet_pairs())
@settings(max_examples=30, deadline=None)
def test_array_jets_broadcast_like_numpy(pair):
    a, b = pair
    s = a[(0,) * a.val.ndim]  # a scalar jet
    _assert_entrywise(s * b, lambda x: s * x, b)
    _assert_entrywise(b * s + s, lambda x: x * s + s, b)
    v = a if a.val.ndim == 1 else a[0]
    outer = v[:, None] * v[None, :]
    assert outer.val.shape == (len(v.val),) * 2
    for i, j in np.ndindex(outer.val.shape):
        _assert_same_bits(outer[i, j], v[i] * v[j])
    scale = np.linspace(0.5, 2.0, b.val.size).reshape(b.val.shape)
    _assert_entrywise(b * scale, lambda x, c: x * c, b, scale)
    _assert_entrywise(scale * b, lambda x, c: c * x, b, scale)


def test_stack_and_index_round_trip():
    x, y, z = ad.seed([0.3, -1.2, 2.0])
    entries = [x * y, ad.jet_exp(z), 2.0 - x]
    stacked = ad.stack(entries)
    assert stacked.val.shape == (3,) and stacked.grad.shape == (3, 3) and stacked.hess.shape == (3, 3, 3)
    for k, entry in enumerate(entries):
        _assert_same_bits(stacked[k], entry)
