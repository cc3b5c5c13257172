"""The in-package QUADPACK port against ``scipy.integrate.quad``.

``quadpack.qagse`` transcribes QUADPACK's ``dqagse`` in the Fortran's
operation order, so on a finite interval it must return scipy's value,
error estimate and evaluation count bit for bit, including the subdivided,
extrapolated, limit-exhausted and roundoff paths.  scipy serves here only
as a test oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_lab import completeness as comp
from soliton_lab import fixtures, quadpack, skrp

integrate = pytest.importorskip("scipy.integrate")

# The first words of scipy's message for each QUADPACK ier it warns about.
SCIPY_IER = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}
# (epsabs, epsrel, limit) of the package's call sites.
CALL_SHAPES = ((1e-14, 1e-13, 200), (1e-300, 1e-10, 200), (1e-12, 1e-11, 400), (1e-13, 1e-12, 400))


def _bits(value, abserr, neval, ier):
    return value.hex(), abserr.hex(), neval, ier


def _scipy(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:
        ier = next(code for code, prefix in SCIPY_IER.items() if out[3].startswith(prefix))
    return _bits(float(out[0]), float(out[1]), out[2]["neval"], ier)


def _port(f, a, b, epsabs, epsrel, limit):
    value, abserr, neval, ier = quadpack.qagse(f, min(a, b), max(a, b), epsabs, epsrel, limit)
    return _bits(-value if b < a else value, abserr, neval, ier)


def _assert_same(f, a, b, epsabs, epsrel, limit):
    assert _port(f, a, b, epsabs, epsrel, limit) == _scipy(f, a, b, epsabs, epsrel, limit)


# -- the package's own integrals ----------------------------------------------------


def _recorded_calls(monkeypatch, run):
    """Every quadpack.quad call ``run`` makes, as (f, a, b, epsabs, epsrel, limit)."""
    calls = []
    original = quadpack.quad

    def recording(f, a, b, *, epsabs, epsrel, limit):
        calls.append((f, float(a), float(b), epsabs, epsrel, limit))
        return original(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)

    monkeypatch.setattr(quadpack, "quad", recording)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "name, run",
    [
        ("ell-map", lambda: skrp.EllMap(fixtures.skrp_fixture("koiso-m2-A1B0"), 1.5, (0.8, 2.2)).log_ell(1.234)),
        ("caps", lambda: comp.completeness_verdict(fixtures.skrp_fixture("koiso-m2-compact"))),
        ("tail", lambda: comp.completeness_verdict(fixtures.skrp_fixture("koiso-m2-tail"))),
    ],
)
def test_package_integrals_match_scipy_bitwise(monkeypatch, name, run):
    calls = _recorded_calls(monkeypatch, run)
    assert calls
    assert {call[3:] for call in calls} <= set(CALL_SHAPES)
    for call in calls:
        _assert_same(*call)


# -- endpoint singularities that drive the epsilon algorithm --------------------------


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["power", "log", "kink", "pole"]),
    alpha=st.floats(0.05, 0.97),
    c=st.floats(0.0, 1.0),
    lo=st.floats(-2.0, 0.5),
    width=st.floats(1e-3, 20.0),
    shape=st.sampled_from(CALL_SHAPES + ((1e-10, 1e-8, 50), (0.0, 1e-12, 7), (1e-300, 1e-14, 3))),
    reverse=st.booleans(),
)
def test_endpoint_singularities_match_scipy_bitwise(kind, alpha, c, lo, width, shape, reverse):
    hi = lo + width
    if kind == "power":  # x^-alpha at the lower end
        f = lambda x: (x - lo) ** -alpha if x > lo else 0.0
    elif kind == "log":  # log at the lower end, scaled by alpha
        f = lambda x: alpha * math.log(x - lo) if x > lo else 0.0
    elif kind == "kink":  # |x - x0|^beta with an interior or end point x0, beta in (-0.95, 2)
        x0, beta = lo + c * width, 2.0 - 3.0 * alpha
        f = lambda x: abs(x - x0) ** beta if x != x0 else 0.0
    else:
        f = _pole(lo + c * width)
    a, b = (hi, lo) if reverse else (lo, hi)
    _assert_same(f, a, b, *shape)


def _pole(x0):
    """A simple pole at x0: a divergent integral that runs the epsilon table long."""
    return lambda x: 1.0 / (x - x0) if x != x0 else 0.0


@pytest.mark.parametrize(
    "f, a, b, shape, ier",
    [
        (lambda x: 1.0 / x if x else 0.0, 0.0, 1.0, (1e-14, 1e-13, 200), 1),
        (lambda x: 1.0 + 1e-13 * math.sin(1e7 * x), 0.0, 1.0, (1e-300, 1e-15, 200), 1),
        (lambda x: math.sin(50.0 * x), 0.0, 3.0, (1e-14, 1e-14, 1), 1),
        (lambda x: math.cos(100.0 * math.sin(x)), 0.0, math.pi, (1e-14, 1e-14, 50), 2),
        (lambda x: 1e3 * x - x**-0.7 if x else 0.0, 0.0, 1.0, (1e-300, 1e-14, 400), 2),
        (lambda x: x**-0.999 if x else 0.0, 0.0, 1.0, (1e-14, 1e-14, 400), 4),
        (lambda x: x**-1.5 if x else 0.0, 0.0, 1.0, (1e-14, 1e-13, 400), 5),
        # Poles that fill the 50-entry epsilon table, end extrapolation as
        # irregular, and estimate the error from the last three results.
        (_pole(0.5708834978850074), 0.45089137176211125, 21.80306355158945, (1e-12, 1e-11, 400), 5),
        (_pole(-1.7683996304925862), -1.7042847285962544, -1.7891882099433036, (1e-13, 1e-12, 400), 3),
        (_pole(-1.0497374145531504), -0.9954991286820059, -1.145675408931406, (1e-13, 1e-12, 400), 5),
    ],
)
def test_failure_paths_match_scipy_bitwise(f, a, b, shape, ier):
    assert _port(f, a, b, *shape)[3] == ier
    _assert_same(f, a, b, *shape)


# -- scipy's edge semantics ---------------------------------------------------------


def test_empty_interval_makes_no_call():
    calls = []
    assert quadpack.quad(calls.append, 0.7, 0.7, epsabs=1e-14, epsrel=1e-13, limit=200) == (0.0, 0.0)
    assert calls == []


def test_reversed_limits_negate_the_integral():
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    value, abserr = quadpack.quad(math.exp, 0.0, 2.0, **kw)
    assert quadpack.quad(math.exp, 2.0, 0.0, **kw) == (-value, abserr)
    assert value == pytest.approx(math.e**2 - 1.0, rel=1e-14)


def test_numpy_scalars_are_coerced_to_float():
    value, abserr = quadpack.quad(np.exp, np.float64(0.0), np.float64(1.0), epsabs=1e-14, epsrel=1e-13, limit=200)
    assert type(value) is float and type(abserr) is float


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (math.inf, math.inf)])
def test_non_finite_limits_raise(a, b):
    with pytest.raises(ValueError, match="finite"):
        quadpack.quad(math.exp, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)


def test_invalid_tolerance_or_limit_raises():
    with pytest.raises(ValueError, match="epsrel"):
        quadpack.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20, limit=200)
    with pytest.raises(ValueError, match="limit"):
        quadpack.quad(math.exp, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=0)


def test_unmet_tolerance_warns_and_met_tolerance_does_not():
    with pytest.warns(quadpack.IntegrationWarning, match="subdivisions"):
        quadpack.quad(lambda x: math.sin(50.0 * x), 0.0, 3.0, epsabs=1e-14, epsrel=1e-14, limit=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadpack.quad(math.exp, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
