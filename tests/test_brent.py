"""The in-package Brent root finder against ``scipy.optimize.brentq``.

``brent.brentq_core`` transcribes scipy's ``brentq.c`` in its operation
order, so it must return scipy's root, iteration count, function-call count
and convergence flag bit for bit: on every bracket ``q_domain`` builds, on
drawn functions, and at the edges (a zero at an end, interpolation steps
that divide by zero).  scipy serves here only as a test oracle.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_lab import brent, cli, fixtures, skrp
from soliton_lab.errors import ConvergenceFailure, DomainError
from test_snapshot_tool import _load_tool

optimize = pytest.importorskip("scipy.optimize")

# Scales of A, B and kappa that leave the zeros of Q put but make the
# product of two neighbouring values of Q underflow near a zero.
TINY_SCALES = (1e-160, 2.0**-520)


def _scipy(f, a, b, xtol, maxiter):
    try:
        root, info = optimize.brentq(f, a, b, xtol=xtol, rtol=brent.RTOL, maxiter=maxiter, full_output=True, disp=False)
    except ValueError as exc:
        return type(exc).__name__
    return root.hex(), info.iterations, info.function_calls, info.converged


def _port(f, a, b, xtol, maxiter):
    try:
        root, iterations, calls, converged = brent.brentq_core(f, a, b, xtol, brent.RTOL, maxiter)
    except DomainError:
        return "ValueError"
    return root.hex(), iterations, calls, converged


def _assert_same(f, a, b, xtol=brent.XTOL, maxiter=brent.MAXITER):
    port, scipy = _port(f, a, b, xtol, maxiter), _scipy(f, a, b, xtol, maxiter)
    if float(f(a)) == 0.0 or float(f(b)) == 0.0:
        # scipy returns the zero end without setting its iteration count.
        port, scipy = (port[0], *port[2:]), (scipy[0], *scipy[2:])
    assert port == scipy


def _scaled(params, scale):
    return dataclasses.replace(params, A=params.A * scale, B=params.B * scale, kappa=params.kappa * scale)


def _profile_params(tmp_path):
    """Every profile fixture and snapshot config, as parsed by the CLI."""
    found = dict(fixtures._SKRP)
    for name, doc in _load_tool().CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        try:
            found[f"config-{name}"] = cli._parse_config_file(str(path))[1]
        except ValueError:
            continue  # a config the CLI refuses builds no bracket
    return found


def _recorded_brackets(monkeypatch, params):
    """Every brent.brentq call q_domain makes, as (f, a, b)."""
    calls = []
    original = brent.brentq

    def recording(f, a, b):
        calls.append((f, a, b))
        return original(f, a, b)

    monkeypatch.setattr(brent, "brentq", recording)
    skrp.q_domain(params)
    monkeypatch.undo()
    return calls


# -- the package's own brackets -----------------------------------------------------


def test_q_domain_brackets_match_scipy_bitwise(monkeypatch, tmp_path):
    bracketed = set()
    for name, params in _profile_params(tmp_path).items():
        for scale in (1.0, *TINY_SCALES):
            for f, a, b in _recorded_brackets(monkeypatch, _scaled(params, scale)):
                bracketed.add(name)
                _assert_same(f, a, b)
    assert {"koiso-m2-compact", "koiso-m2-capped"} <= bracketed


# -- drawn functions ----------------------------------------------------------------

SHAPES = {
    "power": lambda r, p: lambda x: (x - r) ** p,
    "tanh": lambda r, p: lambda x: math.tanh(p * (x - r)),
    "exp": lambda r, p: lambda x: math.exp(p * (x - r)) - 1.0,
    "cubic": lambda r, p: lambda x: (x - r) * (x + r + 0.1) * (x - 0.3),
    "atan3": lambda r, p: lambda x: math.atan(x - r) ** 3,
}


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    root=st.floats(-2.0, 2.0),
    power=st.sampled_from([1, 2, 3, 5, 7]),
    scale=st.sampled_from([1.0, 1e150, 1e-160, 2.0**-520, 1e-300, 1e-310]),
    below=st.floats(0.0, 5.0),
    above=st.floats(0.0, 5.0),
    reverse=st.booleans(),
    xtol=st.sampled_from([brent.XTOL, 2e-12, 1e-300, 5e-324, 1e-3]),
    maxiter=st.sampled_from([brent.MAXITER, 0, 1, 3, 8]),
)
def test_drawn_functions_match_scipy_bitwise(shape, root, power, scale, below, above, reverse, xtol, maxiter):
    g = SHAPES[shape](root, power)
    f = lambda x: scale * g(x)
    a, b = root - below, root + above
    if reverse:
        a, b = b, a
    _assert_same(f, a, b, xtol=xtol, maxiter=maxiter)


# -- scipy's edge semantics ---------------------------------------------------------


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x - 0.25, 0.25, 1.0),  # the root is the left end
        (lambda x: x - 1.0, 0.25, 1.0),  # the root is the right end
        (lambda x: -0.0 if x == 0.25 else -1.0, 0.25, 1.0),  # f(a) == 0 with f(b) of its sign bit
        (lambda x: 0.0, 0.25, 1.0),  # zero at both ends
    ],
)
def test_zero_at_an_end_returns_that_end(f, a, b):
    root, iterations, calls, converged = brent.brentq_core(f, a, b, brent.XTOL, brent.RTOL, brent.MAXITER)
    assert (root, iterations, calls, converged) == (a if f(a) == 0.0 else b, 0, 2, True)
    _assert_same(f, a, b)


@pytest.mark.parametrize(
    "f, a, b",
    [
        # Products of values near 1e-160 underflow to 0, so an interpolation
        # denominator is zero: C's quotient is inf or nan and it bisects.  The
        # q_domain brackets of profiles scaled by 1e-160 (above) do too.
        (lambda x: 1e-160 * (x * x - 2.0), 0.0, 2.0),
        (lambda x: 1e-160 * (x - 0.3) ** 3, 0.0, 1.0),
        (lambda x: 1e-310 * math.tanh(7.0 * (x - 0.3)), -1.0, 2.0),
    ],
)
def test_zero_division_steps_bisect_like_c(f, a, b):
    _assert_same(f, a, b)


def test_values_go_through_float():
    root = brent.brentq(lambda x: np.float64(x) ** 3 - 0.5, np.float64(0.0), np.float64(1.0))
    assert type(root) is float
    assert root.hex() == optimize.brentq(lambda x: x**3 - 0.5, 0.0, 1.0, xtol=brent.XTOL).hex()


# -- failures raise the package's errors --------------------------------------------


def test_exhausted_maxiter_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(brent, "MAXITER", 3)
    with pytest.raises(ConvergenceFailure, match="3 iterations"):
        brent.brentq(lambda x: x**3 - 0.5, 0.0, 1.0)


def test_nan_value_raises_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        brent.brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)


def test_bracket_without_sign_change_raises_domain_error():
    with pytest.raises(DomainError, match="different signs"):
        brent.brentq(lambda x: 1e-200, 0.0, 1.0)


# -- q_domain when Q is tiny ----------------------------------------------------------


@pytest.mark.parametrize("scale", TINY_SCALES, ids=["1e-160", "2^-520"])
@pytest.mark.parametrize("name", list(fixtures._SKRP))
def test_q_domain_is_scale_invariant(name, scale):
    # Scaling A, B and kappa scales Q and leaves its zeros put; the scan's
    # sign test must not underflow to -0.0 and drop them.
    params = fixtures.skrp_fixture(name)
    expected = skrp.q_domain(params)
    got = skrp.q_domain(_scaled(params, scale))
    assert expected
    assert len(got) == len(expected)
    for edges, want in zip(got, expected):
        assert edges == pytest.approx(want, rel=1e-12)
