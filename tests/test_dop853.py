"""The in-package DOP853 integrator against ``scipy.integrate.solve_ivp``.

``dop853.solve`` transcribes the path ``solve_ivp(method="DOP853")`` takes
with no ``t_eval``, events or dense output, with scipy's numpy expressions
in their order, so it must return scipy's final state (as ``float.hex``),
right-hand-side count, success flag and message bit for bit: on every call
the ``skrp`` command and the flow-length cross-check make, on drawn
nonlinear systems in both directions, and at the edges (an empty interval,
a blow-up, a right-hand side that raises).  scipy serves here only as a
test oracle.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_lab import cli, dop853, fixtures
from soliton_lab import completeness as comp
from soliton_lab.errors import DomainExit
from test_snapshot_tool import _load_tool

integrate = pytest.importorskip("scipy.integrate")


def _scipy(fun, t0, tf, y0, rtol, atol):
    sol = integrate.solve_ivp(fun, (t0, tf), y0, method="DOP853", rtol=rtol, atol=atol)
    return [v.hex() for v in sol.y[:, -1]], sol.nfev, sol.success, sol.message


def _port(fun, t0, tf, y0, rtol, atol):
    y, nfev, success, message = dop853.solve(fun, t0, tf, y0, rtol=rtol, atol=atol)
    return [float(v).hex() for v in y], nfev, success, message


def _assert_same(fun, t0, tf, y0, rtol, atol):
    port = _port(fun, t0, tf, y0, rtol, atol)
    assert port == _scipy(fun, t0, tf, y0, rtol, atol)
    return port


def _recorded_calls(monkeypatch, run):
    """Every dop853.solve call ``run()`` makes, as (fun, t0, tf, y0, rtol, atol)."""
    calls = []
    original = dop853.solve

    def recording(fun, t0, tf, y0, *, rtol, atol):
        calls.append((fun, t0, tf, np.array(y0, dtype=float), rtol, atol))
        return original(fun, t0, tf, y0, rtol=rtol, atol=atol)

    monkeypatch.setattr(dop853, "solve", recording)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def _skrp_runs(tmp_path):
    """argv of ``skrp`` on every profile fixture and every snapshot config."""
    runs = {name: ["skrp", "--fixture", name] for name in fixtures._SKRP}
    for name, doc in _load_tool().CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs[f"config-{name}"] = ["skrp", "--config", str(path)]
    return runs


def test_coefficients_are_scipys():
    for name in ("A", "B", "C", "E3", "E5"):
        ours, theirs = getattr(dop853, name), getattr(integrate.DOP853, name)
        assert ours.shape == theirs.shape and (ours == theirs).all(), name


# -- the package's own calls --------------------------------------------------------


def test_skrp_calls_match_scipy_bitwise(monkeypatch, tmp_path):
    integrated = set()
    for name, argv in _skrp_runs(tmp_path).items():
        out = tmp_path / f"{name}-report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            calls = _recorded_calls(monkeypatch, lambda: cli.main([*argv, "--out", str(out)]))
        for fun, t0, tf, y0, rtol, atol in calls:
            assert _assert_same(fun, t0, tf, y0, rtol, atol)[2]
            integrated.add(name)
    # Each profile fixture integrates its 8 check-point segments.
    assert set(fixtures._SKRP) <= integrated


def test_flow_length_calls_match_scipy_bitwise(monkeypatch, koiso_chart):
    # The cross-check of tests/test_acceptance.py (criterion 9).
    f1, f2 = koiso_chart.fiber_level_range(margin=0.02)
    calls = _recorded_calls(monkeypatch, lambda: comp.gradient_flow_length_crosscheck(koiso_chart, f1, f2))
    assert len(calls) == 1
    assert _assert_same(*calls[0])[2]


# -- drawn systems ------------------------------------------------------------------

SYSTEMS = {
    "sin": lambda M, b: lambda t, y: np.sin(M @ y + b * t),
    "tanh": lambda M, b: lambda t, y: np.tanh(M @ y) * np.cos(t) + b,
    "pendulum": lambda M, b: lambda t, y: M @ np.sin(y) + b,
    "rational": lambda M, b: lambda t, y: (M @ y) / (1.0 + y @ y) + b * np.sin(3.0 * t),
}


@st.composite
def systems(draw):
    n = draw(st.integers(1, 5))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    M = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    y0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))](M, b), y0


@settings(max_examples=200, deadline=None)
@given(
    system=systems(),
    t0=st.floats(-3.0, 3.0),
    span=st.floats(0.0, 6.0),
    backward=st.booleans(),
    rtol=st.sampled_from([1e-3, 1e-6, 1e-10, 1e-11, 1e-13]),
    atol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-13]),
)
def test_drawn_systems_match_scipy_bitwise(system, t0, span, backward, rtol, atol):
    fun, y0 = system
    tf = t0 - span if backward else t0 + span
    _assert_same(fun, t0, tf, y0, rtol, atol)


# -- scipy's edge semantics ---------------------------------------------------------


def test_empty_interval_returns_the_initial_state_after_one_call():
    y0 = [0.25, -3.0]
    y, nfev, success, message = _assert_same(lambda t, y: [y[1], -y[0]], 1.5, 1.5, y0, 1e-11, 1e-13)
    assert (y, nfev, success) == ([v.hex() for v in y0], 1, True)
    assert message == dop853.SUCCESS


def test_blow_up_fails_with_scipys_message():
    # y' = y^2 from y(0) = 1 blows up at t = 1, short of tf = 2.
    y, nfev, success, message = _assert_same(lambda t, y: y * y, 0.0, 2.0, [1.0], 1e-10, 1e-12)
    assert not success
    assert message == dop853.TOO_SMALL_STEP == "Required step size is less than spacing between numbers."
    assert float.fromhex(y[0]) > 1e10


def test_rhs_exception_propagates_unchanged():
    error = DomainExit("left the chart")
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 30:
            raise error
        return -y

    with pytest.raises(DomainExit) as caught:
        dop853.solve(rhs, 0.0, 5.0, [1.0], rtol=1e-10, atol=1e-12)
    assert caught.value is error
    assert len(calls) == 31
