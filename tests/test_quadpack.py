"""The in-package QUADPACK port against ``scipy.integrate.quad``.

``quadpack.qage`` transcribes QUADPACK's QAG (``dqage``) in the Fortran's
operation order.  scipy's quad runs QAGS (``dqagse``), which bisects the
same way but adds Wynn's epsilon extrapolation from the third bisection on.
So on the shared path, a call scipy finishes within two bisections
(``neval <= 105``) without a warning, the port must return scipy's value,
error estimate, evaluation count and ``ier`` bit for bit; off it, the two
values must agree within the sum of their error estimates, and the port
must return the bits of ``oracles.dqage``, a restatement of the Fortran
dqage that only the tests use.  scipy serves here only as a test oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soliton_lab import cli, fixtures, quadpack
from soliton_lab import completeness as comp

import oracles

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
CALL_SHAPES = ((1e-14, 1e-13, quadpack.LIMIT), (1e-300, 1e-10, quadpack.LIMIT))
# Evaluations of a call that ends within two bisections: 21 + 2 * 2 * 21.
SHARED_NEVAL = 105
PROFILE_FIXTURES = (
    "koiso-m2-A1B0",
    "koiso-m2-A1B0-flatbase",
    "koiso-m2-compact",
    "koiso-m2-tail",
    "koiso-m2-capped",
    "negative-branch",
)


def _bits(value, abserr, neval, ier):
    return value.hex(), abserr.hex(), neval, ier


def _scipy(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:
        ier = next(code for code, prefix in SCIPY_IER.items() if out[3].startswith(prefix))
    return float(out[0]), float(out[1]), out[2]["neval"], ier


def _port(f, a, b, epsabs, epsrel, limit):
    value, abserr, neval, ier = quadpack.qage(f, min(a, b), max(a, b), epsabs, epsrel, limit)
    return (-value if b < a else value), abserr, neval, ier


def _on_shared_path(scipy_out):
    return scipy_out[2] <= SHARED_NEVAL and scipy_out[3] == 0


def _oracle(f, a, b, epsabs, epsrel, limit):
    value, abserr, neval, ier = oracles.dqage(f, min(a, b), max(a, b), epsabs, epsrel, limit)
    return (-value if b < a else value), abserr, neval, ier


def _assert_consistent(f, a, b, epsabs, epsrel, limit):
    """Bitwise equal to scipy on the shared path; off it, bitwise equal to the
    dqage oracle and equal to scipy within both error estimates.  Returns
    the port's (value, abserr, neval, ier)."""
    ours = _port(f, a, b, epsabs, epsrel, limit)
    theirs = _scipy(f, a, b, epsabs, epsrel, limit)
    if _on_shared_path(theirs):
        assert _bits(*ours) == _bits(*theirs)
    else:
        assert _bits(*ours) == _bits(*_oracle(f, a, b, epsabs, epsrel, limit))
        assert abs(ours[0] - theirs[0]) <= ours[1] + theirs[1]
    return ours


# -- the package's own integrals ----------------------------------------------------


def _recorded(monkeypatch, run):
    """What ``run`` integrates over nonempty intervals (an empty one calls no
    integrand): every quadpack.quad call as (f, a, b, epsabs, epsrel, limit),
    and every lane of quadpack.first_steps as (f, a, b, epsabs, epsrel,
    value, abserr, done), with f the batched integrand."""
    calls, lanes = [], []
    quad, first_steps = quadpack.quad, quadpack.first_steps

    def recording_quad(f, a, b, *, epsabs, epsrel):
        if a != b:
            calls.append((f, float(a), float(b), epsabs, epsrel, quadpack.LIMIT))
        return quad(f, a, b, epsabs=epsabs, epsrel=epsrel)

    def recording_steps(f, a, b, *, epsabs, epsrel):
        value, abserr, done = first_steps(f, a, b, epsabs=epsabs, epsrel=epsrel)
        ends = zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist())
        for (lo, hi), *out in zip(ends, value.tolist(), abserr.tolist(), done.tolist()):
            if lo != hi:
                lanes.append((f, lo, hi, epsabs, epsrel, *out))
        return value, abserr, done

    monkeypatch.setattr(quadpack, "quad", recording_quad)
    monkeypatch.setattr(quadpack, "first_steps", recording_steps)
    run()
    monkeypatch.undo()
    return calls, lanes


@pytest.mark.parametrize(
    "name, run",
    [
        # The fiber-norm map of every profile fixture's skrp window and of the
        # chart that verify and dualize assemble.
        (
            "ell-map",
            lambda: (
                [cli.cmd_skrp(cli.RunConfig("skrp", fixture=name, samples=10)) for name in PROFILE_FIXTURES],
                fixtures.calabi_fixture(),
            ),
        ),
        ("caps", lambda: comp.completeness_verdict(fixtures.skrp_fixture("koiso-m2-compact"))),
        ("tail", lambda: comp.completeness_verdict(fixtures.skrp_fixture("koiso-m2-tail"))),
    ],
)
def test_package_integrals_match_scipy_bitwise(monkeypatch, name, run):
    calls, lanes = _recorded(monkeypatch, run)
    if name != "ell-map":
        assert calls and not lanes
        assert {call[3:] for call in calls} <= set(CALL_SHAPES)
        for call in calls:
            _assert_consistent(*call)
        return
    # The fiber-norm table and ell column take one float quad per interval,
    # and the chart's inversion takes QAG's first Kronrod step of a chunk's
    # intervals in one batch.  Every interval of both ends at that first
    # step, where QAG and QAGS are one code path: each returns scipy's bits
    # on the same integrand (a lane's evaluated one float at a time), and no
    # lane goes on to quad.  So skrp, verify and dualize read scipy's
    # numbers exactly.
    assert calls and lanes
    assert {call[3:] for call in calls} <= set(CALL_SHAPES)
    assert {(lane[3], lane[4], quadpack.LIMIT) for lane in lanes} <= set(CALL_SHAPES)
    for call in calls:
        assert _assert_consistent(*call)[2:] == (21, 0)
    for f, a, b, epsabs, epsrel, value, abserr, done in lanes:
        assert done
        theirs = _scipy(lambda x: float(f(np.array([x]))[0]), a, b, epsabs, epsrel, quadpack.LIMIT)
        assert _bits(value, abserr, 21, 0) == _bits(*theirs)


# -- random integrands on the shared path ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["power", "log", "kink", "pole", "exp", "sin", "poly"]),
    alpha=st.floats(0.05, 0.97),
    c=st.floats(0.0, 1.0),
    lo=st.floats(-2.0, 0.5),
    width=st.floats(1e-3, 20.0),
    shape=st.sampled_from(CALL_SHAPES + ((1e-10, 1e-8, 50), (0.0, 1e-12, 7), (1e-300, 1e-14, 3))),
    reverse=st.booleans(),
)
def test_endpoint_singularities_match_scipy_bitwise(kind, alpha, c, lo, width, shape, reverse):
    """Endpoint singularities and smooth families: wherever scipy stays on the
    shared path, the port returns its bits."""
    hi = lo + width
    x0 = lo + c * width
    if kind == "power":  # x^-alpha at the lower end
        f = lambda x: (x - lo) ** -alpha if x > lo else 0.0
    elif kind == "log":  # log at the lower end, scaled by alpha
        f = lambda x: alpha * math.log(x - lo) if x > lo else 0.0
    elif kind == "kink":  # |x - x0|^beta with an interior or end point x0, beta in (-0.95, 2)
        beta = 2.0 - 3.0 * alpha
        f = lambda x: abs(x - x0) ** beta if x != x0 else 0.0
    elif kind == "pole":
        f = _pole(x0)
    elif kind == "exp":
        f = lambda x: math.exp(-(x - x0) / (4.0 * alpha))
    elif kind == "sin":
        f = lambda x: math.sin((x - x0) / alpha) + c
    else:
        f = lambda x: ((x - x0) * (x - lo) - alpha) * (x - hi) ** 3
    a, b = (hi, lo) if reverse else (lo, hi)
    theirs = _scipy(f, a, b, *shape)
    assume(_on_shared_path(theirs))
    assert _bits(*_port(f, a, b, *shape)) == _bits(*theirs)


def _pole(x0):
    """A simple pole at x0: a divergent integral."""
    return lambda x: 1.0 / (x - x0) if x != x0 else 0.0


# -- failure codes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, a, b, shape, ier",
    [
        (lambda x: 1.0 / x if x else 0.0, 0.0, 1.0, (1e-14, 1e-13, quadpack.LIMIT), 1),
        (lambda x: 1.0 + 1e-13 * math.sin(1e7 * x), 0.0, 1.0, (1e-300, 1e-15, quadpack.LIMIT), 1),
        # limit 1 stops at the first estimate.
        (lambda x: math.sin(50.0 * x), 0.0, 3.0, (1e-14, 1e-14, 1), 1),
        (lambda x: math.cos(100.0 * math.sin(x)), 0.0, math.pi, (1e-14, 1e-14, quadpack.LIMIT), 2),
        (lambda x: 1e3 * x - x**-0.7 if x else 0.0, 0.0, 1.0, (1e-300, 1e-14, quadpack.LIMIT), 2),
        # Poles bisected down to an interval too small to split.
        (_pole(0.5708834978850074), 0.45089137176211125, 21.80306355158945, (1e-12, 1e-11, quadpack.LIMIT), 3),
        (_pole(-1.7683996304925862), -1.7891882099433036, -1.7042847285962544, (1e-13, 1e-12, quadpack.LIMIT), 3),
        (_pole(-1.0497374145531504), -1.145675408931406, -0.9954991286820059, (1e-13, 1e-12, quadpack.LIMIT), 3),
    ],
)
def test_failure_paths_match_scipy_bitwise(f, a, b, shape, ier):
    """Each failure code: the port agrees with scipy as on any other call and
    returns scipy's ``ier``, and ``quad`` (which always allows LIMIT
    subintervals) returns the port's value, error estimate and ``ier``."""
    value, abserr, _, port_ier = _assert_consistent(f, a, b, *shape)
    assert port_ier == ier
    # Only QAGS's extrapolation can call a pole divergent (ier 5); QAG,
    # without it, bisects down to an interval too small to split (ier 3).
    scipy_ier = _scipy(f, a, b, *shape)[3]
    assert scipy_ier == ier or (ier, scipy_ier) == (3, 5)
    epsabs, epsrel, limit = shape
    if limit == quadpack.LIMIT:
        got_value, got_abserr, got_ier = quadpack.quad(f, a, b, epsabs=epsabs, epsrel=epsrel)
        assert (got_value.hex(), got_abserr.hex(), got_ier) == (value.hex(), abserr.hex(), ier)


# -- scipy's edge semantics ---------------------------------------------------------


def test_empty_interval_makes_no_call():
    calls = []
    assert quadpack.quad(calls.append, 0.7, 0.7, epsabs=1e-14, epsrel=1e-13) == (0.0, 0.0, 0)
    assert calls == []


def test_numpy_scalars_are_coerced_to_float():
    value, abserr, ier = quadpack.quad(np.exp, np.float64(0.0), np.float64(1.0), epsabs=1e-14, epsrel=1e-13)
    assert type(value) is float and type(abserr) is float and ier == 0


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (math.inf, math.inf)])
def test_non_finite_limits_raise(a, b):
    with pytest.raises(ValueError, match="finite"):
        quadpack.quad(math.exp, a, b, epsabs=1e-14, epsrel=1e-13)


def test_invalid_tolerance_or_limit_raises():
    with pytest.raises(ValueError, match="epsrel"):
        quadpack.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)


def test_unmet_tolerance_returns_its_ier_and_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadpack.quad(lambda x: 1.0 / x if x else 0.0, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[2] == 1
        assert quadpack.quad(math.exp, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[2] == 0


# -- QAG off the shared path ----------------------------------------------------------

COMPLETENESS_FIXTURES = ("synthetic-simple-caps", "synthetic-double-zero") + PROFILE_FIXTURES


def test_ladder_calls_off_the_shared_path_match_the_dqage_oracle(monkeypatch):
    """Where scipy's QAGS goes past two bisections it no longer checks the
    port; there the port must return the bits of ``oracles.dqage``."""

    def run():
        for name in COMPLETENESS_FIXTURES:
            comp.completeness_verdict(fixtures.q_profile_fixture(name))

    calls, _ = _recorded(monkeypatch, run)
    off_path = [call for call in calls if not _on_shared_path(_scipy(*call))]
    assert off_path
    for call in off_path:
        assert _bits(*_port(*call)) == _bits(*_oracle(*call))


@pytest.mark.parametrize(
    "f, a, b, shape, ier",
    [
        # The first estimate's error is 52.8 eps times the integral of |f|:
        # dqage flags roundoff there only at 50 eps (dqagse at 100), so it bisects.
        (lambda x: math.exp(9.65 * x), 0.0, 1.0, (1e-300, 1e-15, quadpack.LIMIT), 2),
        # The one bisection that limit 2 allows meets the tolerance: no flag.
        (lambda x: math.exp(-3.0 * x * x), -1.0, 1.0, (1e-300, 1e-10, 2), 0),
        # The relative bound follows the running area, not the first estimate.
        (lambda x: math.cos(40.0 * x) + 2.0, -1.0, 1.0, (1e-300, 1e-13, quadpack.LIMIT), 0),
    ],
    ids=["first-estimate-roundoff", "limit-met-on-last-bisection", "running-bound"],
)
def test_off_path_calls_match_the_dqage_oracle(f, a, b, shape, ier):
    # Each call is off scipy's path, so the check is against the oracle.
    assert _assert_consistent(f, a, b, *shape)[3] == ier


@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.nan if x > 0.3 else x], ids=["nan", "nan-above-0.3"])
def test_nan_integrand_ends_as_dqage_does(f):
    # A NaN error sum fails the Fortran's "errsum <= errbnd" test, so the
    # error flags are set and the call ends with a warning, not silently.
    port = quadpack.qage(f, 0.0, 1.0, 1e-14, 1e-13, quadpack.LIMIT)
    assert _bits(*port) == _bits(*oracles.dqage(f, 0.0, 1.0, 1e-14, 1e-13, quadpack.LIMIT))
    assert port[3] > 0


def _scripted(level):
    """An integrand on [0, 1] whose values are chosen by dyadic subinterval.

    At the 21-point rule's node u in [-1, 1] of [i/2^d, (i+1)/2^d] it reads
    level(d, i) + u, plus delta_d at the Kronrod-only nodes.  Both rules
    integrate the line exactly, so the error estimate comes from delta_d,
    which grows with d so that every subinterval's estimate is ~2.5e-10: a
    bisection's halves sum to about twice their parent's error.
    """

    def f(x):
        for d in range(40):
            y = x * 2.0**d
            i = math.floor(y)
            u = 2.0 * (y - i) - 1.0
            for j, node in enumerate(quadpack._XGK):
                if abs(abs(u) - node) < 1e-6:
                    return level(d, i) + u + (2e-9 * 2.0 ** (2 * (d + 1) / 3) if j % 2 == 0 else 0.0)
        raise AssertionError(f"{x!r} is no node of a dyadic subinterval of [0, 1]")

    return f


@pytest.mark.parametrize(
    "level, neval, ier",
    [
        # The area changes by ~3e-5 of itself per bisection, which iroff1's
        # 1e-5 test does not count (its 1e-4 would, six times by the 7th
        # subinterval), while iroff2 counts every bisection from the 11th
        # subinterval on and reaches 20 at the 30th: ier = 2.
        (lambda d, i: 1.0 + 3e-5 * d, 42 * 30 - 21, 2),
        # The halves of [0, 1] tie, so the list update keeps the left one
        # first and bisects it next; its halves' level 1e5 lifts the relative
        # tolerance past the error sum.
        (lambda d, i: 1e5 if d > 1 and i < 2 ** (d - 1) else 1.0, 105, 0),
    ],
    ids=["iroff2-reaches-20", "tied-halves"],
)
def test_scripted_integrands_match_the_dqage_oracle(level, neval, ier):
    f = _scripted(level)
    port = quadpack.qage(f, 0.0, 1.0, 1e-300, 1e-13, quadpack.LIMIT)
    assert _bits(*port) == _bits(*oracles.dqage(f, 0.0, 1.0, 1e-300, 1e-13, quadpack.LIMIT))
    assert port[2:] == (neval, ier)


# -- QAG's first step over many intervals at once ---------------------------------------

# Integrands of + - * / only, whose numpy values carry a Python float's bits.
_ARITHMETIC = {
    "cubic": lambda x: x * x * x - 2.0 * x + 1.0,
    "lorentz": lambda x: 1.0 / (1.0 + x * x),
    "narrow-peak": lambda x: 1.0 / (1e-4 + x * x),
    "line": lambda x: x,
}
_LANES_A = np.array([-1.0, 0.0, 0.3, -1.0, 2.5, -3.0])
_LANES_B = np.array([1.1, 2.0, 0.3, 1.0, 7.0, 5.0])


def test_first_steps_match_qage_bit_for_bit():
    # value and abserr equal qage's first estimate (limit 1 returns it), and
    # a lane is done exactly where qage returns after that estimate with
    # ier = 0; a zero-width lane gives quad's (0, 0).
    seen = set()
    for shape in ((1e-14, 1e-13), (0.0, 1.2e-14), (1e-300, 1e-10)):
        for f in _ARITHMETIC.values():
            calls = []
            value, abserr, done = quadpack.first_steps(
                lambda x: calls.append(x.shape) or f(x), _LANES_A, _LANES_B, epsabs=shape[0], epsrel=shape[1]
            )
            assert calls == [(21 * len(_LANES_A),)]
            for k, (a, b) in enumerate(zip(_LANES_A.tolist(), _LANES_B.tolist())):
                if a == b:
                    assert quadpack.quad(f, a, b, epsabs=shape[0], epsrel=shape[1]) == (0.0, 0.0, 0)
                    assert (value[k].hex(), abserr[k].hex(), done[k]) == ((0.0).hex(), (0.0).hex(), True)
                    seen.add("zero-width")
                    continue
                first = quadpack.qage(f, a, b, *shape, 1)
                assert (value[k].hex(), abserr[k].hex()) == (first[0].hex(), first[1].hex())
                _, _, neval, ier = quadpack.qage(f, a, b, *shape, quadpack.LIMIT)
                assert done[k] == (neval == 21 and ier == 0), (a, b, shape)
                seen.add("done" if done[k] else "bisected" if ier == 0 else f"ier {ier}")
    assert seen == {"zero-width", "done", "bisected", "ier 2"}


def test_first_steps_leave_non_finite_lanes_and_limits_undone():
    value, _, done = quadpack.first_steps(
        lambda x: np.where(x > 0.5, np.nan, 1.0), np.array([0.0, 0.6, 0.0, -math.inf]), np.array([0.4, 0.9, math.inf, -math.inf]),
        epsabs=1e-14, epsrel=1e-13,
    )
    assert done.tolist() == [True, False, False, False]
    assert value[0] == quadpack.quad(lambda x: 1.0, 0.0, 0.4, epsabs=1e-14, epsrel=1e-13)[0]
