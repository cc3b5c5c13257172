"""Convergence of improper integrals, endpoint classification, and completeness verdicts."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from soliton_lab import cli, fixtures, skrp
from soliton_lab import completeness as comp
from soliton_lab.errors import (
    DomainError,
    DomainExit,
    NonpositiveQ,
    OscillationDetected,
    ToleranceAmbiguity,
)

import oracles

EC = comp.EndpointClass
OV = comp.OverallVerdict
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- arc integrand ------------------------------------------------------------------


def test_arc_integrand_unit_profile():
    profile = skrp.QProfile(q=lambda f: 1.0, dq=lambda f: 0.0, interval=(-1.0, 1.0), m=2)
    assert comp.arc_integrand(profile, 0.0) == 1.0


def test_arc_integrand_hand_value():
    params = fixtures.skrp_fixture("koiso-m2-A1B0-flatbase")
    assert comp.arc_integrand(params, 1.0) == pytest.approx(math.exp(-1.0) / math.sqrt(5.0), rel=1e-14)


def test_arc_integrand_shift_scaling():
    # Shifting f by dc with Q carried along rescales by exp(-2 dc / (n-2)).
    profile = skrp.QProfile(q=lambda f: 2.0 + math.sin(f), dq=lambda f: math.cos(f), interval=(-9.0, 9.0), m=2)
    dc = 0.8
    shifted = skrp.QProfile(q=lambda f: profile.q(f - dc), dq=lambda f: profile.dq(f - dc), interval=(-8.0, 8.0), m=2)
    f0 = 0.4
    ratio = comp.arc_integrand(shifted, f0 + dc) / comp.arc_integrand(profile, f0)
    assert ratio == pytest.approx(math.exp(-dc), rel=1e-13)


def test_arc_integrand_rejects_nonpositive_q():
    profile = skrp.QProfile(q=lambda f: -1.0, dq=lambda f: 0.0, interval=(-1.0, 1.0), m=2)
    with pytest.raises(NonpositiveQ):
        comp.arc_integrand(profile, 0.0)


def test_arc_integrand_overflow_is_a_domain_error():
    # exp(-f / (m - 1)) overflows float64 below f ~ -709 (m = 2).
    params = skrp.SkrpParams(m=2, kappa=1.0, B=1.0, I=(-900.0, -800.0))
    with pytest.raises(DomainError, match="overflows float64 at f = -850"):
        comp.arc_integrand(params, -850.0)


# -- improper_integral -------------------------------------------------------------------


def _decade_segments():
    """(lo, hi) offsets of the truncation-ladder segments at a finite end of
    an interval of length 1, nearest last."""
    edges = [10.0 ** (-k) for k in comp.LADDER_EXPONENTS]
    return [(lo, hi) for hi, lo in zip(edges[:-1], edges[1:])]


@pytest.mark.parametrize("p,full_integral", [(-0.5, 2.0), (-0.9, 10.0), (-0.1, 1.0 / 0.9)])
def test_integrable_power_values(p, full_integral):
    # full_integral = 1 / (1 + p) is the integral of f^p over (0, 1], so each
    # ladder segment [lo, hi] integrates to full_integral (hi^(1+p) - lo^(1+p)).
    result = comp.improper_integral(lambda f: f**p, 0.0, 1.0)
    assert result.converged
    exact = [full_integral * (hi ** (1.0 + p) - lo ** (1.0 + p)) for lo, hi in _decade_segments()]
    assert result.increments == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [-1.0, -1.5, -2.0])
def test_divergent_powers_detected(p):
    result = comp.improper_integral(lambda f: f**p, 0.0, 1.0)
    assert result.diverges


def test_divergence_rate_increments_nondecreasing():
    result = comp.improper_integral(lambda f: f**-1.5, 0.0, 1.0)
    incs = result.increments
    assert all(b >= a for a, b in zip(incs[:-1], incs[1:]))


def test_upper_endpoint_singularity():
    # The ladder runs at offsets from f = 1; rounding 1 - offset at offsets
    # down to 1e-10 costs about 7 of the segment integrals' digits.
    result = comp.improper_integral(lambda f: (1.0 - f) ** -0.5, 0.0, 1.0, singular_end="upper")
    assert result.converged
    exact = [2.0 * (math.sqrt(hi) - math.sqrt(lo)) for lo, hi in _decade_segments()]
    assert result.increments == pytest.approx(exact, rel=1e-8)


def test_improper_integral_bad_bounds():
    with pytest.raises(DomainError):
        comp.improper_integral(lambda f: 1.0, 1.0, 0.0)


def test_oscillation_guard():
    with pytest.raises(OscillationDetected):
        comp.improper_integral(lambda f: -1.0, 0.0, 1.0)


# -- exponent_fit ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,tol", [(-0.5, 0.01), (-1.5, 0.01)])
def test_exponent_fit_recovers_powers(p, tol):
    fit = comp.exponent_fit(lambda f: f**p, 0.0)
    assert fit.exponent == pytest.approx(p, abs=tol)


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_exponent_fit_refuses_values_it_cannot_take_the_log_of(value):
    # An integrand that underflows to 0 near the endpoint made the fit NaN.
    with pytest.raises(DomainError, match="is 0 or not finite"):
        comp.exponent_fit(lambda f: value if f < 1e-5 else f**-0.5, 0.0)


@pytest.mark.parametrize("p", [-1.5, -1.0, -0.5, 0.25, 2.0])
@pytest.mark.parametrize("lo, hi", [(1e-8, 1e-3), (2e-9, 2e-4)])
def test_exponent_fit_recovers_an_exact_power_law_to_1e_13(p, lo, hi):
    # On C (f - a)^p the log-log points lie on a line of slope p.
    fit = comp.exponent_fit(lambda f: 2.5 * f**p, 0.0, lo, hi)
    assert abs(fit.exponent - p) <= 1e-13


@pytest.mark.parametrize("name", [*fixtures._SYNTHETIC_Q, *fixtures._SKRP])
def test_exponent_fit_matches_lapack_least_squares_at_every_fixture_end(name, monkeypatch):
    # The fit solves the normal equations in Python floats on a libm
    # geometric grid; LAPACK's lstsq on numpy's grid gives the same slope.
    fit, slopes = comp.exponent_fit, []

    def both(integrand, a, lo, hi):
        mine = fit(integrand, a, lo, hi)
        slopes.append((mine.exponent, oracles.exponent_fit_lstsq(integrand, a, lo, hi)))
        return mine

    monkeypatch.setattr(comp, "exponent_fit", both)
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture(name))
    assert len(slopes) == sum(math.isfinite(end.endpoint) for end in (verdict.lower, verdict.upper))
    for mine, lapack in slopes:
        assert abs(mine - lapack) <= 1e-13, (mine, lapack)


def test_completeness_report_does_not_depend_on_the_blas_kernel():
    # Every exponent fit moved when OpenBLAS was forced to its generic
    # Prescott kernel while the fit ran on LAPACK; now no BLAS call is made.
    reports = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "OPENBLAS", "SOLITON_LAB"))}
        env.update(PYTHONPATH=SRC, **extra)
        done = subprocess.run(
            [sys.executable, "-m", "soliton_lab.cli", "completeness", "--fixture", "koiso-m2-compact"],
            env=env, capture_output=True, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        reports.append(done.stdout)
    assert reports[0] == reports[1]


def test_plot_grid_is_numpy_geomspace_bit_for_bit():
    # completeness' plot-data CSV samples the integrand at these offsets.
    assert comp.geomspace(1e-6, 1e-1, 25) == np.geomspace(1e-6, 1e-1, 25).tolist()


# -- classify_endpoint ------------------------------------------------------------------------


def test_simple_zero_is_smooth_cap():
    profile = skrp.QProfile(q=lambda f: f, dq=lambda f: 1.0, interval=(0.0, 1.0), m=2)
    analysis = comp.classify_endpoint(profile, 0.0)
    assert analysis.cls is EC.SMOOTH_CAP
    assert analysis.exponent.exponent == pytest.approx(-0.5, abs=0.05)
    assert analysis.integral.converged


def test_double_zero_is_infinite_end():
    profile = skrp.QProfile(q=lambda f: f * f, dq=lambda f: 2.0 * f, interval=(0.0, 1.0), m=2)
    analysis = comp.classify_endpoint(profile, 0.0)
    assert analysis.cls is EC.INFINITE_END
    assert analysis.exponent.exponent == pytest.approx(-1.0, abs=0.05)
    assert analysis.integral.diverges


def test_positive_q_is_interior_boundary():
    profile = skrp.QProfile(q=lambda f: 1.0 + f, dq=lambda f: 1.0, interval=(0.0, 1.0), m=2)
    assert comp.classify_endpoint(profile, 0.0).cls is EC.INTERIOR


def test_capped_profile_smooth_cap_at_phi_root():
    # Right endpoint where the profile itself crosses zero (simple).
    params = fixtures.skrp_fixture("koiso-m2-capped")
    intervals = skrp.q_domain(params)
    hi = intervals[0][1]
    assert 8.0 < hi < 8.9  # root of phi located by bracketing
    analysis = comp.classify_endpoint(params, hi, side="sup")
    assert analysis.cls is EC.SMOOTH_CAP
    assert analysis.exponent.exponent == pytest.approx(-0.5, abs=0.05)


def test_tolerance_ambiguity_is_surfaced():
    eps = 3e-9  # within a factor 10 of the 1e-9-scaled zero tolerance
    profile = skrp.QProfile(q=lambda f: f * f + eps * f, dq=lambda f: 2.0 * f + eps, interval=(0.0, 1.0), m=2)
    with pytest.raises(ToleranceAmbiguity):
        comp.classify_endpoint(profile, 0.0)


# -- infinite range ---------------------------------------------------------------------------


def test_tail_converges_and_matches_asymptote():
    params = fixtures.skrp_fixture("koiso-m2-tail")
    analysis = comp.infinite_range_test(params)
    assert analysis.cls is EC.INFINITE_RANGE_CONVERGENT
    assert analysis.integral.converged
    u1 = 1.0  # 1 / (f_start - c), f_start = max(lo, c) + 1 on I = (0, inf)
    us = np.geomspace(0.5 * u1, max(2e-3, 0.01 * u1), 12)
    ratios = [comp.tail_log_integrand(params, u) - oracles.tail_log_asymptote(params, u) for u in us]
    # log-ratio settles to a constant: measured / asymptote -> positive limit
    assert abs(ratios[-1] - ratios[-2]) < 1e-3
    limit = math.exp(ratios[-1])
    assert math.isfinite(limit) and limit > 0


def test_tail_asymptote_exponent_pair_m2():
    params = fixtures.skrp_fixture("koiso-m2-tail")
    u = 0.05
    # exp((-1/(m-1) - 1/2)/u) * u^{-((m-1)/2 + 2)}: coefficients -3/2 and -5/2.
    expected = -1.5 / u - 2.5 * math.log(u)
    assert oracles.tail_log_asymptote(params, u) == pytest.approx(expected, rel=1e-14)


def test_tail_log_integrand_consistent_with_direct_evaluation():
    params = fixtures.skrp_fixture("koiso-m2-tail")
    for u in (0.2, 0.05, 0.01):
        f = params.c + 1.0 / u
        direct = math.log(comp.arc_integrand(params, f)) + 2.0 * math.log(1.0 / u)
        assert comp.tail_log_integrand(params, u) == pytest.approx(direct, rel=1e-12)


def test_infinite_range_requires_unbounded_interval():
    with pytest.raises(DomainError):
        comp.infinite_range_test(fixtures.skrp_fixture("koiso-m2-compact"))


# -- verdicts ---------------------------------------------------------------------------------


def test_verdict_compact_extension():
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture("koiso-m2-compact"))
    assert verdict.lower.cls is EC.SMOOTH_CAP
    assert verdict.upper.cls is EC.SMOOTH_CAP
    assert verdict.overall is OV.COMPLETE_COMPACT_EXTENSION


def test_verdict_synthetic_simple_caps():
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture("synthetic-simple-caps"))
    assert verdict.overall is OV.COMPLETE_COMPACT_EXTENSION


def test_verdict_double_zero_complete():
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture("synthetic-double-zero"))
    assert verdict.lower.cls is EC.INFINITE_END
    assert verdict.upper.cls is EC.INFINITE_END
    assert verdict.overall is OV.COMPLETE


def test_verdict_exponential_tail_incomplete():
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture("koiso-m2-tail"))
    assert verdict.lower.cls is EC.SMOOTH_CAP
    assert verdict.upper.cls is EC.INFINITE_RANGE_CONVERGENT
    assert verdict.overall is OV.INCOMPLETE


def test_verdict_window_cut_is_inconclusive():
    params = skrp.SkrpParams(
        m=2, kappa=4.0, c=0.0, A=1.0, B=1.0, I=(0.5, math.inf), s=2, a=2.0, p=2.0, phi_sign=+1
    )
    verdict = comp.completeness_verdict(params)
    assert verdict.lower.cls is EC.INTERIOR
    assert verdict.overall is OV.INCONCLUSIVE_AT_END


def test_verdict_mixed_cap_and_infinite_end():
    profile = skrp.QProfile(
        q=lambda f: f * (1.0 - f) ** 2,
        dq=lambda f: (1.0 - f) ** 2 - 2.0 * f * (1.0 - f),
        interval=(0.0, 1.0),
        m=2,
    )
    verdict = comp.completeness_verdict(profile)
    assert verdict.lower.cls is EC.SMOOTH_CAP
    assert verdict.upper.cls is EC.INFINITE_END
    assert verdict.overall is OV.COMPLETE


def _completeness_classes(tmp_path, params, tag):
    """Exit code and the endpoint-class and verdict checks of ``completeness --config``."""
    doc = dataclasses.asdict(params)
    doc["I"] = [end if math.isfinite(end) else str(end) for end in params.I]
    config, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}-report.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["completeness", "--config", str(config), "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    return code, {c["name"]: (c["status"], c["measured"]) for c in checks if not c["name"].endswith("-exponent")}


def _scale_q(factor):
    # Scaling A, B and kappa scales Q and leaves its zeros put.  The zero
    # tolerance must scale with Q: an absolute floor reads a simple zero of a
    # tiny Q as a higher-order one (exit 3, ToleranceAmbiguity).
    return lambda p: dataclasses.replace(p, A=p.A * factor, B=p.B * factor, kappa=p.kappa * factor)


def _shift_c_and_interval(delta):
    # Q depends on f - c, so moving c and I together by delta moves Q with
    # them and scales the arc integrand by exp(-delta / (m - 1)).  At -7.5 on
    # koiso-m2-capped the located root of phi lies ulps past the zero of Q,
    # where Q < 0, so the verdict must not evaluate within ulps of that end.
    return lambda p: dataclasses.replace(p, c=p.c + delta, I=(p.I[0] + delta, p.I[1] + delta))


_Q_TRANSFORMS = {
    "1e-160": _scale_q(1e-160),
    "2^-520": _scale_q(2.0**-520),
    **{f"shift={delta:+g}": _shift_c_and_interval(delta) for delta in (-7.5, -1.0, 0.25, 3.0, 40.0)},
}


@pytest.mark.parametrize("transform", list(_Q_TRANSFORMS.values()), ids=list(_Q_TRANSFORMS))
@pytest.mark.parametrize("name", list(fixtures._SKRP))
def test_verdict_is_invariant_under_scaling_q(tmp_path, name, transform):
    # Each transform moves Q without changing the order of its zeros, so the
    # endpoint classes and the verdict must not change.
    params = fixtures.skrp_fixture(name)
    moved = _completeness_classes(tmp_path, transform(params), "moved")
    assert moved == _completeness_classes(tmp_path, params, "fixture")


@pytest.mark.parametrize("name", [*fixtures._SYNTHETIC_Q, *fixtures._SKRP])
def test_verdict_runs_one_quadrature_per_ladder_segment(name, monkeypatch):
    # A finite or +inf end has 8 decade segments, a -inf end 7 doubling
    # segments; a verdict integrates nothing else.
    calls = []
    quad_ = comp._quad

    def counting(fn, a, b, **kw):
        calls.append((a, b))
        return quad_(fn, a, b, **kw)

    monkeypatch.setattr(comp, "_quad", counting)
    verdict = comp.completeness_verdict(fixtures.q_profile_fixture(name))
    ends = (verdict.lower.endpoint, verdict.upper.endpoint)
    assert len(calls) == sum(7 if end == -math.inf else 8 for end in ends)


# -- u-substitution identity -------------------------------------------------------------------


@pytest.mark.parametrize("upper", [10.0, 1e3])
def test_u_substitution_identity_smooth_integrand(upper):
    integrand = lambda f: math.exp(-0.4 * f) / (1.0 + f * f)
    direct = quad(integrand, 1.0, upper, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    assert oracles.u_substituted_integral(integrand, 1.0, upper) == pytest.approx(direct, abs=1e-8)


def test_u_substitution_identity_arc_integrand():
    params = fixtures.skrp_fixture("koiso-m2-tail")
    integrand = lambda f: comp.arc_integrand(params, f)
    direct = quad(integrand, 1.0, 40.0, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    assert oracles.u_substituted_integral(integrand, 1.0, 40.0, c=params.c) == pytest.approx(direct, rel=1e-8)


# -- flow-length cross-check --------------------------------------------------------------------


def test_flow_length_matches_profile_integral(koiso_chart):
    f1, f2 = koiso_chart.fiber_level_range(margin=0.02)
    flow = comp.gradient_flow_length_crosscheck(koiso_chart, f1, f2)
    reduced = quad(
        lambda f: comp.arc_integrand(koiso_chart.params, f), f1, f2, epsabs=1e-13, epsrel=1e-12
    )[0]
    assert flow == pytest.approx(reduced, rel=1e-6)


@pytest.mark.parametrize("name", ["koiso-m3-A1B0", "koiso-m2-ball"])
def test_flow_length_matches_profile_integral_over_cp2_and_the_disc(name):
    chart = fixtures.calabi_fixture(name)
    f1, f2 = chart.fiber_level_range(margin=0.02)
    flow = comp.gradient_flow_length_crosscheck(chart, f1, f2)
    reduced = quad(lambda f: comp.arc_integrand(chart.params, f), f1, f2, epsabs=1e-14, epsrel=1e-13)[0]
    assert flow == pytest.approx(reduced, rel=1e-6)


@pytest.mark.parametrize("margin", [0.02, 0.05])
def test_flow_length_richardson_estimate_and_reduction_agree_to_1e_9(koiso_chart, margin):
    f1, f2 = koiso_chart.fiber_level_range(margin=margin)
    n = comp.FLOW_STEPS
    coarse = comp._rk4_flow_length(koiso_chart, f1, f2, n)
    fine = comp._rk4_flow_length(koiso_chart, f1, f2, 2 * n)
    flow = comp.gradient_flow_length_crosscheck(koiso_chart, f1, f2)
    assert flow == fine + (fine - coarse) / 15.0
    assert abs(fine - coarse) / 15.0 <= 1e-9 * flow
    reduced = quad(
        lambda f: comp.arc_integrand(koiso_chart.params, f), f1, f2, epsabs=1e-14, epsrel=1e-13
    )[0]
    assert abs(flow - reduced) <= 1e-9 * reduced


def test_flow_length_symmetric_and_zero(koiso_chart):
    f1, f2 = koiso_chart.fiber_level_range(margin=0.05)
    forward = comp.gradient_flow_length_crosscheck(koiso_chart, f1, f2)
    backward = comp.gradient_flow_length_crosscheck(koiso_chart, f2, f1)
    assert forward == pytest.approx(backward, rel=1e-12)
    assert comp.gradient_flow_length_crosscheck(koiso_chart, f1, f1) == 0.0


def test_flow_exits_domain(koiso_chart):
    lo, hi = koiso_chart.f_window
    with pytest.raises(DomainExit):
        comp.gradient_flow_length_crosscheck(koiso_chart, lo - 0.4, hi)


def test_lower_infinite_end_divergent():
    # Constant Q: the conformal factor grows toward -inf, infinite length.
    profile = skrp.QProfile(q=lambda f: 1.0, dq=lambda f: 0.0, interval=(-math.inf, 0.0), m=2)
    verdict = comp.completeness_verdict(profile)
    assert verdict.lower.cls is EC.INFINITE_RANGE_DIVERGENT
    assert verdict.upper.cls is EC.INTERIOR  # window edge with Q > 0
    assert verdict.overall is OV.INCONCLUSIVE_AT_END


def test_lower_infinite_end_convergent():
    # Q growing like exp(-4f) overwhelms the conformal factor: finite length.
    profile = skrp.QProfile(
        q=lambda f: math.exp(-4.0 * f), dq=lambda f: -4.0 * math.exp(-4.0 * f), interval=(-math.inf, 0.0), m=2
    )
    verdict = comp.completeness_verdict(profile)
    assert verdict.lower.cls is EC.INFINITE_RANGE_CONVERGENT
    # The integrand is e^f; the ladder ends at hi - 1 and reaches 64 below it.
    assert sum(verdict.lower.integral.increments) == pytest.approx(math.exp(-1.0) - math.exp(-65.0), rel=1e-10)


def test_lower_infinite_end_integrates_disjoint_segments(monkeypatch):
    # The -inf end's ladder integrates each doubling segment once: the
    # quadratures tile [f_end - 64, f_end] without overlap.
    params = skrp.SkrpParams(m=2, kappa=1.0, B=1.0, I=(-math.inf, -2.6))
    spans = []
    quad_ = comp._quad

    def recording(fn, a, b, **kw):
        spans.append((a, b))
        return quad_(fn, a, b, **kw)

    monkeypatch.setattr(comp, "_quad", recording)
    analysis = comp._infinite_lower_test(params, -3.6)
    assert analysis.cls is EC.INFINITE_RANGE_DIVERGENT
    spans.sort()
    assert spans[0][0] == -3.6 - 64.0 and spans[-1][1] == -3.6
    assert all(b == a_next for (_, b), (a_next, _) in zip(spans[:-1], spans[1:]))


def test_verdict_on_params_narrowed_next_to_the_pole():
    # I = (0, inf) with A + B != 0: the first Q-positive interval starts at the
    # pole margin above c and ends at a simple zero of phi.
    params = skrp.SkrpParams(m=2, kappa=3.0, A=1.0, I=(0.0, math.inf))
    verdict = comp.completeness_verdict(params)
    assert (verdict.lower.cls, verdict.upper.cls) == (EC.INTERIOR, EC.SMOOTH_CAP)
