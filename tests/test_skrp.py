"""Closed-form profile family, fiber-norm map, and the 2m-dim chart assembly."""

import json
import math
import random
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_lab import autodiff as ad
from soliton_lab import chart as ct
from soliton_lab import cli, fibernorm, fixtures, profiles, quadpack, skrp
from soliton_lab import soliton as sol
from soliton_lab.errors import (
    CalibrationFailure,
    ConvergenceFailure,
    DomainError,
    DomainSplit,
    IntegrationFailure,
    NonpositiveQ,
    PoleError,
    SolitonLabError,
)
from soliton_lab.sampling import sample_box

import oracles
from test_snapshot_tool import _load_tool

FLATBASE = fixtures.skrp_fixture("koiso-m2-A1B0-flatbase")  # m=2, kappa=0, A=1, B=0


# -- phi_closed --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["m", "s", "kappa", "c", "A", "B", "a", "p"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_constants(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(FLATBASE, **{name: value})


def test_params_accept_infinite_interval_ends():
    assert replace(FLATBASE, I=(-math.inf, -0.5)).I[0] == -math.inf
    assert fixtures.skrp_fixture("koiso-m2-tail").I[1] == math.inf


def test_phi_constant_solution_value():
    params = skrp.SkrpParams(m=2, kappa=3.0, c=0.0, A=0.0, B=0.0, I=(0.5, 2.0))
    phi, dphi, d2phi = skrp.phi_closed(params, 1.3)
    assert phi == pytest.approx(-3.0 / 4.0)  # fixed-sign branch: -kappa/(2m)
    assert dphi == 0.0 and d2phi == 0.0


def test_phi_hand_values():
    phi, dphi, d2phi = skrp.phi_closed(FLATBASE, 1.0)
    assert phi == pytest.approx(2.5, abs=1e-14)  # 1/f^2 (1 + f + f^2/2) at f=1
    assert dphi == pytest.approx(-3.0, abs=1e-14)
    assert d2phi == pytest.approx(8.0, abs=1e-13)
    assert skrp.phi_closed(FLATBASE, 2.0)[0] == pytest.approx(1.25, abs=1e-14)

    pure_exp = skrp.SkrpParams(m=2, kappa=0.0, c=0.0, A=0.0, B=1.0, I=(0.3, 4.0))
    assert skrp.phi_closed(pure_exp, 1.0)[0] == pytest.approx(math.e, rel=1e-14)


def test_phi_without_remainder_term_far_out():
    # B = 0: the exp term drops out, so f far past exp's overflow stays finite.
    params = skrp.SkrpParams(m=2, kappa=4.0, c=0.0, A=1.0, B=0.0, I=(0.5, math.inf), phi_sign=+1)
    f = 800.0
    phi, dphi, d2phi = skrp.phi_closed(params, f)
    assert phi == pytest.approx((1.0 + f + f * f / 2.0) / f**2 + 1.0, rel=1e-14)
    assert dphi == pytest.approx(-2.0 / f**3 - 1.0 / f**2, rel=1e-14)
    assert math.isfinite(d2phi)


@pytest.mark.parametrize(
    "params,f",
    [
        (skrp.SkrpParams(m=2, B=1e308, I=(0.5, 3.0)), 1.0),
        (skrp.SkrpParams(m=2, A=-1e308, B=1e308, I=(0.5, 6.0)), 5.0),
    ],
    ids=["B-times-T", "head-cancels"],
)
def test_phi_refuses_a_product_that_overflows(params, f):
    # B * T or B * E overflows to inf without an OverflowError; phi_closed
    # refuses it, also where A + B = 0.
    with pytest.raises(DomainError, match="profile overflows float64"):
        skrp.phi_closed(params, f)


def test_phi_pole_error():
    params = skrp.SkrpParams(m=2, kappa=0.0, c=1.0, A=1.0, B=0.0, I=(1.001, 3.0))
    with pytest.raises(PoleError):
        skrp.phi_closed(params, 1.0)


def test_phi_regular_when_head_cancels():
    # A + B = 0 removes the pole; near f = c the series evaluation holds.
    params = fixtures.skrp_fixture("koiso-m2-compact")  # A=1, B=-1, kappa=4, sign +1
    phi, dphi, d2phi = skrp.phi_closed(params, 1e-9)
    assert phi == pytest.approx(1.0, abs=1e-8)  # kappa/(2m)
    assert dphi == pytest.approx(-1.0 / 6.0, abs=1e-9)  # B/(m+1)!
    assert d2phi == pytest.approx(-2.0 / 24.0, abs=1e-9)  # 2B/(m+2)!


def test_phi_derivatives_match_jets():
    # The hard-coded derivative formulas against dual-number differentiation
    # of the value channel.
    for f0 in (0.7, 1.9, 3.2):
        phi, dphi, d2phi = skrp.phi_closed(FLATBASE, f0)
        (fj,) = ad.seed([f0])
        expr = (fj**-2) * (1.0 + fj + 0.5 * fj * fj)
        assert expr.val == pytest.approx(phi, rel=1e-13)
        assert expr.grad[0] == pytest.approx(dphi, rel=1e-13)
        assert expr.hess[0, 0] == pytest.approx(d2phi, rel=1e-12)


def _mp_profile_terms(mp, m, x):
    """Exact (mpmath) monomials of the terms phi_closed sums at x, for phi,
    phi' and phi'': U = x^-m S_m(x) with A + B for |x| <= 1 or A beyond, and
    E = x^-m e^x with B beyond |x| = 1 or T = sum_{j>=1} x^j / (m+j)! within."""
    xm = mp.mpf(x)
    u = [[], [], []]
    for k in range(m + 1):
        e = k - m
        c = 1 / mp.factorial(k)
        u[0].append(c * xm**e)
        u[1].append(c * e * xm ** (e - 1))
        u[2].append(c * e * (e - 1) * xm ** (e - 2))
    if abs(x) > 1.0:
        ex = xm ** (-m) * mp.exp(xm)
        rest = [[ex], [ex, -m * ex / xm], [ex, -2 * m * ex / xm, m * (m + 1) * ex / xm**2]]
    else:
        rest = [[], [], []]
        for j in range(1, 60):
            c = 1 / mp.factorial(m + j)
            rest[0].append(c * xm**j)
            rest[1].append(c * j * xm ** (j - 1))
            rest[2].append(c * j * (j - 1) * xm ** (j - 2) if j >= 2 else mp.mpf(0))
    return u, rest


# x in [-700, 700], away from the pole and with both sides of |x| = 1.
_MP_GRID = sorted(
    {*np.linspace(-700.0, 700.0, 57).tolist(), -40.0, -20.0, -5.0, -1.5, -1.0, -0.6, -0.25, 0.3, 0.8, 1.0, 1.5, 5.0}
    - {0.0}
)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_phi_matches_mpmath_to_roundoff_of_its_terms(m):
    # |got - exact| <= 1e-15 times the summed magnitudes of the monomials of
    # the terms, for phi, phi' and phi''; below the pole no term may cancel
    # another (the subtracted exp remainder read up to 1e274 at x = -655).
    mp = pytest.importorskip("mpmath")
    coeffs = (0.0, 1.3, -0.7)
    with mp.workdps(40):
        for x in _MP_GRID:
            u, rest = _mp_profile_terms(mp, m, x)
            interval = (0.0, math.inf) if x > 0 else (-math.inf, 0.0)
            for A in coeffs:
                for B in coeffs:
                    u_coeff = A + B if abs(x) <= 1.0 else A
                    for kappa in (0.0, 2.5):
                        params = skrp.SkrpParams(m=m, kappa=kappa, A=A, B=B, I=interval)
                        got = skrp.phi_closed(params, x)
                        const = mp.mpf(-kappa) / (2 * m)
                        for k in range(3):
                            terms = [u_coeff * t for t in u[k]] + [B * t for t in rest[k]] + ([const] if k == 0 else [])
                            scale = float(sum(abs(t) for t in terms))
                            if scale < 1e-290:
                                continue
                            err = float(abs(got[k] - sum(terms))) / scale
                            assert err <= 1e-15, (x, A, B, kappa, k, got[k], err)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_phi_on_arrays_matches_mpmath_and_the_float_path(m):
    # The bound of the test above, entry by entry, for phi_closed of an array
    # holding the grid's negative or positive half; each entry also agrees
    # with the float path within it.
    mp = pytest.importorskip("mpmath")
    coeffs = (0.0, 1.3, -0.7)
    halves = [np.array([x for x in _MP_GRID if x < 0]), np.array([x for x in _MP_GRID if x > 0])]
    with mp.workdps(40):
        for xs in halves:
            exact = [_mp_profile_terms(mp, m, x) for x in xs.tolist()]
            interval = (0.0, math.inf) if xs[0] > 0 else (-math.inf, 0.0)
            for A in coeffs:
                for B in coeffs:
                    for kappa in (0.0, 2.5):
                        params = skrp.SkrpParams(m=m, kappa=kappa, A=A, B=B, I=interval)
                        got = skrp.phi_closed(params, xs)
                        const = mp.mpf(-kappa) / (2 * m)
                        for j, x in enumerate(xs.tolist()):
                            u, rest = exact[j]
                            u_coeff = A + B if abs(x) <= 1.0 else A
                            alone = skrp.phi_closed(params, x)
                            for k in range(3):
                                terms = [u_coeff * t for t in u[k]] + [B * t for t in rest[k]] + ([const] if k == 0 else [])
                                scale = float(sum(abs(t) for t in terms))
                                if scale < 1e-290:
                                    continue
                                err = float(abs(got[k][j] - sum(terms))) / scale
                                assert err <= 1e-15, (x, A, B, kappa, k, got[k][j], err)
                                assert abs(got[k][j] - alone[k]) <= 1e-15 * scale, (x, A, B, kappa, k)


@pytest.mark.parametrize(
    "params,fs",
    [
        (skrp.SkrpParams(m=2, A=1.0, I=(0.0, math.inf)), [0.5, 3.0, 1e-7, 2.0, -1e-8]),
        (skrp.SkrpParams(m=2, B=1.0, I=(1.0, math.inf)), [2.0, 720.0, 5.0, 800.0]),
        (skrp.SkrpParams(m=2, B=1e308, I=(0.5, 6.0)), [0.6, 1.0, 5.0]),
        (skrp.SkrpParams(m=200, A=1.0, B=1.0, I=(0.0, math.inf)), [700.0, 1e-9, 0.5]),
        (skrp.SkrpParams(m=200, B=1.0, I=(0.0, math.inf)), [700.0, 0.5, 1e-9]),  # 200! overflows
    ],
    ids=["pole", "exp-overflow", "B-times-T", "pole-before-overflow", "overflow-before-pole"],
)
def test_phi_on_an_array_raises_what_its_first_offending_entry_raises(params, fs):
    raised = []
    for f in fs:
        try:
            skrp.phi_closed(params, f)
        except (PoleError, DomainError) as exc:
            raised.append(exc)
    assert raised
    with pytest.raises(type(raised[0])) as batch:
        skrp.phi_closed(params, np.array(fs))
    assert str(batch.value) == str(raised[0])


@pytest.mark.parametrize(
    "I,c",
    [((0.5, 2.5), 0.0), ((-3.0, 7.0), 9.0), ((0.2, math.inf), 0.0), ((-math.inf, -4.0), 1.5), ((1.0, 1.0 + 1e-7), 1.0 - 1e-13),
     ((-math.inf, math.inf), 0.0)],
    ids=["bounded", "bounded-far-from-c", "half-infinite-above", "half-infinite-below", "pole-adjacent", "whole-line"],
)
def test_pole_margin_is_computed_once_with_the_formula(I, c):
    params = skrp.SkrpParams(m=2, kappa=1.0, c=c, A=0.0 if I[0] < c < I[1] else 1.0, I=I)
    lo, hi = I
    width = hi - lo if math.isfinite(hi) and math.isfinite(lo) else 1.0 + abs(c)
    gap = max(lo - c, c - hi)
    expected = skrp.POLE_MARGIN * width if gap <= 0.0 else min(skrp.POLE_MARGIN * width, gap)
    assert params.pole_margin == expected
    assert params.pole_margin is params.pole_margin  # kept, not recomputed


@pytest.mark.parametrize("f", [700.0, 650.0])
def test_exp_term_survives_the_underflow_of_its_power(f):
    # x^-200 underflows to 0 at x = 650 and 700, while E = x^-200 e^x is a
    # normal float near 1e-281 and 1e-265; the product read 0 there.
    mp = pytest.importorskip("mpmath")
    m = 200
    got = skrp.phi_closed(skrp.SkrpParams(m=m, B=1.0, I=(1.0, math.inf)), f)
    with mp.workdps(40):
        x = mp.mpf(f)
        e = x ** (-m) * mp.exp(x)
        r = 1 - m / x
        exact = (e, e * r, e * (r * r + m / x**2))
    # exp(x - m log x) carries the roundoff of its exponent, whose terms sum to x + m log x.
    bound = 1e-15 * (f + m * math.log(f))
    for k in range(3):
        assert got[k] != 0.0
        assert float(abs(got[k] - exact[k]) / exact[k]) <= bound, (k, got[k])


# -- profile ODE ---------------------------------------------------------------------


def _branch_fixture(m, kappa, A, B):
    lo = 0.05 if (A + B) != 0 else 0.0
    return skrp.SkrpParams(m=m, kappa=kappa, c=0.0, A=A, B=B, I=(lo, 12.0), phi_sign=+1)


FIXTURE_GRID = [
    _branch_fixture(m, kappa, A, B)
    for m in (2, 3)
    for kappa in (0.0, 1.0, -1.0)
    for (A, B) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
]


@pytest.mark.parametrize("params", FIXTURE_GRID, ids=lambda p: f"m{p.m}k{p.kappa:+g}A{p.A:g}B{p.B:g}")
def test_profile_ode_residual_vanishes_on_positive_intervals(params):
    intervals = skrp.q_domain(params)
    assert intervals, "fixture has no Q-positive interval"
    for lo, hi in intervals:
        lo = max(lo, params.c + 0.05)
        hi = min(hi, params.c + 12.0)
        if lo >= hi:
            continue
        for f in np.linspace(lo, hi, 200):
            assert abs(skrp.phi_ode_residual(params, 1.0, f)) < 1e-10


def test_profile_ode_residual_default_branch_negative_interval():
    params = fixtures.skrp_fixture("negative-branch")
    for f in np.linspace(-8.5, -2.7, 50):
        assert params.q(f) > 0
        assert abs(skrp.phi_ode_residual(params, 1.0, f)) < 1e-12


def test_profile_ode_residual_constant_solution():
    params = skrp.SkrpParams(m=2, kappa=1.0, c=0.0, A=0.0, B=0.0, I=(0.5, 2.0))
    # phi = -kappa/4 < 0, sgn(phi) = -1: -m phi + sgn(phi) kappa / 2 = 0.
    assert skrp.phi_ode_residual(params, 1.0, 1.2) == pytest.approx(0.0, abs=1e-16)


def test_profile_ode_residual_detects_perturbation():
    perturbed = ct.SmoothFunction1D(
        lambda f: skrp.phi_closed(FLATBASE, f)[0] + 0.01 * f,
        lambda f: skrp.phi_closed(FLATBASE, f)[1] + 0.01,
        lambda f: skrp.phi_closed(FLATBASE, f)[2],
    )
    assert abs(skrp.phi_ode_residual(FLATBASE, 1.0, 2.0, profile=perturbed)) > 1e-3


def test_hand_checked_residual_at_unit_argument():
    # f^2 phi'' + f (2 - f) phi' - 2 phi with phi = 1/f^2 + 1/f + 1/2.
    assert skrp.phi_ode_residual(FLATBASE, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


# -- ODE integrator oracle ---------------------------------------------------------------


def test_integrator_matches_closed_form():
    phi0, dphi0, _ = skrp.phi_closed(FLATBASE, 1.0)
    phi2, dphi2 = skrp.phi_ode_integrate(FLATBASE, 1.0, 1.0, phi0, dphi0, 2.0)
    assert phi2 == pytest.approx(1.25, rel=1e-6)
    assert dphi2 == pytest.approx(skrp.phi_closed(FLATBASE, 2.0)[1], rel=1e-6)


def test_integrator_zero_length():
    assert skrp.phi_ode_integrate(FLATBASE, 1.0, 1.0, 2.5, -3.0, 1.0) == (2.5, -3.0)


def test_integrator_constant_solution_stays_constant():
    params = skrp.SkrpParams(m=2, kappa=1.0, c=0.0, A=0.0, B=0.0, I=(0.5, 6.0))
    phi0 = -0.25
    phi, dphi = skrp.phi_ode_integrate(params, 1.0, 1.0, phi0, 0.0, 5.0)
    assert phi == pytest.approx(phi0, abs=1e-12)
    assert dphi == pytest.approx(0.0, abs=1e-12)


def test_integrator_keeps_its_accuracy_at_moderate_m():
    # phi = f^-30 e^f: its terms about f = 2 alternate and grow like
    # C(29 + k, k) (h / 2)^k.  Steps of |f - c| / 2 would cancel them down to
    # 7e-5; steps of |f - c| / m leave only float64's conditioning of this
    # decaying solution, about 1e-16 (3/2)^30 ~ 2e-11.
    params = skrp.SkrpParams(m=30, kappa=0.0, c=0.0, A=0.0, B=1.0, I=(1.0, 3.0), phi_sign=1)
    phi0, dphi0, _ = skrp.phi_closed(params, 2.0)
    phi, _ = skrp.phi_ode_integrate(params, 1.0, 2.0, phi0, dphi0, 3.0)
    phi_ref = skrp.phi_closed(params, 3.0)[0]
    assert abs(phi - phi_ref) <= 1e-9 * phi_ref


def test_integrator_fails_at_pole():
    with pytest.raises(IntegrationFailure):
        phi0, dphi0, _ = skrp.phi_closed(FLATBASE, 0.5)
        skrp.phi_ode_integrate(FLATBASE, 1.0, 0.5, phi0, dphi0, -0.5)


def test_integrator_refuses_past_its_call_budget(monkeypatch):
    # The budget is TAYLOR_TERM_CAP series terms.  At large m the steps
    # shrink to |f - c| / m; the cap turns a huge-m profile into an
    # IntegrationFailure (exit 3) instead of a hang.
    monkeypatch.setattr(profiles, "TAYLOR_TERM_CAP", 50)
    phi0, dphi0, _ = skrp.phi_closed(FLATBASE, 0.5)
    with pytest.raises(IntegrationFailure, match="needs more than 50 Taylor terms"):
        skrp.phi_ode_integrate(FLATBASE, 1.0, 0.5, phi0, dphi0, 4.0)


def test_integrator_refuses_a_step_across_a_sign_change_of_phi():
    # koiso-m2-compact's phi falls through 0 near f = 2.66; the forcing
    # -sgn(phi) kappa / 2 jumps there, so one step from 2 to 3 is refused.
    params = fixtures.skrp_fixture("koiso-m2-compact")
    phi0, dphi0, _ = skrp.phi_closed(params, 2.0)
    assert phi0 > 0 > skrp.phi_closed(params, 3.0)[0]
    with pytest.raises(IntegrationFailure, match="phi changes sign"):
        skrp.phi_ode_integrate(params, 1.0, 2.0, phi0, dphi0, 3.0)


def test_integrator_refuses_an_overflowing_term_at_once(monkeypatch):
    # At A = 1e300 the recurrence overflows in its first step.  numpy floats
    # (the ends np.linspace gives) are summed as Python floats, so no
    # RuntimeWarning is raised, and the first non-finite term ends the sum
    # long before the term cap.
    monkeypatch.setattr(profiles, "TAYLOR_TERM_CAP", 1000)
    params = skrp.SkrpParams(m=2, kappa=112.3, c=1.0, A=1e300, B=0.75, I=(1.1572, 1.1796))
    f0, f = np.linspace(1.157648, 1.160336, 2)
    phi0, dphi0, _ = skrp.phi_closed(params, f0)
    with pytest.raises(IntegrationFailure, match="is not finite past f = 1.157648$"):
        skrp.phi_ode_integrate(params, 1.0, f0, phi0, dphi0, f)


# -- soliton coefficient profile ------------------------------------------------------------


def test_coefficient_constant_and_frozen_value():
    # Regression value A/m! + phi_sign * kappa/(2m) = 1/2 for this fixture.
    c1 = skrp.soliton_coeff_profile(FLATBASE, 1.0, 1.0)
    c2 = skrp.soliton_coeff_profile(FLATBASE, 1.0, 2.0)
    assert c1 == pytest.approx(0.5, abs=1e-12)
    assert abs(c1 - c2) < 1e-12


def test_coefficient_constant_solution():
    params = skrp.SkrpParams(m=2, kappa=1.0, c=0.0, A=0.0, B=0.0, I=(0.5, 2.0))
    assert skrp.soliton_coeff_profile(params, 1.0, 1.1) == pytest.approx(-0.25)


def test_coefficient_breaks_off_unit_alpha():
    grid = np.linspace(0.6, 3.5, 50)
    values = [skrp.soliton_coeff_profile(FLATBASE, 1.1, f) for f in grid]
    assert max(values) - min(values) > 1e-3


# -- Q profile and domain ---------------------------------------------------------------


def test_q_value_from_phi():
    assert FLATBASE.q(1.0) == pytest.approx(5.0, abs=1e-13)


# Profiles beyond the fixtures for the float-Q kernel: m = 3, 7, 170 (the last
# finite factorial), 171 (T's m! overflows, so |f - c| <= 1 is refused with
# B != 0) and 10^5; A + B = 0 out to where e^(f - c) overflows, with
# phi(c) = -1 and so Q(c) = -0.0, A = 0 and B = 0; and m = 170 on
# [100, 700], where x^-m underflows and E is exp(x - m log|x|).
KERNEL_PARAMS = {
    "m3": skrp.SkrpParams(m=3, kappa=6.0, A=1.0, B=0.5, I=(0.0, math.inf), phi_sign=1),
    "m7": skrp.SkrpParams(m=7, kappa=1.0, A=-2.0, B=1.0, I=(-math.inf, 0.0)),
    "m170": skrp.SkrpParams(m=170, A=1.0, B=1.0, I=(0.0, math.inf)),
    "m171": skrp.SkrpParams(m=171, A=1.0, B=1.0, I=(0.0, math.inf)),
    "m1e5": skrp.SkrpParams(m=100_000, A=1.0, B=-0.5, I=(0.0, math.inf)),
    "A+B=0": skrp.SkrpParams(m=2, kappa=-4.0, A=1.0, B=-1.0, I=(-800.0, 800.0), phi_sign=1),
    "A=0": skrp.SkrpParams(m=4, kappa=-3.0, c=1.5, A=0.0, B=2.0, I=(1.5, math.inf)),
    "B=0": skrp.SkrpParams(m=5, kappa=2.0, c=-2.0, A=-1.0, B=0.0, I=(-math.inf, -2.0)),
    "tiny-power": skrp.SkrpParams(m=170, B=1.0, I=(100.0, 700.0)),
}


def _kernel_points(params):
    """5,000 f across I cut 40 past c, then 5,001 from c - 3 to c + 3, and
    c, c +- 1 and c +- the pole margin with the three floats on either side
    of each."""
    c = params.c
    lo, hi = profiles.bounded_interval(params.I, c, 40.0)
    points = profiles.linspace(lo, hi, 5000) + profiles.linspace(c - 3.0, c + 3.0, 5001)
    for centre in (c, c - 1.0, c + 1.0, c - params.pole_margin, c + params.pole_margin):
        below = above = centre
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            points += [below, above]
        points.append(centre)
    return points


def test_float_q_sums_phi_alone_with_the_bits_of_phi_closed():
    # Q of a float skips the derivative sums; its phi is the same float
    # operations as phi_closed's wherever phi_closed evaluates: on both
    # |f - c| branches, with B = 0, with A + B = 0, and through E's
    # exp(x - m log|x|) where x^-m underflows.
    branches = set()
    for params in (*fixtures._SKRP.values(), *KERNEL_PARAMS.values()):
        evaluated = 0
        for k, f in enumerate(_kernel_points(params)):
            try:
                phi = skrp.phi_closed(params, f)[0]
            except (PoleError, DomainError):
                # Nowhere on a fixture's I; the refusals elsewhere are
                # test_float_q_refuses_where_phi_closed_refuses_phi's.
                assert k >= 5000 or params in KERNEL_PARAMS.values(), (params, f)
                continue
            assert params.q(f).hex() == (2.0 * (f - params.c) * phi).hex(), (params, f)
            x = f - params.c
            branches.add((abs(x) > 1.0, params.B == 0.0, params.A + params.B == 0.0,
                          abs(x) > 1.0 and abs(x ** -params.m) < sys.float_info.min))
            evaluated += 1
        assert evaluated >= 5000, params
    assert {(far, b0) for far, b0, _, _ in branches} >= {(True, True), (False, True)}
    assert {(far, cancels) for far, _, cancels, _ in branches} >= {(True, True), (False, True)}
    assert any(tiny for *_, tiny in branches)


@pytest.mark.parametrize(
    "params",
    [
        skrp.SkrpParams(m=2, kappa=112.3, c=1.0, A=1e300, B=0.75, I=(1.1572, 1.1796)),
        skrp.SkrpParams(m=2, B=-1.0, a=2.0, I=(-12.5, -12.0)),
        skrp.SkrpParams(m=2, B=1e308, I=(0.5, 3.0)),
        *KERNEL_PARAMS.values(),
    ],
    ids=["profile-ode-overflow", "ell-quadrature-roundoff", "B-1e308", *KERNEL_PARAMS],
)
def test_float_q_refuses_where_phi_closed_refuses_phi(params):
    # The snapshot's overflow configs and the kernel's profiles, from 3 past
    # the pole to 3 beyond it, across I and at the points of _kernel_points:
    # PoleError at the pole, DomainError where phi is not finite.
    # phi_closed also refuses where only phi' or phi'' is not finite, which Q
    # never reads; there Q is summed from phi alone.  Where a derivative
    # term raised OverflowError, phi_closed's float sums end at inf, and
    # phi alone is read from the array path, which overflows term by term.
    refused = 0
    c = params.c
    for f in _kernel_points(params):
        try:
            phi = skrp.phi_closed(params, f)[0]
        except (PoleError, DomainError) as exc:
            x = f - c
            if isinstance(exc, DomainError):
                sums = profiles._term_sums(params, x, abs(x) > 1.0)
                with np.errstate(all="ignore"):
                    alone = np.ravel(profiles._term_sums(params, np.array([x]), abs(x) > 1.0)[0])[0]
                if math.isfinite(sums[0]):
                    assert params.q(f) == 2.0 * x * sums[0]
                    continue
                if math.isfinite(alone):
                    assert params.q(f) == pytest.approx(2.0 * x * alone, rel=1e-13)
                    continue
            refused += 1
            with pytest.raises(type(exc)) as alone:
                params.q(f)
            assert str(alone.value) == str(exc)
        else:
            assert params.q(f).hex() == (2.0 * (f - c) * phi).hex()
    assert refused >= 1


def test_float_int_and_numpy_scalar_give_the_same_q():
    # Every integer in c +- 3 and across I cut 40 past c, including f = c,
    # where Q is a signed zero wherever the profile is regular there.
    signs_of_zero = set()
    for params in (*fixtures._SKRP.values(), *KERNEL_PARAMS.values()):
        lo, hi = profiles.bounded_interval(params.I, params.c, 40.0)
        for k in range(math.ceil(min(lo, params.c - 3.0)), math.floor(max(hi, params.c + 3.0)) + 1):
            results = []
            for f in (float(k), k, np.float64(k)):
                try:
                    results.append(float(params.q(f)).hex())
                except (PoleError, DomainError) as exc:
                    results.append(type(exc))  # its message quotes f as given
            assert results[0] == results[1] == results[2], (params, k)
            if results[0] in ("0x0.0p+0", "-0x0.0p+0"):
                signs_of_zero.add(results[0])
    assert signs_of_zero == {"0x0.0p+0", "-0x0.0p+0"}


def test_one_params_builds_its_float_q_kernel_once(monkeypatch):
    builds = []
    build = profiles._q_kernel
    monkeypatch.setattr(profiles, "_q_kernel", lambda params: builds.append(params) or build(params))
    params = replace(fixtures.skrp_fixture("koiso-m2-compact"))
    for f in profiles.linspace(0.1, 5.0, 100):
        params.q(f)
    params.q(2)
    params.q(np.float64(2.0))
    assert builds == [params]
    twin = replace(params)
    twin.q(1.0)
    assert len(builds) == 2 and builds[1] is twin


def test_float_q_is_finite_where_only_the_derivatives_of_phi_overflow():
    # U = x^-2 + x^-1 + 1/2 is finite at x = 1.5e-80, but U'' = 6 x^-4 + 2 x^-3
    # overflows there: phi_closed refuses the point and Q, which reads phi
    # alone, does not.
    params = skrp.SkrpParams(m=2, A=1.0, I=(1e-80, 2e-80))
    x = 1.5e-80
    with pytest.raises(DomainError, match="profile overflows float64"):
        skrp.phi_closed(params, x)
    assert params.q(x) == 2.0 * x * (x**-2 + x**-1 + 0.5)
    assert math.isfinite(params.q(x))


@pytest.mark.parametrize("name", list(fixtures._SKRP))
def test_params_are_the_q_profile(name):
    # SkrpParams carries the QProfile interface: Q = 2 f_c phi, Q' its
    # derivative, and interval = I.
    params = fixtures.skrp_fixture(name)
    assert params.interval == params.I
    lo, hi = skrp.q_domain(params)[0]
    f = 0.5 * (lo + min(hi, lo + 2.0))
    phi, dphi, _ = skrp.phi_closed(params, f)
    assert params.q(f) == 2.0 * (f - params.c) * phi
    assert params.dq(f) == 2.0 * phi + 2.0 * (f - params.c) * dphi
    h = 1e-5
    assert params.dq(f) == pytest.approx((params.q(f + h) - params.q(f - h)) / (2 * h), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("kappa", [3.0, 4.0])
def test_params_narrowed_to_a_q_interval_evaluate_at_its_ends(kappa):
    # On an unbounded I the pole margin is 1e-6 (1 + |c|); narrowing I to the
    # first Q-positive interval, which starts that far above the pole, must
    # not widen the margin past the interval's own end.
    params = skrp.SkrpParams(m=2, kappa=kappa, A=1.0, I=(0.0, math.inf))
    lo, hi = skrp.q_domain(params)[0]
    narrowed = replace(params, I=(lo, hi))
    assert narrowed.pole_margin <= lo - params.c
    assert narrowed.q(lo) == params.q(lo)


def test_q_negative_for_mismatched_signs():
    # f_c < 0 with positive phi is excluded from the positivity domain.
    params = skrp.SkrpParams(m=2, kappa=0.0, c=0.0, A=1.0, B=0.0, I=(-4.0, -0.1))
    assert params.q(-1.0) < 0
    assert skrp.q_domain(params) == []


def test_q_domain_positive_constant_solution():
    params = skrp.SkrpParams(m=2, kappa=-2.0, c=0.0, A=0.0, B=0.0, I=(0.1, 3.0))
    # phi = -kappa/4 = 1/2 > 0, so Q > 0 exactly on f > c.
    assert params.q(1.0) == pytest.approx(1.0)
    assert skrp.q_domain(params) == [(0.1, 3.0)]


def test_q_domain_compact_interval_edges():
    params = fixtures.skrp_fixture("koiso-m2-compact")
    ((lo, hi),) = skrp.q_domain(params)
    assert lo == 0.0
    assert params.q(hi + 1e-8) < 0 < params.q(hi - 1e-8)


@pytest.mark.parametrize("interval", [(-3.0, 3.0), (-math.inf, math.inf)], ids=["finite", "whole-line"])
def test_q_domain_regular_zero_at_c_is_one_edge(interval):
    # A + B = 0: the profile is regular at c = 0 and Q changes sign there.  A
    # root bracketed across c must not add a second edge beside it.
    params = replace(fixtures.skrp_fixture("koiso-m2-compact"), I=interval)
    intervals = skrp.q_domain(params)
    assert intervals[0][0] == 0.0
    assert min(hi - lo for lo, hi in intervals) > 1e-12


@pytest.mark.parametrize(
    "params,expected",
    [
        (skrp.SkrpParams(m=2, kappa=4.0, A=-1.0, B=1.0, I=(100.0, math.inf), s=2, a=2.0, p=2.0, phi_sign=1),
         [(100.0, math.inf)]),
        (skrp.SkrpParams(m=2, kappa=1.0, A=0.0, B=1.0, I=(-math.inf, -70.0), phi_sign=-1),
         [(-math.inf, -70.0)]),
    ],
    ids=["lower-end-past-c+60", "upper-end-past-c-60"],
)
def test_q_domain_scans_past_a_far_finite_end(params, expected):
    # Q > 0 on all of I; the default scan window c +- 60 misses it, so the
    # unbounded end is scanned 60 units past the finite one instead.
    assert skrp.q_domain(params) == expected


# Scales of A, B and kappa that leave the zeros of Q put but make the
# product of two neighbouring values of Q underflow near a zero.
TINY_SCALES = (1e-160, 2.0**-520)


def _scaled(params, scale):
    return replace(params, A=params.A * scale, B=params.B * scale, kappa=params.kappa * scale)


def _profile_params(tmp_path):
    """Every profile fixture and snapshot config, as parsed by the CLI."""
    found = dict(fixtures._SKRP)
    for name, doc in _load_tool().CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        try:
            found[f"config-{name}"] = cli._parse_config_file(str(path))[1]
        except ValueError:
            continue  # a config the CLI refuses has no Q-positive interval to check
    return found


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


def test_q_domain_ends_on_the_sign_change(tmp_path):
    # An end where Q changes sign is the last float with Q >= 0: the next
    # float outward has Q <= 0.  The ends of I, c and the pole margin's ends
    # are cuts of the scan, not roots of Q.
    checked, violations = 0, []
    for name, params in _profile_params(tmp_path).items():
        for scale in (1.0, *TINY_SCALES):
            scaled = _scaled(params, scale)
            c, margin = scaled.c, scaled.pole_margin
            for lo, hi in skrp.q_domain(scaled):
                for end, outward in ((lo, -math.inf), (hi, math.inf)):
                    assert type(end) is float
                    if end in (*scaled.I, c, c - margin, c + margin):
                        continue
                    checked += 1
                    if not scaled.q(end) >= 0.0 >= scaled.q(math.nextafter(end, outward)):
                        violations.append((name, scale, end))
    assert checked >= 22
    assert violations == []


def test_q_domain_float_scan_gives_the_array_scan_bit_for_bit(tmp_path):
    # The scan evaluates Q in the Python floats it is bisected on.  Where Q
    # of numpy's array path differs from it in the last bit, the signs must
    # still agree: every profile fixture and snapshot config, at every
    # scale, gets the intervals of the array scan on numpy's grid, or the
    # same refusal.
    for name, params in _profile_params(tmp_path).items():
        for scale in (1.0, *TINY_SCALES):
            scaled = _scaled(params, scale)
            outcomes = []
            for scan in (skrp.q_domain, oracles.q_domain_array_scan):
                try:
                    outcomes.append(repr(scan(scaled)))
                except SolitonLabError as exc:
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            assert outcomes[0] == outcomes[1], (name, scale)


def test_linspace_is_numpy_linspace_bit_for_bit():
    # q_domain's scan grid and completeness' Q scale come from it.
    rng = random.Random(5)
    for _ in range(300):
        start = rng.uniform(-100.0, 100.0) * 10.0 ** rng.uniform(-5.0, 5.0)
        stop = start + rng.uniform(0.0, 100.0) * 10.0 ** rng.uniform(-12.0, 5.0)
        for num in (2, 9, 64, 2048):
            assert repr(profiles.linspace(start, stop, num)) == repr(np.linspace(start, stop, num).tolist())
    assert profiles.linspace(0.0, 5e-324, 3) == np.linspace(0.0, 5e-324, 3).tolist()


@pytest.mark.parametrize(
    "q",
    [
        lambda x: 1.0 if x >= 0.0 else -1.0,  # Q(0.0) > 0: 0.0 itself is the end
        lambda x: 1.0 if x > 0.0 else -1.0,  # Q(0.0) < 0: the smallest subnormal is
        lambda x: -1.0 if x > 0.0 else 1.0,
    ],
    ids=["up-at-zero", "up-past-zero", "down-past-zero"],
)
@pytest.mark.parametrize("a, b", [(-1.0, 0.7), (0.7, -1.0), (-3.0, 1.0)])
def test_sign_change_straddling_zero_ends_on_adjacent_floats(q, a, b):
    # Bisection toward 0.0 halves through ~1,075 subnormal exponents; it
    # must stop there, on the last float with Q >= 0.
    calls = []
    end = skrp._sign_change(lambda x: calls.append(x) or q(x), a, b)
    outward = math.inf if q(math.inf) < 0 else -math.inf
    assert q(end) > 0 > q(math.nextafter(end, outward))
    assert abs(end) <= 5e-324
    assert len(calls) < 1200


def test_sign_change_returns_an_exact_zero():
    assert skrp._sign_change(lambda x: 1e-300 * x, 1.0, -3.0) == 0.0
    assert skrp._sign_change(lambda x: 0.25 - x, -1.0, 1.0) == 0.25


def test_sign_change_midpoint_does_not_overflow():
    end = skrp._sign_change(lambda x: 1e300 - x, -1.7e308, 1.7e308)
    assert end == 1e300


def test_sign_change_nan_raises_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        skrp._sign_change(lambda x: math.nan if 0.0 < x < 1.0 else 1.0 - x, -1.0, 2.5)


@pytest.mark.parametrize(
    "params,expected",
    [
        (fixtures.skrp_fixture("koiso-m2-A1B0"), ((0.5, 2.5), (0.5, 2.5))),
        (fixtures.skrp_fixture("koiso-m2-tail"), ((0.0, math.inf), (0.05, 12.0))),
        (fixtures.skrp_fixture("negative-branch"), ((-9.0, -2.6), (-9.0, -2.6))),
        (skrp.SkrpParams(m=2, kappa=2.0, I=(-math.inf, -0.01)),  # phi = -1/2, Q = -f
         ((-math.inf, -0.01), (-math.inf, -0.05))),
        (replace(fixtures.skrp_fixture("koiso-m2-tail"), I=(0.02, 0.04)), ((0.02, 0.04), (0.05, 0.04))),
    ],
    ids=["inside-band", "tail-past-c+12", "below-pole", "below-pole-unbounded", "empty-band"],
)
def test_working_interval_is_the_first_q_interval_and_its_band(params, expected):
    # The band keeps |f - c| > 0.05, and f - c < 12 above the pole; it may be
    # empty, and below the pole it keeps an unbounded end.
    assert skrp.working_interval(params) == expected


def test_working_interval_of_a_profile_positive_nowhere_is_none():
    assert skrp.working_interval(skrp.SkrpParams(m=2, kappa=0.0, A=1.0, I=(-4.0, -0.1))) is None


# -- fiber-norm map ----------------------------------------------------------------------


def test_ell_map_constant_q_closed_form():
    profile = skrp.QProfile(q=lambda f: 3.0, dq=lambda f: 0.0, interval=(-2.0, 2.0), m=2, a=1.0)
    ell = skrp.EllMap(profile, 0.0, profile.interval)
    for f in (-1.5, -0.3, 0.9, 1.7):
        assert ell.ell(f) == pytest.approx(math.exp(f / 3.0), rel=1e-12)
    doubled = skrp.EllMap(replace(profile, a=2.0), 0.0, profile.interval)
    assert doubled.log_ell(1.2) == pytest.approx(2.0 * ell.log_ell(1.2), rel=1e-12)


@given(st.floats(0.9, 2.1))
@settings(max_examples=40, deadline=None)
def test_ell_map_round_trip(f):
    ell = _shared_ell()
    assert ell.f_of_ell(ell.ell(f)) == pytest.approx(f, abs=1e-10)


_ELL_CACHE = {}


def _shared_ell():
    if "ell" not in _ELL_CACHE:
        _ELL_CACHE["ell"] = skrp.EllMap(FLATBASE, 1.5, (0.8, 2.2))
    return _ELL_CACHE["ell"]


def test_ell_map_monotone():
    ell = _shared_ell()
    values = [ell.ell(f) for f in np.linspace(0.85, 2.15, 40)]
    assert all(b > a for a, b in zip(values[:-1], values[1:]))
    assert all(v > 0 for v in values)


def test_ell_map_inversion_raises_without_convergence(monkeypatch):
    ell = skrp.EllMap(FLATBASE, 1.5, (0.8, 2.2))
    first_steps = quadpack.first_steps
    flip = iter(np.tile([1e-6, -1e-6], 100))  # a jittering residual Newton cannot settle

    def jittered(*args, **kwargs):
        value, abserr, done = first_steps(*args, **kwargs)
        return value + next(flip), abserr, done

    monkeypatch.setattr(quadpack, "first_steps", jittered)
    with pytest.raises(ConvergenceFailure, match=r"log ell = 0\.1 did not converge in 60 Newton steps \(last f = "):
        ell.f_of_log_ell(0.1)


def test_ell_map_rejects_sign_change():
    params = fixtures.skrp_fixture("koiso-m2-compact")
    with pytest.raises(DomainSplit):
        skrp.EllMap(params, 2.0, (1.0, 4.0))  # Q zero at ~2.656 inside


@pytest.mark.parametrize(
    "q,ier",
    [
        (lambda f: 1.0 + 1e-3 * np.sin(1e7 * f), 1),  # oscillates past QAG's subinterval limit
        (lambda f: 1e-9 + np.abs(f - 0.7318) ** 0.5, 3),  # a cusp between grid nodes
    ],
    ids=["oscillating", "cusp"],
)
def test_ell_map_quadrature_missing_its_tolerance_raises(q, ier):
    profile = skrp.QProfile(q=q, dq=lambda f: 0.0, interval=(0.0, 1.0), m=2)
    with pytest.raises(IntegrationFailure, match=f"ier = {ier},"):
        skrp.EllMap(profile, 0.5, profile.interval)


def test_ell_map_zero_of_q_at_a_quadrature_node_is_a_domain_split():
    # Q = 0 at 0.3001, between grid nodes but on a node of the quadrature.
    profile = skrp.QProfile(q=lambda f: np.sqrt(np.abs(f - 0.3001)), dq=lambda f: 0.0, interval=(0.0, 1.0), m=2)
    with pytest.raises(DomainSplit, match="at f = 0.3001"):
        skrp.EllMap(profile, 0.5, profile.interval)


# -- chart assembly -------------------------------------------------------------------------


def test_assembly_calibration_picks_unit_ratio(koiso_chart):
    # (a s) / (p^2 lambda_h) = 1 with these constants, and the 2-form closes
    # on the points the assembly checks.
    params = koiso_chart.params
    assert params.a == pytest.approx(params.p**2 * koiso_chart.lambda_h / params.s)
    J = koiso_chart.complex_structure
    closedness = max(
        skrp.kahler_closedness_residual(koiso_chart.metric, J, p)
        for p in sample_box(koiso_chart.domain, 12, seed=7)
    )
    assert closedness < 1e-12


def test_assembly_builds_one_ell_map(monkeypatch):
    builds = []
    init = skrp.EllMap.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(skrp.EllMap, "__init__", counting_init)
    skrp.assemble_calabi_metric(fixtures.skrp_fixture("koiso-m2-A1B0"))
    assert len(builds) == 1


def test_assembly_refuses_constants_off_the_closedness_relation():
    # a = -2 gives a s / (p^2 lambda_h) = -1; the chart is built as given and
    # refused, never rebuilt with another a.
    params = replace(fixtures.skrp_fixture("koiso-m2-A1B0"), a=-2.0)
    with pytest.raises(CalibrationFailure, match=r"lambda_h\) = -1 "):
        skrp.assemble_calabi_metric(params)


def test_assembly_window_of_a1b0_is_unchanged(koiso_chart):
    # The working interval of koiso-m2-A1B0 is exactly its I = (0.5, 2.5), so
    # the middle-70% window and the padded fiber-norm bounds keep their bits.
    assert koiso_chart.f_window == (0.8, 2.2)
    assert koiso_chart.ell.bounds == (0.772, 2.228)


@pytest.mark.parametrize("name", ["koiso-m2-compact", "koiso-m2-tail", "koiso-m2-capped", "koiso-m2-A1B0-flatbase"])
def test_assembly_builds_every_positive_profile_fixture(name):
    params = fixtures.skrp_fixture(name)
    chart = skrp.assemble_calabi_metric(params, name=name)
    (lo, hi), (band_lo, band_hi) = skrp.working_interval(params)
    assert max(lo, band_lo) < chart.f_window[0] < chart.f_window[1] < min(hi, band_hi)
    pair = sol.SolitonPair(chart.metric, chart.f_field, name)
    points = sample_box(chart.domain, 100, seed=0)
    for checked in (pair, sol.dualize(pair)):
        assert sol.residual_report(checked, points).max_residual < sol.SOLITON_RESIDUAL_TOL


@pytest.mark.parametrize("name", ["negative-branch"])
def test_assembly_refuses_fixtures_off_the_calibration(name):
    # negative-branch misses a s = p^2 lambda_h.
    with pytest.raises(CalibrationFailure):
        skrp.assemble_calabi_metric(fixtures.skrp_fixture(name))


@pytest.mark.parametrize(
    "params, error",
    [
        (replace(fixtures.skrp_fixture("koiso-m2-A1B0"), I=(-4.0, -0.1)), NonpositiveQ),
        (skrp.SkrpParams(m=2, kappa=2.0, I=(-math.inf, -0.5)), DomainError),
        (replace(fixtures.skrp_fixture("koiso-m2-tail"), I=(0.02, 0.04)), DomainError),
    ],
    ids=["no-q-interval", "unbounded-band", "empty-band"],
)
def test_assembly_refuses_a_profile_without_a_finite_band(params, error):
    with pytest.raises(error):
        skrp.assemble_calabi_metric(params)


def test_assembly_postconditions(koiso_chart):
    J = koiso_chart.complex_structure
    np.testing.assert_array_equal(J @ J, -np.eye(4))
    for p in sample_box(koiso_chart.domain, 20, seed=13):
        assert skrp.hermitian_metric_residual(koiso_chart.metric, J, p) < 1e-10
        assert skrp.kahler_closedness_residual(koiso_chart.metric, J, p) < 1e-8
        assert skrp.gradient_soliton_residual(koiso_chart, p) < 1e-6
        assert skrp.killing_residual(koiso_chart, p) < 1e-6


def test_assembly_metric_positive_definite(koiso_chart):
    for p in sample_box(koiso_chart.domain, 10, seed=17):
        eigs = np.linalg.eigvalsh(koiso_chart.metric.matrix(p))
        assert eigs.min() > 0


def test_vertical_block_on_central_fiber(koiso_chart):
    # Over z = 0 the fiber direction carries Q / (p ell)^2 * h_L * |dw|^2
    # with h_L = 1 there, i.e. Q / (p^2 w^2) for real positive w.
    params = koiso_chart.params
    w = 0.5 * (koiso_chart.domain.lo[2] + koiso_chart.domain.hi[2])
    p = np.array([0.0, 0.0, w, 0.0])
    f_val = koiso_chart.f_field(p)
    expected = params.q(f_val) / (params.p**2 * w * w)
    G = koiso_chart.metric.matrix(p)
    assert G[2, 2] == pytest.approx(expected, rel=1e-12)
    assert G[3, 3] == pytest.approx(expected, rel=1e-12)
    # Horizontal block over z = 0: 2 |f_c| lambda_h.
    assert G[0, 0] == pytest.approx(2.0 * abs(f_val - params.c) * koiso_chart.lambda_h, rel=1e-12)


def test_potential_gradient_norm_matches_profile(koiso_chart):
    for p in sample_box(koiso_chart.domain, 6, seed=23):
        f_val = koiso_chart.f_field(p)
        grad_sq = ct.point_geometry(koiso_chart.metric, koiso_chart.f_field, p).grad_sq
        assert grad_sq == pytest.approx(koiso_chart.params.q(f_val), rel=1e-10)


def test_potential_never_critical_in_chart(koiso_chart):
    for p in sample_box(koiso_chart.domain, 10, seed=29):
        assert ct.point_geometry(koiso_chart.metric, koiso_chart.f_field, p).grad_sq > 0.1


def test_assembled_pair_classifies_as_soliton(koiso_chart):
    pair = sol.SolitonPair(koiso_chart.metric, koiso_chart.f_field, "koiso")
    points = sample_box(koiso_chart.domain, 24, seed=31)
    assert sol.classify(pair, points) is sol.SolitonClass.GRADIENT_RICCI_SOLITON
    report = sol.residual_report(pair, points)
    assert report.max_residual < 1e-10
    assert abs(report.coefficients[0] - koiso_chart.coefficient()) < 1e-9


def test_dual_of_assembled_pair_is_almost_soliton(koiso_chart):
    pair = sol.SolitonPair(koiso_chart.metric, koiso_chart.f_field, "koiso")
    dual = sol.dualize(pair)
    points = sample_box(koiso_chart.domain, 16, seed=37)
    report = sol.residual_report(dual, points)
    assert report.max_residual < 1e-8
    assert sol.classify(dual, points) is sol.SolitonClass.ALMOST_SOLITON


def test_dual_metric_direct_matches_conformal_scaling(koiso_chart):
    direct = skrp.dual_metric_direct(koiso_chart)
    pair = sol.SolitonPair(koiso_chart.metric, koiso_chart.f_field)
    scaled = sol.dualize(pair).metric
    for p in sample_box(koiso_chart.domain, 8, seed=41):
        np.testing.assert_allclose(direct.matrix(p), scaled.matrix(p), rtol=0, atol=1e-10)


def test_dual_factor_exponent_in_dimension_four(koiso_chart):
    # n = 2m = 4 means the conformal factor is exp(-2 f).
    p = sample_box(koiso_chart.domain, 1, seed=43)[0]
    f_val = koiso_chart.f_field(p)
    direct = skrp.dual_metric_direct(koiso_chart).matrix(p)
    np.testing.assert_allclose(
        direct, math.exp(-2.0 * f_val) * koiso_chart.metric.matrix(p), rtol=1e-12
    )


def test_hermitian_hessian_residual_flat_reference():
    # hess f is J-invariant exactly where J grad f is a Killing field, which
    # killing_residual measures.
    flat4 = fixtures.metric_fixture("euclidean4")
    f_quad = ct.ScalarField(
        lambda j: 0.5 * (j[0] * j[0] + j[1] * j[1] + j[2] * j[2] + j[3] * j[3]), 4
    )
    chart = _fake_chart(flat4, f_quad)
    p = np.array([0.3, -0.2, 0.4, 0.1])
    assert skrp.killing_residual(chart, p) == pytest.approx(0.0, abs=1e-14)
    f_cubic = ct.ScalarField(lambda j: j[0] ** 3, 4)
    assert skrp.killing_residual(_fake_chart(flat4, f_cubic), p) > 0.1


def _fake_chart(metric, f_field):
    class _Shim:
        pass

    shim = _Shim()
    shim.metric = metric
    shim.f_field = f_field
    shim.complex_structure = skrp._quarter_turn(np.eye(4), 4)
    return shim


def test_assembly_builds_the_ball_and_refuses_it_off_the_calibration():
    # Over the unit disc lambda_h = 2m / |kappa| = 1 at kappa = -4, so
    # a s = p^2 lambda_h holds; at kappa = -1 it reads 1/4.
    params = fixtures.skrp_fixture("koiso-m2-ball")
    assert skrp.assemble_calabi_metric(params).lambda_h == 1.0
    with pytest.raises(CalibrationFailure, match=r"not closed: .* lambda_h\) = 0.25 "):
        skrp.assemble_calabi_metric(replace(params, kappa=-1.0))


# The base of each (m, kappa): CP^{m-1}, C^{m-1} or the unit ball.
_BASES = [(3, 6.0), (4, 8.0), (2, 0.0), (3, 0.0), (2, -4.0), (3, -6.0)]


@pytest.mark.parametrize("m, kappa", _BASES, ids=[f"m{m}-kappa{kappa:g}" for m, kappa in _BASES])
def test_assembly_builds_every_base(m, kappa):
    params = replace(fixtures.skrp_fixture("koiso-m2-A1B0"), m=m, kappa=kappa)
    chart = skrp.assemble_calabi_metric(params)
    n = 2 * m
    J = chart.complex_structure
    assert chart.metric.dim == chart.f_field.dim == chart.domain.dim == n
    assert chart.lambda_h == 1.0
    np.testing.assert_array_equal(J @ J, -np.eye(n))
    for p in sample_box(chart.domain, 4, seed=13):
        assert skrp.kahler_closedness_residual(chart.metric, J, p) < skrp.CLOSEDNESS_TOL
        assert skrp.hermitian_metric_residual(chart.metric, J, p) < skrp.HERMITIAN_TOL
        assert skrp.gradient_soliton_residual(chart, p) < sol.SOLITON_RESIDUAL_TOL
        assert skrp.killing_residual(chart, p) < 1e-10
    # ric(h) = kappa h on the base, here at points of its own box.
    base = skrp._base_chart(params, chart.lambda_h)
    for z in sample_box(base.domain, 4, seed=5):
        residual = ct.ricci(base, z) - kappa * base.matrix(z)
        assert np.max(np.abs(residual)) < skrp.BASE_NORMALIZATION_TOL


def test_assembly_detects_miscalibrated_constant():
    params = replace(fixtures.skrp_fixture("koiso-m2-A1B0"), a=3.7)
    with pytest.raises(CalibrationFailure):
        skrp.assemble_calabi_metric(params)


def test_potential_field_matches_finite_differences(koiso_chart):
    # The potential is defined through a quadrature inversion; its reported
    # derivatives still have to agree with differencing the value channel.
    f_field = koiso_chart.f_field
    for p in sample_box(koiso_chart.domain, 3, seed=47):
        _, grad, hess = f_field.evaluate(p)
        np.testing.assert_allclose(grad, oracles.fd_gradient(lambda q: f_field(q), p), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(hess, oracles.fd_hessian(lambda q: f_field(q), p), rtol=1e-5, atol=1e-5)


def test_ell_map_decreasing_direction():
    # Negative a reverses monotonicity; inversion must still round-trip.
    profile = skrp.QProfile(q=lambda f: 3.0, dq=lambda f: 0.0, interval=(-2.0, 2.0), m=2, a=-1.0)
    ell = skrp.EllMap(profile, 0.0, profile.interval)
    assert ell.ell(1.5) == pytest.approx(math.exp(-0.5), rel=1e-12)
    for f in (-1.5, -0.2, 0.4, 1.9):
        assert ell.f_of_ell(ell.ell(f)) == pytest.approx(f, abs=1e-10)


def test_ell_map_thousand_round_trips():
    ell = _shared_ell()
    worst = 0.0
    for f in np.linspace(0.85, 2.15, 1000):
        worst = max(worst, abs(ell.f_of_ell(ell.ell(float(f))) - f))
    assert worst < 1e-10


def _skrp_ell_column(name, monkeypatch):
    """The fiber-norm map `skrp --fixture NAME` builds, its f grid and its
    200-point ell column."""
    maps, build = [], fibernorm.EllMap
    monkeypatch.setattr(fibernorm, "EllMap", lambda *args: maps.append(build(*args)) or maps[-1])
    _, rows = cli.cmd_skrp(cli.RunConfig("skrp", fixture=name)).tables[".profile.csv"]
    monkeypatch.undo()
    (ell,) = maps
    return ell, [row[0] for row in rows], [row[4] for row in rows]


def _assert_ell_matches_the_scalar_path(ell, grid, column):
    # The float table against one batched Kronrod pass over its segments.
    table = oracles.ell_table(ell)
    assert np.all(np.abs(np.array(ell._t_nodes) - table) <= 1e-15 * np.abs(table))
    assert len(column) == 200
    # Each entry is its segment's table entry plus one float quad, exp
    # through libm; against the batched table it agrees to 1e-15.
    segments = np.clip(np.searchsorted(ell._grid, grid) - 1, 0, len(ell._grid) - 2).tolist()
    ends = [(k, ell._quad(ell._grid[k], f)) for k, f in zip(segments, grid)]
    assert column == [math.exp(ell._t_nodes[k] + t) for k, t in ends]
    batched = np.array([math.exp(table[k] + t) for k, t in ends])
    assert np.all(np.abs(np.array(column) - batched) <= 1e-15 * batched)
    for f, value in zip(grid, column):
        single = ell.ell(f)
        assert type(single) is float
        assert single.hex() == value.hex()


@pytest.mark.parametrize("name", sorted(fixtures._SKRP))
def test_skrp_ell_table_and_column_match_the_scalar_quadratures(name, monkeypatch):
    _assert_ell_matches_the_scalar_path(*_skrp_ell_column(name, monkeypatch))


def test_chart_ell_table_and_column_match_the_scalar_quadratures(koiso_chart):
    grid = np.linspace(*koiso_chart.f_window, 200).tolist()
    _assert_ell_matches_the_scalar_path(koiso_chart.ell, grid, [koiso_chart.ell.ell(f) for f in grid])


def test_skrp_integrates_on_floats_and_the_chart_inverts_in_batches(monkeypatch):
    lanes, quads = [], []
    first_steps, quad = quadpack.first_steps, quadpack.quad
    monkeypatch.setattr(quadpack, "first_steps", lambda f, a, b, **kw: lanes.append(len(a)) or first_steps(f, a, b, **kw))
    monkeypatch.setattr(quadpack, "quad", lambda *args, **kw: quads.append(args) or quad(*args, **kw))
    calls, q = [], profiles.SkrpParams.q
    monkeypatch.setattr(profiles.SkrpParams, "q", lambda self, f: calls.append(f) or q(self, f))
    cli.cmd_skrp(cli.RunConfig("skrp", fixture="koiso-m2-A1B0"))
    # 256 segments and the anchor's partial one, then the 200-point column.
    assert lanes == []
    assert len(quads) == 257 + 200
    # Q of a float, pinned: q_domain's scan and bisections, the fiber-norm
    # table and column and the profile checks; the 200 CSV rows take Q
    # from their phi_closed.
    assert len(calls) == 11_882
    assert all(type(f) is float for f in calls)
    # The assembly inverts its 12 closedness points as one chunk, then its 6
    # check points, each chunk settled by one batched Newton step.
    skrp.assemble_calabi_metric(fixtures.skrp_fixture("koiso-m2-A1B0"))
    assert lanes == [12, 6]



# -- the tensor-valued metric block and the one-quadrature inversion ---------------------


def _entrywise_metric_fn(params, core, lambda_h, fc_sign, conformal_rate=0.0):
    """The metric block written entry by entry with scalar jets: the oracle
    for the (4, 4)-valued jet expression of skrp._metric_components_fn."""
    s = float(params.s)
    inv_p2 = 1.0 / params.p**2

    def comps(jets):
        z1, z2, w1, w2 = jets
        one_pz = 1.0 + z1 * z1 + z2 * z2
        wsq = w1 * w1 + w2 * w2
        fj = core.f_jet(jets)
        phi_j = ad.lift_entrywise(fj, lambda f: skrp.phi_closed(params, f))
        x = fj - params.c
        pre = 2.0 * x * phi_j * inv_p2
        base = (2.0 * fc_sign) * x * (lambda_h * one_pz**-2)
        if conformal_rate != 0.0:
            scale = ad.jet_exp(conformal_rate * fj)
            pre = pre * scale
            base = base * scale
        inv_o = one_pz**-1
        inv_r = wsq**-1
        d = [s * z1 * inv_o, s * z2 * inv_o, w1 * inv_r, w2 * inv_r]
        sg = [(-s) * z2 * inv_o, s * z1 * inv_o, (-1.0) * w2 * inv_r, w1 * inv_r]
        G = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                entry = pre * (d[i] * d[j] + sg[i] * sg[j])
                if i == j and i < 2:
                    entry = entry + base
                G[i][j] = G[j][i] = entry
        return G

    return comps


@pytest.mark.parametrize("conformal_rate", [0.0, -2.0], ids=["base", "dual-direct"])
def test_tensor_metric_block_matches_entrywise_oracle(koiso_chart, conformal_rate):
    chart = koiso_chart
    core = skrp._PotentialCore(chart.params, chart.ell)
    args = (chart.params, core, chart.lambda_h, chart.fc_sign, conformal_rate)
    tensor = ct.MetricChart.from_jets(skrp._metric_components_fn(*args), 4, chart.domain)
    oracle = ct.MetricChart.from_jets(_entrywise_metric_fn(*args), 4, chart.domain)
    if conformal_rate:
        direct = skrp.dual_metric_direct(chart)
        p = chart.domain.lo + 0.5 * (chart.domain.hi - chart.domain.lo)
        assert all(np.array_equal(a, b) for a, b in zip(direct.components(p), tensor.components(p)))
    for p in sample_box(chart.domain, 200, seed=53):
        for new, old in zip(tensor.components(p), oracle.components(p)):
            assert np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))


def test_ell_inversion_costs_one_quadrature(koiso_chart, monkeypatch):
    ell = koiso_chart.ell
    targets = [ell.log_ell(f) for f in np.linspace(*koiso_chart.f_window, 200)]
    # 21-point Kronrod steps: one per lane of first_steps, one per _qk21 of quad.
    steps = []
    first_steps, qk21 = quadpack.first_steps, quadpack._qk21
    monkeypatch.setattr(quadpack, "first_steps", lambda f, a, b, **kw: steps.extend(a) or first_steps(f, a, b, **kw))
    monkeypatch.setattr(quadpack, "_qk21", lambda *args: steps.append(None) or qk21(*args))
    hermite = [ell.f_of_log_ell(t) for t in targets]
    assert len(steps) <= 1.05 * len(targets)
    # Non-finite node slopes force the linear start of the bracket, which
    # takes more Newton steps to the same fixed point.
    monkeypatch.setattr(ell, "_node_slopes", ([math.nan] * 257, [math.nan] * 257))
    del steps[:]
    linear = [ell.f_of_log_ell(t) for t in targets]
    assert len(steps) > 2 * len(targets)
    for a, b in zip(hermite, linear):
        assert abs(a - b) <= 1e-15 * abs(b)


def _report_log_ells(chart):
    """The t values of `verify --fixture koiso-m2-A1B0 --samples 800` (seed 0)."""
    core = skrp._PotentialCore(chart.params, chart.ell)
    return core.t_jet(ad.seed(sample_box(chart.domain, 800, seed=0))).val


def test_batched_inversion_equals_the_float_path_on_the_800_point_report(koiso_chart):
    # Inverted a chunk at a time, and one by one by Newton's method on floats.
    ell = koiso_chart.ell
    t = _report_log_ells(koiso_chart)
    batched = np.concatenate([ell.f_of_log_ell(t[k : k + ct.CHUNK]) for k in range(0, len(t), ct.CHUNK)])
    alone = np.array([oracles.ell_inverse(ell, v) for v in t.tolist()])
    assert np.all(np.abs(batched - alone) <= 1e-15 * np.abs(alone))


def test_float_inversion_is_a_batch_of_one(koiso_chart):
    ell = koiso_chart.ell
    for v in _report_log_ells(koiso_chart).tolist():
        f = ell.f_of_log_ell(v)
        assert type(f) is float
        assert f.hex() == ell.f_of_log_ell(np.array([v]))[0].hex()


def test_batched_inversion_hands_unfinished_entries_to_quad(koiso_chart, monkeypatch):
    ell = koiso_chart.ell
    t = np.array([ell.log_ell(f) for f in np.linspace(*koiso_chart.f_window, 6)])
    alone = [ell.f_of_log_ell(v) for v in t.tolist()]
    first_steps, quad = quadpack.first_steps, quadpack.quad

    def entry_2_goes_on(*args, **kwargs):
        value, abserr, done = first_steps(*args, **kwargs)
        return value, abserr, done & (np.arange(len(done)) != 2)

    monkeypatch.setattr(quadpack, "first_steps", entry_2_goes_on)
    ends = []
    monkeypatch.setattr(quadpack, "quad", lambda f, a, b, **kw: ends.append(b) or quad(f, a, b, **kw))
    batched = ell.f_of_log_ell(t)
    assert ends and all(math.isclose(b, alone[2], rel_tol=1e-12) for b in ends)
    assert batched.tolist() == alone
    # An entry out of range raises what inverting it alone raises.
    with pytest.raises(DomainError) as single:
        ell.f_of_log_ell(1e3)
    with pytest.raises(DomainError) as batch:
        ell.f_of_log_ell(np.array([t[0], 1e3, t[1]]))
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("side", ["source", "dual"])
def test_potential_inverts_each_chunk_with_one_call(side, monkeypatch):
    pair = fixtures.soliton_fixture("koiso-m2-A1B0")
    pair = sol.dualize(pair) if side == "dual" else pair
    shapes = []
    f_of_log_ell = skrp.EllMap.f_of_log_ell
    monkeypatch.setattr(skrp.EllMap, "f_of_log_ell", lambda self, t: shapes.append(np.shape(t)) or f_of_log_ell(self, t))
    sol.residual_report(pair, sample_box(pair.metric.domain, 2 * ct.CHUNK + 1, seed=71))
    assert shapes == [(ct.CHUNK,), (ct.CHUNK,), (1,)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ell_inversion_on_zero_width_brackets_never_yields_nan():
    # Far out on the koiso-m2-tail skrp window a / Q underflows against the
    # cumulative table, so consecutive table nodes are equal.
    params = fixtures.skrp_fixture("koiso-m2-tail")
    lo, _ = skrp.q_domain(params)[0]
    hi = params.c + 40.0
    window = (lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    ell = skrp.EllMap(params, 0.5 * sum(window), window)
    nodes = np.array(ell._t_nodes)
    flat = np.flatnonzero(np.diff(nodes) == 0.0)
    assert len(flat) > 0
    assert np.isnan(ell._hermite_starts(nodes[flat], flat)).all()
    for t in (*nodes[flat[0] - 3 :], nodes[-1] + 1e-13):
        try:
            f = ell.f_of_log_ell(float(t))
        except ConvergenceFailure:
            continue  # the inverse is ill-conditioned there, as before
        assert window[0] <= f <= window[1]


# -- the potential is evaluated once per point ---------------------------------------------


def test_potential_is_computed_once_per_point_geometry(monkeypatch):
    pair = fixtures.soliton_fixture("koiso-m2-A1B0")
    dual = sol.dualize(pair)
    calls = []
    t_jet = skrp._PotentialCore.t_jet
    monkeypatch.setattr(skrp._PotentialCore, "t_jet", lambda self, jets: calls.append(1) or t_jet(self, jets))
    points = sample_box(pair.metric.domain, 6, seed=59)
    for which in (pair, dual):
        calls.clear()
        for p in points:
            which.geometry(p)
        assert len(calls) == len(points)


def test_potential_core_last_point_jet_matches_a_fresh_core(koiso_chart):
    core = skrp._PotentialCore(koiso_chart.params, koiso_chart.ell)
    a, b = sample_box(koiso_chart.domain, 2, seed=61)
    for p in (a, b, a, a):
        kept = core.f_jet(ad.seed(p))
        fresh = skrp._PotentialCore(koiso_chart.params, koiso_chart.ell).f_jet(ad.seed(p))
        assert kept.val == fresh.val
        assert np.array_equal(kept.grad, fresh.grad)
        assert np.array_equal(kept.hess, fresh.hess)
