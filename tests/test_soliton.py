"""Almost-soliton residuals, the conformal duality, and profile identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_lab import chart as ct
from soliton_lab import fixtures
from soliton_lab import soliton as sol
from soliton_lab.errors import (
    DimensionTooSmall,
    DomainError,
    EmptySample,
    NotASoliton,
)
from soliton_lab.sampling import sample_box

GAUSSIAN = fixtures.soliton_fixture("gaussian-soliton")
SPHERE_TRIVIAL = fixtures.soliton_fixture("sphere-trivial")
CUBIC = fixtures.soliton_fixture("non-soliton-cubic")


# -- extract_coefficient ---------------------------------------------------------


def test_gaussian_coefficient_and_residual():
    c, residual = sol.extract_coefficient(GAUSSIAN, [0.4, -0.2, 0.3])
    assert c == pytest.approx(1.0, abs=1e-13)
    assert residual == pytest.approx(0.0, abs=1e-13)


def test_cubic_not_an_almost_soliton():
    _, residual = sol.extract_coefficient(CUBIC, [0.4, -0.2, 0.3])
    assert residual > 0.01


def test_sphere_trivial_coefficient_is_n_minus_one():
    c, residual = sol.extract_coefficient(SPHERE_TRIVIAL, [0.2, 0.1, -0.3])
    assert c == pytest.approx(2.0, rel=1e-10)
    assert residual < 1e-10


# -- per-point geometry ------------------------------------------------------------


PAIR_FIXTURES = (
    "gaussian-soliton",
    "gaussian-soliton-n3",
    "gaussian-soliton-n4",
    "gaussian-soliton-n5",
    "sphere-trivial",
    "non-soliton-cubic",
    "koiso-m2-A1B0",
)


def _reference_quantities(pair, p):
    """Coefficient, residual, dual coefficients and Hamilton invariant at p,
    composed from the public chart functions (each evaluates the metric anew):
    lap f is the g^{-1}-trace of hess f and |grad f|^2 is df g^{-1} df."""
    n = pair.dim
    G = pair.metric.matrix(p)
    G_inv = ct.metric_inverse(G)
    hess_f = ct.hessian(pair.metric, pair.f, p)
    tensor = ct.ricci(pair.metric, p) + hess_f
    c = float(np.einsum("ij,ij->", G_inv, tensor)) / n
    residual = ct.tensor_gnorm(G_inv, tensor - c * G)
    f_val, df, _ = pair.f.evaluate(p)
    lap_f = float(np.einsum("ij,ij->", G_inv, hess_f))
    grad_sq = float(df @ G_inv @ df)
    closed = math.exp(4.0 * f_val / (n - 2)) * (c + 2.0 / (n - 2) * (lap_f - grad_sq))
    tau = math.exp(2.0 * f_val / (n - 2))
    tau1 = 2.0 / (n - 2) * tau
    tau2 = 4.0 / (n - 2) ** 2 * tau
    beta = (tau1 * lap_f + tau2 * grad_sq) / tau - (n - 1) * (tau1 * tau1 * grad_sq) / tau**2
    direct = tau * tau * (c + beta + tau1 / tau * grad_sq)
    hamilton = lap_f - grad_sq + 2.0 * c * f_val
    return c, residual, direct, closed, hamilton, grad_sq


@pytest.mark.parametrize("name", PAIR_FIXTURES)
def test_point_geometry_matches_public_functions_exactly(name):
    source = fixtures.soliton_fixture(name)
    for pair in (source, sol.dualize(source)):
        points = sample_box(pair.metric.domain, 3, seed=5)
        report = sol.residual_report(pair, points)
        for k, p in enumerate(points):
            c, residual, direct, closed, hamilton, grad_sq = _reference_quantities(pair, p)
            assert sol.extract_coefficient(pair, p) == (c, residual)
            assert (report.coefficients[k], report.residuals[k]) == (c, residual)
            assert report.grad_norms_sq[k] == grad_sq
            assert sol.hamilton_invariant(pair, c, p) == hamilton
            if residual > sol.SOLITON_RESIDUAL_TOL:
                with pytest.raises(NotASoliton):
                    sol.dual_coefficient(pair, p)
                continue
            assert sol.dual_coefficient(pair, p, "direct") == direct
            assert sol.dual_coefficient(pair, p, "closed") == closed


# -- classify -----------------------------------------------------------------------


def test_classification_of_reference_pairs():
    assert sol.classify(GAUSSIAN, 60) is sol.SolitonClass.GRADIENT_RICCI_SOLITON
    assert sol.classify(SPHERE_TRIVIAL, 60) is sol.SolitonClass.TRIVIAL
    assert sol.classify(CUBIC, 60) is sol.SolitonClass.NONE
    assert sol.classify(sol.dualize(GAUSSIAN), 60) is sol.SolitonClass.ALMOST_SOLITON


def test_classify_report_agrees_with_classify():
    for pair in (GAUSSIAN, SPHERE_TRIVIAL, CUBIC, sol.dualize(GAUSSIAN)):
        points = pair.sample(40)
        report = sol.residual_report(pair, points)
        assert sol.classify_report(report) is sol.classify(pair, points)


def test_classify_empty_sample():
    for sample in (np.empty((0, 3)), []):
        with pytest.raises(EmptySample):
            sol.classify(GAUSSIAN, sample)
        with pytest.raises(EmptySample):
            sol.residual_report(GAUSSIAN, sample)


def test_classify_zero_count_is_an_empty_sample():
    with pytest.raises(EmptySample):
        sol.classify(GAUSSIAN, 0)


# -- dualize -----------------------------------------------------------------------


def test_dual_metric_closed_form_gaussian():
    dual = sol.dualize(GAUSSIAN)
    p = np.array([0.4, -0.2, 0.3])
    expected = math.exp(-2.0 * float(p @ p)) * np.eye(3)
    np.testing.assert_allclose(dual.metric.matrix(p), expected, rtol=1e-14)
    assert dual.f(p) == -GAUSSIAN.f(p)


def test_dualize_identity_for_constant_potential():
    dual = sol.dualize(SPHERE_TRIVIAL)
    p = np.array([0.2, -0.1, 0.3])
    np.testing.assert_allclose(dual.metric.matrix(p), SPHERE_TRIVIAL.metric.matrix(p), rtol=1e-15)


def test_dualize_involution():
    double = sol.dualize(sol.dualize(GAUSSIAN))
    for p in sample_box(GAUSSIAN.metric.domain, 10):
        np.testing.assert_allclose(double.metric.matrix(p), GAUSSIAN.metric.matrix(p), rtol=1e-12)
        assert double.f(p) == pytest.approx(GAUSSIAN.f(p), abs=1e-14)


def test_pair_refuses_a_field_of_another_dimension():
    # The chunked evaluation would otherwise seed the field with the
    # metric's coordinates and only fail, if at all, far downstream.
    flat3 = fixtures.metric_fixture("euclidean3")
    with pytest.raises(ValueError, match="field dimension 4 does not match metric dimension 3"):
        sol.SolitonPair(flat3, ct.ScalarField.constant(0.0, 4))


def test_dualize_needs_dimension_above_two():
    flat2 = fixtures.metric_fixture("euclidean2")
    pair = sol.SolitonPair(flat2, ct.ScalarField.constant(0.0, 2))
    with pytest.raises(DimensionTooSmall):
        sol.dualize(pair)
    with pytest.raises(DimensionTooSmall):
        sol.dual_coefficient(pair, [0.0, 0.0])


def test_dual_pair_is_almost_soliton():
    dual = sol.dualize(GAUSSIAN)
    report = sol.residual_report(dual, GAUSSIAN.sample(60))
    assert report.max_residual < 1e-8
    assert report.coefficient_variation > 0.1  # genuinely almost, not genuine


# -- dual_coefficient ------------------------------------------------------------------


def test_dual_coefficient_spot_value_at_origin():
    # exp(0) * (1 + 2 * (3 - 0)) with unit coefficient and trace 3.
    assert sol.dual_coefficient(GAUSSIAN, np.zeros(3), "direct") == pytest.approx(7.0, abs=1e-12)
    assert sol.dual_coefficient(GAUSSIAN, np.zeros(3), "closed") == pytest.approx(7.0, abs=1e-12)


def test_dual_coefficient_trivial_potential_reduces_to_source():
    p = np.array([0.2, -0.1, 0.3])
    c, _ = sol.extract_coefficient(SPHERE_TRIVIAL, p)
    assert sol.dual_coefficient(SPHERE_TRIVIAL, p, "direct") == pytest.approx(c, rel=1e-12)


def test_dual_coefficient_methods_agree_and_match_extraction():
    dual = sol.dualize(GAUSSIAN)
    for p in sample_box(GAUSSIAN.metric.domain, 20):
        direct = sol.dual_coefficient(GAUSSIAN, p, "direct")
        closed = sol.dual_coefficient(GAUSSIAN, p, "closed")
        assert direct == pytest.approx(closed, rel=1e-10)
        extracted, _ = sol.extract_coefficient(dual, p)
        assert extracted == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("name", [n for n in PAIR_FIXTURES if n != "non-soliton-cubic"])
@pytest.mark.parametrize("method", ["direct", "closed"])
def test_dual_coefficient_reads_a_given_geometry_exactly(name, method):
    pair = fixtures.soliton_fixture(name)
    for p in sample_box(pair.metric.domain, 5, seed=61):
        given = sol.dual_coefficient(pair, p, method, geometry=pair.geometry(p))
        assert given == sol.dual_coefficient(pair, p, method)


def test_dual_coefficient_refuses_non_soliton_points():
    with pytest.raises(NotASoliton):
        sol.dual_coefficient(CUBIC, [0.4, 0.1, -0.2])


def test_dual_coefficient_unknown_method():
    with pytest.raises(ValueError):
        sol.dual_coefficient(GAUSSIAN, np.zeros(3), "mystery")


# -- hamilton invariant / steady obstruction ----------------------------------------------


def test_hamilton_invariant_gaussian_constant_three():
    for p in sample_box(GAUSSIAN.metric.domain, 10):
        assert sol.hamilton_invariant(GAUSSIAN, 1.0, p) == pytest.approx(3.0, abs=1e-12)


def test_hamilton_invariant_sphere_zero():
    for p in sample_box(SPHERE_TRIVIAL.metric.domain, 5):
        assert sol.hamilton_invariant(SPHERE_TRIVIAL, 2.0, p) == pytest.approx(0.0, abs=1e-10)


def test_hamilton_invariant_dual_not_constant():
    dual = sol.dualize(GAUSSIAN)
    points = sample_box(GAUSSIAN.metric.domain, 40)
    coeffs = [sol.extract_coefficient(dual, p)[0] for p in points]
    values = [sol.hamilton_invariant(dual, float(np.mean(coeffs)), p) for p in points]
    variation = (max(values) - min(values)) / (1.0 + max(abs(v) for v in values))
    assert variation > 0.1


# -- ricci_hessian_fit ---------------------------------------------------------------


def test_fit_degenerate_on_gaussian():
    fit = sol.ricci_hessian_fit(GAUSSIAN, [0.3, -0.2, 0.1])
    assert not fit.alpha_identifiable
    assert fit.residual < 1e-12


def test_fit_exact_but_trivial_on_ricci_flat_cubic():
    # Flat metric: ric = 0, so alpha = c = 0 fits exactly whatever f is.
    fit = sol.ricci_hessian_fit(CUBIC, [0.4, 0.1, -0.2])
    assert fit.residual < 1e-12
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)


def test_fit_detects_failure_on_non_einstein_pair():
    prod = fixtures.metric_fixture("sphere2xline")
    f = ct.ScalarField(lambda j: j[0] ** 3, 3, "x0^3")
    fit = sol.ricci_hessian_fit(sol.SolitonPair(prod, f), [0.4, 0.1, -0.2])
    assert fit.residual > 0.01


def test_fit_alpha_one_on_assembled_chart(koiso_chart):
    pair = sol.SolitonPair(koiso_chart.metric, koiso_chart.f_field)
    for p in sample_box(koiso_chart.domain, 5, seed=2):
        fit = sol.ricci_hessian_fit(pair, p)
        assert fit.alpha_identifiable
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)
        assert fit.residual < 1e-6


# -- profile identities ------------------------------------------------------------------


@given(st.floats(-2.0, 2.0), st.integers(3, 6))
@settings(max_examples=80, deadline=None)
def test_canonical_profile_zeroes_residuals(f, n):
    r1, r2 = sol.uniqueness_residuals(sol.canonical_profile(n), n, f)
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-12


def test_canonical_profile_constants_allowed():
    n = 4
    base = sol.canonical_profile(n)
    shifted = sol.ProfilePair(
        tau=ct.SmoothFunction1D(
            lambda f: 3.0 * base.tau.value(f),
            lambda f: 3.0 * base.tau.deriv(f),
            lambda f: 3.0 * base.tau.deriv2(f),
        ),
        k=ct.SmoothFunction1D(lambda f: -f + 5.0, lambda f: -1.0, lambda f: 0.0),
    )
    r1, r2 = sol.uniqueness_residuals(shifted, n, 0.7)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_wrong_exponent_profile_fails_for_off_dimension():
    tau = ct.SmoothFunction1D(math.exp, math.exp, math.exp)
    k = ct.SmoothFunction1D(lambda f: -f, lambda f: -1.0, lambda f: 0.0)
    profile = sol.ProfilePair(tau, k)
    # exp(f) is canonical exactly in dimension 4 and in no other.
    assert sol.uniqueness_residuals(profile, 4, 0.7) == pytest.approx((0.0, 0.0))
    r1, r2 = sol.uniqueness_residuals(profile, 5, 0.7)
    assert r1 == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_uniqueness_requires_positive_tau():
    tau = ct.SmoothFunction1D(lambda f: -1.0, lambda f: 0.0, lambda f: 0.0)
    k = ct.SmoothFunction1D(lambda f: -f, lambda f: -1.0, lambda f: 0.0)
    with pytest.raises(DomainError):
        sol.uniqueness_residuals(sol.ProfilePair(tau, k), 4, 0.0)

