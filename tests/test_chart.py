"""Curvature operators and conformal-change identities on reference charts."""

import inspect
import math

import numpy as np
import pytest

from soliton_lab import autodiff as ad
from soliton_lab import chart as ct
from soliton_lab import fixtures
from soliton_lab import soliton as sol
from soliton_lab.errors import DegenerateConformalFactor, DomainError, SingularMetric
from soliton_lab.sampling import Box, sample_box

import oracles

FLAT3 = fixtures.metric_fixture("euclidean3")
POLAR = fixtures.metric_fixture("polar2")
SPHERE2 = fixtures.metric_fixture("sphere2-stereo")
SPHERE3 = fixtures.metric_fixture("sphere3-stereo")
HYPERBOLIC = fixtures.metric_fixture("hyperbolic2")


def quadratic_field(dim, rate=1.0):
    def fn(jets):
        acc = jets[0] * jets[0]
        for j in jets[1:]:
            acc = acc + j * j
        return (0.5 * rate) * acc

    return ct.ScalarField(fn, dim)


# -- christoffel ----------------------------------------------------------------


def test_christoffel_flat_exactly_zero():
    for p in sample_box(FLAT3.domain, 5):
        assert np.max(np.abs(ct.christoffel(FLAT3, p))) == 0.0


def test_christoffel_polar_hand_values():
    gamma = ct.christoffel(POLAR, [2.0, 1.0])
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-13)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-13)
    assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-13)


def test_christoffel_conformal_flat_hand_values():
    # g = exp(2 x0) * delta in two dimensions.
    def comps(jets):
        conf = ad.jet_exp(2.0 * jets[0])
        zero = ad.constant(0.0, 2)
        return [[conf, zero], [zero, conf]]

    g = ct.MetricChart.from_jets(comps, 2, Box([-1, -1], [1, 1]))
    gamma = ct.christoffel(g, [0.0, 0.0])
    assert gamma[0, 0, 0] == pytest.approx(1.0, abs=1e-13)
    assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-13)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-13)


def test_christoffel_symmetric_in_lower_indices():
    for p in sample_box(SPHERE2.domain, 5):
        gamma = ct.christoffel(SPHERE2, p)
        np.testing.assert_array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_singular_metric_raises():
    def comps(jets):
        zero = ad.constant(0.0, 2)
        return [[jets[0], zero], [zero, ad.constant(1.0, 2)]]

    g = ct.MetricChart.from_jets(comps, 2, Box([-1, -1], [1, 1]))
    with pytest.raises(SingularMetric):
        ct.christoffel(g, [-0.5, 0.0])


def test_point_outside_domain_rejected():
    with pytest.raises(DomainError):
        ct.ricci(SPHERE2, [2.0, 0.0])


# -- ricci / scalar curvature ------------------------------------------------------


def test_ricci_flat_zero():
    for p in sample_box(FLAT3.domain, 4):
        assert np.max(np.abs(ct.ricci(FLAT3, p))) < 1e-13


def test_ricci_round_sphere_equals_metric():
    for p in sample_box(SPHERE2.domain, 8):
        ric = ct.ricci(SPHERE2, p)
        np.testing.assert_allclose(ric, SPHERE2.matrix(p), rtol=1e-9)


def test_ricci_hyperbolic_equals_minus_metric():
    for p in sample_box(HYPERBOLIC.domain, 8):
        np.testing.assert_allclose(ct.ricci(HYPERBOLIC, p), -HYPERBOLIC.matrix(p), rtol=1e-9, atol=1e-12)


def test_ricci_sphere3_einstein_constant():
    # Unit round 3-sphere: ric = (n-1) g = 2 g.
    p = np.array([0.2, -0.1, 0.4])
    np.testing.assert_allclose(ct.ricci(SPHERE3, p), 2.0 * SPHERE3.matrix(p), rtol=1e-9, atol=1e-12)


def _scalar_curvature(g, p):
    """R = trace_g ric, read off the point geometry of a constant field."""
    geo = ct.point_geometry(g, ct.ScalarField.constant(0.0, g.dim), p)
    return float(np.einsum("ij,ij->", geo.G_inv, geo.ric))


def test_scalar_curvature_values():
    assert _scalar_curvature(FLAT3, [0.1, 0.2, 0.3]) == pytest.approx(0.0, abs=1e-13)
    assert _scalar_curvature(SPHERE2, [0.3, -0.2]) == pytest.approx(2.0, rel=1e-10)
    product = fixtures.metric_fixture("sphere2xline")
    assert _scalar_curvature(product, [0.3, -0.2, 0.5]) == pytest.approx(2.0, rel=1e-10)


def test_ricci_output_symmetric():
    for p in sample_box(HYPERBOLIC.domain, 4):
        mat = ct.ricci(HYPERBOLIC, p)
        assert np.max(np.abs(mat - mat.T)) <= 1e-12 * max(1.0, np.max(np.abs(mat)))


# -- hessian, df, |grad f|^2 and lap f ------------------------------------------


def test_hessian_flat_quadratic_identity():
    f = quadratic_field(3)
    H = ct.hessian(FLAT3, f, [0.3, -0.4, 0.2])
    np.testing.assert_array_equal(H, np.eye(3))


def test_hessian_flat_linear_zero():
    f = ct.ScalarField(lambda jets: 2.0 * jets[0] - jets[2], 3)
    H = ct.hessian(FLAT3, f, [0.3, -0.4, 0.2])
    assert np.max(np.abs(H)) == 0.0


def test_hessian_polar_radial_function():
    f = ct.ScalarField(lambda jets: jets[0], 2, "r")
    H = ct.hessian(POLAR, f, [2.0, 0.7])
    np.testing.assert_allclose(H, [[0.0, 0.0], [0.0, 2.0]], atol=1e-13)


def test_gradient_and_norm():
    f = ct.ScalarField(lambda jets: jets[0], 3)
    geo = ct.point_geometry(FLAT3, f, [0.2, 0.1, -0.3])
    np.testing.assert_array_equal(geo.df, [1.0, 0.0, 0.0])
    assert geo.grad_sq == pytest.approx(1.0)


def test_laplacian_flat_quadratic_is_dimension():
    f = quadratic_field(3)
    assert ct.point_geometry(FLAT3, f, [0.1, 0.4, -0.2]).lap_f == pytest.approx(3.0)


def test_laplacian_two_forms_agree_on_curved_chart():
    f = ct.ScalarField(lambda jets: jets[0], 3)
    for p in sample_box(SPHERE3.domain, 6):
        trace_form = ct.point_geometry(SPHERE3, f, p).lap_f
        divergence_form = oracles.laplacian_divergence_form(SPHERE3, f, p)
        assert trace_form == pytest.approx(divergence_form, abs=1e-10)


# -- conformal identities -------------------------------------------------------------


def _random_conformal_fixture(dim, seed, curved=False):
    rng = np.random.default_rng(seed)
    base = fixtures.metric_fixture(f"sphere{dim}-stereo") if curved and dim == 3 else fixtures.metric_fixture(f"euclidean{dim}")
    lin = rng.uniform(-0.3, 0.3, dim)
    quad = rng.uniform(-0.2, 0.2, (dim, dim))
    quad = 0.5 * (quad + quad.T)

    def f_fn(jets):
        acc = ad.constant(0.0, dim)
        for i in range(dim):
            acc = acc + lin[i] * jets[i]
            for j in range(dim):
                acc = acc + quad[i, j] * jets[i] * jets[j]
        return acc

    f = ct.ScalarField(f_fn, dim, "random-poly")
    q1, q2 = rng.uniform(0.1, 0.4), rng.uniform(-0.15, 0.15)
    profile = ct.SmoothFunction1D(
        lambda y: math.exp(q1 * y + q2 * y * y),
        lambda y: (q1 + 2 * q2 * y) * math.exp(q1 * y + q2 * y * y),
        lambda y: ((q1 + 2 * q2 * y) ** 2 + 2 * q2) * math.exp(q1 * y + q2 * y * y),
    )
    tau = ct.compose_with_field(profile, f, "tau(f)")
    return base, tau, f


def test_conformal_hessian_trivial_factor():
    tau = ct.ScalarField.constant(1.0, 3)
    f = quadratic_field(3)
    assert ct.conformal_hessian_check(FLAT3, tau, f, [0.2, 0.1, -0.4]) == 0.0


def test_conformal_ricci_constant_factor():
    tau = ct.ScalarField.constant(2.0, 3)
    assert ct.conformal_ricci_check(SPHERE3, tau, [0.2, -0.3, 0.1]) < 1e-12


def test_conformal_checks_randomized():
    for seed, dim, curved in [(1, 3, False), (2, 3, True), (3, 4, False)]:
        g, tau, f = _random_conformal_fixture(dim, seed, curved)
        for p in sample_box(g.domain, 10, seed=seed):
            assert ct.conformal_hessian_check(g, tau, f, p) < 1e-9
            assert ct.conformal_ricci_check(g, tau, p) < 1e-9


def test_conformal_factor_from_potential_exponent():
    # tau = exp(2 f / (n-2)) with f = |x|^2 / 2: the duality's factor shape.
    n = 4
    f = quadratic_field(n)
    rate = 2.0 / (n - 2)
    profile = ct.SmoothFunction1D(
        lambda y: math.exp(rate * y),
        lambda y: rate * math.exp(rate * y),
        lambda y: rate * rate * math.exp(rate * y),
    )
    tau = ct.compose_with_field(profile, f)
    g = fixtures.metric_fixture("euclidean4")
    for p in sample_box(g.domain, 6):
        assert ct.conformal_hessian_check(g, tau, f, p) < 1e-9
        assert ct.conformal_ricci_check(g, tau, p) < 1e-9


def test_degenerate_conformal_factor():
    tau = ct.ScalarField(lambda jets: jets[0], 3)
    f = quadratic_field(3)
    origin_free = np.array([0.0, 0.3, 0.2])
    with pytest.raises(DegenerateConformalFactor):
        ct.conformal_hessian_check(FLAT3, tau, f, origin_free)
    with pytest.raises(DegenerateConformalFactor):
        ct.conformal_ricci_check(FLAT3, tau, origin_free)


# -- derivative engine self-test -------------------------------------------------------


def test_fields_match_finite_differences():
    g, tau, f = _random_conformal_fixture(3, 9, curved=True)
    for field in (tau, f):
        for p in sample_box(g.domain, 3, seed=5):
            val, grad, hess = field.evaluate(p)
            np.testing.assert_allclose(grad, oracles.fd_gradient(lambda q: field(q), p), rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(hess, oracles.fd_hessian(lambda q: field(q), p), rtol=1e-5, atol=1e-6)


def test_field_evaluation_deterministic():
    _, tau, _ = _random_conformal_fixture(3, 11)
    p = np.array([0.21, -0.34, 0.11])
    a = tau.evaluate(p)
    b = tau.evaluate(p)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_metric_component_derivatives_match_fd():
    for p in sample_box(SPHERE2.domain, 2, seed=3):
        G, dG, d2G = SPHERE2.components(p)
        for i in range(2):
            for j in range(2):
                comp = lambda q, i=i, j=j: SPHERE2.matrix(q)[i, j]
                np.testing.assert_allclose(dG[:, i, j], oracles.fd_gradient(comp, p), rtol=1e-6, atol=1e-8)
                np.testing.assert_allclose(d2G[:, :, i, j], oracles.fd_hessian(comp, p), rtol=1e-5, atol=1e-6)


# -- one jet engine: nested components and conformal scaling --------------------------


def _einsum_conformal_components(base, factor, p):
    """The hand-written second-order product rule for u * g: the oracle that
    conformal_scale's jet product must reproduce bit for bit."""
    G, dG, d2G = base.components(p)
    u, du, d2u = factor.evaluate(p)
    dGs = u * dG + np.einsum("k,ij->kij", du, G)
    d2Gs = (
        u * d2G
        + np.einsum("kl,ij->klij", d2u, G)
        + np.einsum("k,lij->klij", du, dG)
        + np.einsum("l,kij->klij", du, dG)
    )
    return u * G, dGs, d2Gs


def _assert_components_equal(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(fixtures._METRICS))
def test_conformal_scale_is_the_einsum_product_rule_bitwise(name):
    g = fixtures.metric_fixture(name)
    profile = ct.SmoothFunction1D(math.exp, math.exp, math.exp)
    factor = ct.compose_with_field(profile, quadratic_field(g.dim, rate=0.7))
    scaled = g.conformal_scale(factor)
    for p in sample_box(g.domain, 5, seed=13):
        _assert_components_equal(scaled.components(p), _einsum_conformal_components(g, factor, p))


@pytest.mark.parametrize("name", ["gaussian-soliton-n4", "koiso-m2-A1B0"])
def test_dual_metric_is_the_einsum_product_rule_bitwise(name):
    pair = fixtures.soliton_fixture(name)
    dual = sol.dualize(pair)
    factor = ct.compose_with_field(sol.dual_factor_profile(pair.dim), pair.f)
    for p in sample_box(pair.metric.domain, 5, seed=17):
        _assert_components_equal(dual.metric.components(p), _einsum_conformal_components(pair.metric, factor, p))


def _hand_stacked(nested, n):
    """An n x n nested sequence of jets/floats written into one (n, n) jet,
    with the batch axis of its entries where they have one."""
    entries = [[e if isinstance(e, ad.Jet) else ad.constant(float(e), n) for e in row] for row in nested]
    batch = np.broadcast_shapes(*(np.shape(e.val) for row in entries for e in row))
    val, grad, hess = np.empty((n, n) + batch), np.empty((n, n) + batch + (n,)), np.empty((n, n) + batch + (n, n))
    for i in range(n):
        for j in range(n):
            entry = entries[i][j]
            val[i, j], grad[i, j], hess[i, j] = entry.val, entry.grad, entry.hess
    return ad.Jet(val, grad, hess)


def _nested_component_fn(chart):
    """The component function a ``from_jets`` chart was built from."""
    return inspect.getclosurevars(chart._jet_fn).nonlocals["component_fn"]


def _fubini_study_nested(lambda_h: float) -> ct.MetricChart:
    """CP^1's metric lambda_h delta / (1 + |z|^2)^2, as nested components."""

    def comps(j):
        z1, z2 = j
        conf = lambda_h / (1.0 + z1 * z1 + z2 * z2) ** 2
        zero = ad.constant(0.0, 2)
        return [[conf, zero], [zero, conf]]

    return ct.MetricChart.from_jets(comps, 2, Box([-0.9, -0.9], [0.9, 0.9]), "fubini-study")


@pytest.mark.parametrize(
    "name", [*(name for name in sorted(fixtures._METRICS) if not name.startswith("euclidean")), "fubini-study"]
)
def test_nested_from_jets_equals_hand_stacked_jet_bitwise(name):
    g = _fubini_study_nested(1.3) if name == "fubini-study" else fixtures.metric_fixture(name)
    component_fn = _nested_component_fn(g)
    stacked = ct.MetricChart.from_jets(lambda jets: _hand_stacked(component_fn(jets), g.dim), g.dim, g.domain)
    for p in sample_box(g.domain, 4, seed=19):
        raw, hand = g._jet_fn(ad.seed(p)), stacked._jet_fn(ad.seed(p))
        for x, y in zip((raw.val, raw.grad, raw.hess), (hand.val, hand.grad, hand.hess)):
            assert np.array_equal(x, y)
        _assert_components_equal(g.components(p), stacked.components(p))


def test_constant_field_jet_is_a_constant_jet():
    jet = ct.ScalarField.constant(2.5, 3).jet(ad.seed([0.1, 0.2, 0.3]))
    assert jet.val == 2.5
    assert not jet.grad.any() and not jet.hess.any()
    assert jet.grad.shape == (3,) and jet.hess.shape == (3, 3)
