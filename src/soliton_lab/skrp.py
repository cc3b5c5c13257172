"""The explicit chart of the Calabi ansatz.

From a profile of :mod:`.profiles` (phi and Q(f) = 2 f_c phi(f), the
squared gradient norm of the potential) and its fiber-norm map ell(f) of
:mod:`.fibernorm`, solving (a/Q) df = d(log ell), the module builds the
explicit real 2m-dimensional chart of the metric on a power of the
tautological line bundle over a Kahler-Einstein base of complex dimension
m - 1 (E. Calabi, Ann. of Math. Stud. 102, 1982):

    g|_horizontal = 2 |f_c| pi^* h,    g|_vertical = Q(f) / (p ell)^2 Re<.,.>

with h the Fubini-Study metric of CP^{m-1}, the flat metric of C^{m-1} or
the Bergman metric of the unit ball as kappa is positive, zero or negative,
normalized to ric(h) = kappa h; the fiber Hermitian metric h_L = e^{s Phi},
Phi the base's Kahler potential; and the horizontal space the kernel of the
Chern-connection form.  The fundamental 2-form closes only when the
constants satisfy a s = p^2 lambda_h (lambda_h = 2m / |kappa|, and a s / p^2
on the flat base, where every scale has ric(h) = 0); the assembly builds the
chart from the constants as given and measures the closedness defect, so a
parameter set off that relation is refused, not corrected.

The profile layer's names (:class:`.profiles.SkrpParams`,
:func:`.profiles.phi_closed`, :func:`.profiles.q_domain` and the rest) and
the fiber-norm map (:class:`.fibernorm.EllMap`, :data:`.fibernorm.NEWTON_STEPS`)
are re-exported here as the same objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import chart as ct
from .errors import SOLITON_RESIDUAL_TOL, CalibrationFailure, DomainError, NonpositiveQ
from .fibernorm import NEWTON_STEPS, EllMap  # noqa: F401
from .profiles import (  # noqa: F401
    BAND_POLE_GAP,
    BAND_TAIL_REACH,
    POLE_MARGIN,
    QProfile,
    SkrpParams,
    _sign_change,
    bounded_interval,
    phi_closed,
    phi_ode_integrate,
    phi_ode_residual,
    q_domain,
    soliton_coeff_profile,
    working_interval,
)
from .sampling import Box, sample_box


def _lazy_module(name: str):
    """``sys.modules[name]``, registered to run on its first attribute read;
    ``None``, with nothing registered, when its package cannot be found.

    No command uses scipy, which only the ``test`` extra installs.  The one
    reader of the lazy ``scipy.integrate`` registered below is perfbench's
    tracer, which looks it up in ``sys.modules`` to wrap ``quad`` and
    ``solve_ivp``; both go once the benchmark stops doing that (ROADMAP
    item 1).  The module is bound directly, since ``from scipy import
    integrate`` would read its ``__spec__`` and so run it at once, and looked
    up in its package's directory, since ``find_spec`` of a dotted name
    imports the package (~20 ms).
    """
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec(name.partition(".")[0])
    if package is None:
        return None
    spec = importlib.machinery.PathFinder.find_spec(name, package.submodule_search_locations)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


integrate = _lazy_module("scipy.integrate")

__all__ = [
    "SkrpParams",
    "QProfile",
    "EllMap",
    "CalabiChart",
    "phi_closed",
    "phi_ode_residual",
    "phi_ode_integrate",
    "soliton_coeff_profile",
    "bounded_interval",
    "q_domain",
    "working_interval",
    "assemble_calabi_metric",
    "killing_residual",
    "kahler_closedness_residual",
    "hermitian_metric_residual",
    "dual_metric_direct",
]


# -- explicit chart assembly ---------------------------------------------------


def _quarter_turn(v, n: int):
    """J v along the first (length n) axis of an array or a jet v: J turns each
    coordinate pair (x, y) to (-y, x), exactly, since negation is exact."""
    return v[[k ^ 1 for k in range(n)]] * np.array([-1.0, 1.0] * (n // 2))[:, None]


def _base_sign(params: SkrpParams) -> float:
    """eps = sgn kappa: the base is CP^{m-1} (1), C^{m-1} (0) or the unit ball (-1)."""
    return math.copysign(1.0, params.kappa) if params.kappa else 0.0


def _base_o(z, eps: float):
    """o = 1 + eps |z|^2, summed from 1 a square at a time; the base's Kahler
    potential is Phi = log(o) / eps (|z|^2 at eps = 0)."""
    squares = (zi * zi for zi in z)
    return sum(squares if eps > 0 else (eps * sq for sq in squares), 1.0)


def _base_block(jets, base_dim: int, eps: float, scale):
    """scale (I + eps K) on the first ``base_dim`` coordinates (the base's z),
    0 on the rest: h = lambda_h (I + eps K) / o^2 with K = |z|^2 I - z z^T -
    Jz Jz^T.  K vanishes on a one-dimensional base, where z z^T + Jz Jz^T =
    |z|^2 I, so it is skipped there."""
    mask = np.array([1.0] * base_dim + [0.0] * (len(jets) - base_dim))
    horizontal = np.diag(mask)[..., None]
    block = scale * horizontal
    if eps == 0.0 or base_dim == 2:
        return block
    z = ad.stack(jets) * mask[:, None]
    jz = _quarter_turn(z, len(jets))
    k = sum(zi * zi for zi in jets[:base_dim]) * horizontal - (z[:, None] * z[None, :] + jz[:, None] * jz[None, :])
    return block + (eps * scale) * k


@dataclass(frozen=True)
class CalabiChart:
    """Assembled 2m-dimensional chart of a profile-family metric.

    Coordinates are (z_1 ... z_{2m-2}, w1, w2): z the affine base coordinate,
    w != 0 the fiber coordinate of the trivialized bundle power.  The
    potential field is f(log ell(z, w)) through the fiber-norm map.
    """

    params: SkrpParams
    metric: ct.MetricChart
    f_field: ct.ScalarField
    complex_structure: np.ndarray = field(repr=False)
    ell: EllMap = field(repr=False)
    lambda_h: float
    f_window: tuple[float, float]
    fc_sign: float
    name: str = ""

    @property
    def domain(self) -> Box:
        return self.metric.domain

    def coefficient(self) -> float:
        """Constant soliton coefficient of the assembled pair."""
        return soliton_coeff_profile(self.params, 1.0, 0.5 * sum(self.f_window))

    def fiber_level_range(self, margin: float = 0.01) -> tuple[float, float]:
        """Potential levels reachable along the fiber axis over z = 0.

        Flow curves stay on that axis, so this is the usable (f1, f2) range
        for in-chart arc-length integration.
        """
        f_a = self.ell.f_of_ell(self.domain.lo[-2] * (1.0 + margin))
        f_b = self.ell.f_of_ell(self.domain.hi[-2] * (1.0 - margin))
        return (f_a, f_b) if f_a < f_b else (f_b, f_a)


def _lift_batch(x: ad.Jet, jet_of: Callable[[np.ndarray], tuple]) -> ad.Jet:
    """:func:`.autodiff.lift_univariate` with the 2-jet ``jet_of(v) = (h(v),
    h'(v), h''(v))`` taken on all the values of ``x`` as one 1-D array; the
    value of a scalar jet is a batch of one."""
    shape = np.shape(x.val)
    return ad.lift_univariate(x, *(np.reshape(d, shape) for d in jet_of(np.atleast_1d(x.val))))


class _PotentialCore:
    """Shared closed-form scaffolding of the chart: t(z, w) and f(t) jets.

    The metric and every field built on the potential ask for f at the same
    points in turn, so :meth:`f_jet` keeps the last batch's jet, keyed on the
    shape and bits of the coordinates (the jets passed in are the coordinate
    jets of a point or of a batch of points).  Key and jet are one tuple, so
    a concurrent reader never pairs one batch with another batch's jet.
    A batch is inverted with one array call of :meth:`EllMap.f_of_log_ell`.
    """

    def __init__(self, params: SkrpParams, ell: EllMap):
        self.params = params
        self.ell = ell
        self.eps = _base_sign(params)
        self._last: tuple[tuple | None, ad.Jet | None] = (None, None)

    def t_jet(self, jets):
        """t = s Phi / 2 + log |w|^2 / 2, the log of the fiber norm."""
        z, (w1, w2) = jets[:-2], jets[-2:]
        s, eps = self.params.s, self.eps
        half_s_phi = 0.5 * s / eps * ad.jet_log(_base_o(z, eps)) if eps else 0.5 * s * sum(zi * zi for zi in z)
        return half_s_phi + 0.5 * ad.jet_log(w1 * w1 + w2 * w2)

    def f_jet(self, jets):
        coords = np.array([j.val for j in jets])
        key = (coords.shape, coords.tobytes())
        last_key, last_jet = self._last
        if last_key == key:
            return last_jet
        fj = _lift_batch(self.t_jet(jets), self._f_of_t)
        self._last = (key, fj)
        return fj

    def _f_of_t(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f = self.ell.f_of_log_ell(t)
        return f, self.ell.dfdt(f), self.ell.d2fdt2(f)


def _metric_components_fn(params: SkrpParams, core: _PotentialCore, lambda_h: float, fc_sign: float, conformal_rate: float = 0.0):
    """Jet function of the 2m x 2m metric block, one (2m, 2m)-valued jet

        G = pre (d (x) d + Jd (x) Jd) + 2 f_c lambda_h (I + eps K) / o^2

    with d = (s z / o, w / |w|^2) the real gradient of t and the base block
    of :func:`_base_block`; an optional conformal factor
    exp(conformal_rate * f) is multiplied in analytically."""

    s = float(params.s)
    inv_p2 = 1.0 / params.p**2
    eps = core.eps

    def comps(jets):
        z, (w1, w2) = jets[:-2], jets[-2:]
        o = _base_o(z, eps)
        wsq = w1 * w1 + w2 * w2
        fj = core.f_jet(jets)
        phi_j = _lift_batch(fj, lambda f: phi_closed(params, f))
        x = fj - params.c
        q_j = 2.0 * x * phi_j
        pre = q_j * inv_p2
        base = (2.0 * fc_sign) * x * (lambda_h * o**-2)
        if conformal_rate != 0.0:
            scale = ad.jet_exp(conformal_rate * fj)
            pre = pre * scale
            base = base * scale

        inv_o = o**-1
        inv_r = wsq**-1
        d = ad.stack([*(s * zi * inv_o for zi in z), w1 * inv_r, w2 * inv_r])
        jd = _quarter_turn(d, len(jets))
        return pre * (d[:, None] * d[None, :] + jd[:, None] * jd[None, :]) + _base_block(jets, len(z), eps, base)

    return comps


def _chart_window(params: SkrpParams, ell: EllMap, f_window: tuple[float, float], eps: float) -> Box:
    """Coordinate box whose fiber-norm values e^{s Phi / 2} |w| stay inside the
    f-window; Phi >= 0 is largest at the box's corner, and a half-width whose
    corner leaves the ball is skipped."""
    base_dim = 2 * params.m - 2
    la, lb = sorted(ell.ell(f) for f in f_window)
    for zmax in (0.25, 0.15, 0.08, 0.04):
        corner = base_dim * zmax * zmax  # |z|^2 at the box's corner
        o = 1.0 + eps * corner
        if o <= 0.0:
            continue
        factor_max = o ** (params.s / (2.0 * eps)) if eps else math.exp(0.5 * params.s * corner)
        w1_lo = 1.02 * la
        w2_half = 0.08 * la
        top = 0.98 * lb / factor_max
        if top * top <= w2_half * w2_half:
            continue
        w1_hi = math.sqrt(top * top - w2_half * w2_half)
        if w1_hi > 1.05 * w1_lo:
            return Box([-zmax] * base_dim + [w1_lo, -w2_half], [zmax] * base_dim + [w1_hi, w2_half])
    raise CalibrationFailure(
        f"no coordinate window fits the fiber-norm range ({la:.3g}, {lb:.3g}); widen the f-interval"
    )


def kahler_closedness_residual(metric: ct.MetricChart, J: np.ndarray, p, jet: ad.Jet | None = None) -> float:
    """Max component of the exterior derivative of the fundamental 2-form;
    ``jet`` is the metric's jet at p where the caller holds it."""
    _, dG, _ = metric.components(p, jet)
    # omega_ij = J^a_i g_aj; d_k omega_ij from d_k g_aj.
    domega = np.einsum("ai,kaj->kij", J, dG)
    t = domega + np.einsum("ijk->kij", domega) + np.einsum("jki->kij", domega)
    return float(np.max(np.abs(t)))


def hermitian_metric_residual(metric: ct.MetricChart, J: np.ndarray, p) -> float:
    return _hermitian_defect(J, metric.matrix(p))


def _hermitian_defect(J: np.ndarray, G: np.ndarray) -> float:
    """Max component of J^T G J - G, which vanishes where G is J-Hermitian."""
    return float(np.max(np.abs(J.T @ G @ J - G)))


def killing_residual(chart: CalabiChart, p) -> float:
    """Max component of the Lie derivative of g along u = J grad f."""
    metric, f, J = chart.metric, chart.f_field, chart.complex_structure
    G, dG, _ = metric.components(p)
    G_inv = ct.metric_inverse(G)
    _, df, d2f = f.evaluate(p)
    u = J @ (G_inv @ df)
    dG_inv = -np.einsum("ka,mab,bl->mkl", G_inv, dG, G_inv)
    du = np.einsum("kl,ilm,m->ik", J, dG_inv, df) + np.einsum("kl,lm,im->ik", J, G_inv, d2f)
    lie = np.einsum("k,kij->ij", u, dG) + np.einsum("ik,kj->ij", du, G) + np.einsum("jk,ik->ij", du, G)
    return float(np.max(np.abs(lie)))


def gradient_soliton_residual(chart: CalabiChart, p, geometry: ct.PointGeometry | None = None) -> float:
    """g-norm of ric + hess f - c g with the profile's constant c; ``geometry``
    is the pair's geometry at p where the caller holds it."""
    geo = ct.point_geometry(chart.metric, chart.f_field, p) if geometry is None else geometry
    tensor = geo.ric + geo.hess_f - chart.coefficient() * geo.G
    return ct.tensor_gnorm(geo.G_inv, tensor)


CLOSEDNESS_TOL = 1e-8
BASE_NORMALIZATION_TOL = 1e-9
HERMITIAN_TOL = 1e-10


def _base_chart(params: SkrpParams, lambda_h: float) -> ct.MetricChart:
    """The base metric h = lambda_h (I + eps K) / o^2, on a box inside the unit ball."""
    dim, eps = 2 * params.m - 2, _base_sign(params)
    box = Box([-0.9 / math.sqrt(dim)] * dim, [0.9 / math.sqrt(dim)] * dim)
    return ct.MetricChart.from_jets(
        lambda z: _base_block(z, dim, eps, lambda_h * _base_o(z, eps) ** -2), dim, box, "base"
    )


def assemble_calabi_metric(params: SkrpParams, name: str = "") -> CalabiChart:
    """Build the explicit real 2m-dimensional chart.

    The base metric (:func:`_base_block`) is normalized so that ric(h) = kappa h
    (checked numerically), the fiber metric is h_L = e^{s Phi}, and the
    vertical projection uses the Chern-connection kernel.  The potential
    window is the middle 70% of the float64 band of :func:`working_interval`,
    which must be finite.  The chart is built once from ``params`` as given
    and then verified to be closed (which needs a s = p^2 lambda_h),
    Hermitian, and a gradient soliton with alpha = 1; any failed check raises
    :class:`CalibrationFailure`.
    """
    n = 2 * params.m
    lambda_h = n / abs(params.kappa) if params.kappa else params.a * params.s / params.p**2
    base = _base_chart(params, lambda_h)
    zb = np.array([0.21, -0.33] * (params.m - 1)) / math.sqrt(params.m - 1)
    base_resid = np.max(np.abs(ct.ricci(base, zb) - params.kappa * base.matrix(zb)))
    if not base_resid <= BASE_NORMALIZATION_TOL:
        raise CalibrationFailure(f"base normalization failed: |ric(h) - kappa h| = {base_resid:.3e}")

    working = working_interval(params)
    if working is None:
        raise NonpositiveQ(f"profile has no Q-positive interval in I = {params.I}")
    _, (lo, hi) = working
    if not (math.isfinite(lo) and lo < hi):
        raise DomainError(f"chart assembly needs a finite, nonempty float64 band, not ({lo}, {hi})")
    width = hi - lo
    f_window = (lo + 0.15 * width, hi - 0.15 * width)
    anchor = 0.5 * (f_window[0] + f_window[1])
    fc_sign = math.copysign(1.0, anchor - params.c)

    pad = 0.02 * (f_window[1] - f_window[0])
    ell = EllMap(params, anchor, (f_window[0] - pad, f_window[1] + pad))
    core = _PotentialCore(params, ell)
    domain = _chart_window(params, ell, f_window, core.eps)
    name = name or f"calabi-m{params.m}"
    metric = ct.MetricChart.from_jets(_metric_components_fn(params, core, lambda_h, fc_sign), n, domain, name)
    J = _quarter_turn(np.eye(n), n)
    closed_points = sample_box(domain, 12, seed=7)
    closedness = max(kahler_closedness_residual(metric, J, p, jet) for p, (jet,) in ct.point_jets(metric, closed_points))
    if closedness > CLOSEDNESS_TOL:
        ratio = params.a * params.s / (params.p**2 * lambda_h)
        raise CalibrationFailure(
            f"the fundamental 2-form is not closed: defect {closedness:.3e} > {CLOSEDNESS_TOL:.1e} "
            f"with a s / (p^2 lambda_h) = {ratio:g} (closedness needs a s = p^2 lambda_h)"
        )

    chart = CalabiChart(
        params=params,
        metric=metric,
        f_field=ct.ScalarField(core.f_jet, n, name="potential"),
        complex_structure=J,
        ell=ell,
        lambda_h=lambda_h,
        f_window=f_window,
        fc_sign=fc_sign,
        name=name,
    )

    # Both residuals read the check points' geometry, one batched pass.
    check_points = sample_box(domain, 6, seed=11)
    geometries = list(ct.point_geometries(metric, chart.f_field, check_points))
    herm = max(_hermitian_defect(J, geo.G) for geo in geometries)
    solres = max(gradient_soliton_residual(chart, p, geo) for p, geo in zip(check_points, geometries))
    if herm > HERMITIAN_TOL:
        raise CalibrationFailure(f"assembled metric is not Hermitian: residual {herm:.3e}")
    if solres > SOLITON_RESIDUAL_TOL:
        raise CalibrationFailure(f"assembled pair misses the soliton equation: residual {solres:.3e}")
    return chart


def dual_metric_direct(chart: CalabiChart) -> ct.MetricChart:
    """Direct assembly of the conformal dual metric: both blocks carry the
    factor exp(-4 f / (n-2)) with n = 2m, using the same closed forms."""
    params = chart.params
    rate = -4.0 / (chart.metric.dim - 2)
    core = _PotentialCore(params, chart.ell)
    comps = _metric_components_fn(params, core, chart.lambda_h, chart.fc_sign, conformal_rate=rate)
    return ct.MetricChart.from_jets(comps, chart.metric.dim, chart.domain, f"{chart.name}-dual-direct")
