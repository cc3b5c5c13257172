"""Gradient Ricci almost-soliton verification and conformal duality.

A pair (g, f) is an almost soliton where ric + hess f = c g holds for some
smooth coefficient function c; it is a genuine soliton when c is constant
and trivial when f is (an Einstein metric).  The central operation here is
the conformal duality

    (g, f)  ->  (exp(-4 f / (n-2)) g, -f),      n > 2,

which carries almost solitons to almost solitons.  The dual coefficient is
computed two independent ways (the conformal-change assembly and the closed
form through lap f - |grad f|^2) and both are cross-checked against the
coefficient extracted directly from the dualized pair.

Also provided: Hamilton's first integral lap f - |grad f|^2 + 2 c f (constant
exactly for genuine solitons), a pointwise least-squares fit of the
two-coefficient Ricci-Hessian equation ric + alpha hess f = c g, and the
residuals of the profile ODEs that force the duality's conformal factor and
soliton function to be the canonical ones.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import chart as ct
from .errors import (
    SOLITON_RESIDUAL_TOL,
    DimensionTooSmall,
    DomainError,
    EmptySample,
    NotASoliton,
)
from .sampling import sample_box

__all__ = [
    "SolitonPair",
    "ResidualReport",
    "ProfilePair",
    "SolitonClass",
    "RicciHessianFit",
    "extract_coefficient",
    "residual_report",
    "classify",
    "classify_report",
    "dualize",
    "dual_factor_profile",
    "dual_coefficient",
    "hamilton_invariant",
    "ricci_hessian_fit",
    "alpha_identifiable",
    "uniqueness_residuals",
    "canonical_profile",
]

# Relative variation below which a sampled coefficient field counts as constant.
COEFF_CONSTANCY_TOL = 1e-6
# |grad f|^2 below which the soliton function counts as constant.
GRADIENT_TRIVIALITY_TOL = 1e-9


@dataclass(frozen=True)
class SolitonPair:
    """A metric chart together with a candidate soliton function."""

    metric: ct.MetricChart
    f: ct.ScalarField
    name: str = ""

    def __post_init__(self):
        if self.f.dim != self.metric.dim:
            raise ValueError(f"field dimension {self.f.dim} does not match metric dimension {self.metric.dim}")

    @property
    def dim(self) -> int:
        return self.metric.dim

    def sample(self, count: int = 100) -> np.ndarray:
        return sample_box(self.metric.domain, count)

    def geometry(self, p) -> ct.PointGeometry:
        """Metric and field data at p from one evaluation of each."""
        return ct.point_geometry(self.metric, self.f, p)

    def geometries(self, points) -> Iterator[ct.PointGeometry]:
        """:meth:`geometry` at each of ``points`` in order, from one evaluation
        of the metric's and the field's jets and one curvature pass per chunk
        of points (:func:`~soliton_lab.chart.point_geometries`)."""
        return ct.point_geometries(self.metric, self.f, points)


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise almost-soliton data over a sample.

    ``coefficients[k]`` is the trace coefficient c(p_k), ``residuals[k]``
    the g-norm of ric + hess f - c g at p_k and ``grad_norms_sq[k]`` the
    squared gradient norm |grad f|^2 at p_k; ``first_geometry`` is the geometry of p_0.
    """

    points: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    grad_norms_sq: np.ndarray = field(repr=False)
    first_geometry: ct.PointGeometry | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptySample("residual report needs at least one sample point")
        if np.any(self.residuals < 0):
            raise ValueError("residual norms must be nonnegative")

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def coefficient_variation(self) -> float:
        """Relative variation (max c - min c) / (1 + max |c|)."""
        c = self.coefficients
        return float((np.max(c) - np.min(c)) / (1.0 + np.max(np.abs(c))))


class SolitonClass(enum.Enum):
    TRIVIAL = "trivial"
    GRADIENT_RICCI_SOLITON = "gradient-Ricci-soliton"
    ALMOST_SOLITON = "almost-soliton"
    NONE = "none"


def extract_coefficient(
    pair: SolitonPair, p, geometry: ct.PointGeometry | None = None
) -> tuple[float, float]:
    """Trace coefficient and equation residual at a point.

    Returns ``(c, r)`` with c = trace_g(ric + hess f) / n and r the g-norm of
    ric + hess f - c g; the pair is an almost soliton at p iff r ~ 0.  A
    caller that already holds the point's geometry passes it as ``geometry``
    so the metric is not evaluated again.
    """
    geo = pair.geometry(p) if geometry is None else geometry
    tensor = geo.ric + geo.hess_f
    c = float(np.einsum("ij,ij->", geo.G_inv, tensor)) / pair.dim
    return c, ct.tensor_gnorm(geo.G_inv, tensor - c * geo.G)


def residual_report(pair: SolitonPair, points: np.ndarray) -> ResidualReport:
    points = np.asarray(points, dtype=float)
    points = np.atleast_2d(points) if points.size else points.reshape(0, pair.dim)
    coeffs = np.empty(len(points))
    residuals = np.empty(len(points))
    grad_sq = np.empty(len(points))
    first = None
    for k, (p, geo) in enumerate(zip(points, pair.geometries(points))):
        coeffs[k], residuals[k] = extract_coefficient(pair, p, geo)
        grad_sq[k] = geo.grad_sq
        if k == 0:
            first = geo
    return ResidualReport(points, coeffs, residuals, grad_sq, first)


def classify(pair: SolitonPair, sample: np.ndarray | int = 100) -> SolitonClass:
    """Classify the pair over a point sample (a count draws that many points
    at the default seed).

    almost soliton: max residual < SOLITON_RESIDUAL_TOL; soliton additionally
    needs coefficient variation < COEFF_CONSTANCY_TOL; trivial additionally
    needs |grad f|^2 < GRADIENT_TRIVIALITY_TOL everywhere.
    """
    if isinstance(sample, (int, np.integer)):
        sample = pair.sample(int(sample))
    return classify_report(residual_report(pair, sample))


def classify_report(report: ResidualReport, tol_residual: float = SOLITON_RESIDUAL_TOL) -> SolitonClass:
    """Classify the pair a residual report was built from, by the rules of
    :func:`classify`, without evaluating anything again."""
    if report.max_residual >= tol_residual:
        return SolitonClass.NONE
    if report.coefficient_variation >= COEFF_CONSTANCY_TOL:
        return SolitonClass.ALMOST_SOLITON
    if np.max(report.grad_norms_sq) < GRADIENT_TRIVIALITY_TOL:
        return SolitonClass.TRIVIAL
    return SolitonClass.GRADIENT_RICCI_SOLITON


# -- duality -------------------------------------------------------------------


def _exp_profile(rate: float) -> ct.SmoothFunction1D:
    """f -> exp(rate * f) with its two derivatives."""
    return ct.SmoothFunction1D(
        lambda f: math.exp(rate * f),
        lambda f: rate * math.exp(rate * f),
        lambda f: rate * rate * math.exp(rate * f),
    )


# f -> -f, the duality's soliton-function profile.
_NEGATION = ct.SmoothFunction1D(lambda f: -f, lambda f: -1.0, lambda f: 0.0)


def dual_factor_profile(n: int) -> ct.SmoothFunction1D:
    """The conformal factor exp(-4 f / (n-2)) of the duality, as a profile in f."""
    return _exp_profile(-4.0 / (n - 2))


def dualize(pair: SolitonPair) -> SolitonPair:
    """Conformal dual (exp(-4 f / (n-2)) g, -f).

    The scaled metric is the jet product of the factor's jet (the chain rule
    through f) and g's jet, so its derivative data is exact and the dual
    pair's residuals stay at the source pair's accuracy.  On the Kähler
    chart the metric, the factor and -f share one potential evaluation per
    point.  Applying dualize twice reproduces the original components to
    roundoff.
    """
    n = pair.dim
    if n <= 2:
        raise DimensionTooSmall(f"duality needs dimension n > 2, got n = {n}")
    factor = ct.compose_with_field(dual_factor_profile(n), pair.f, name="dual-factor")
    metric_hat = pair.metric.conformal_scale(factor, name=f"{pair.metric.name}-dual")
    f_hat = ct.compose_with_field(_NEGATION, pair.f, name="-f")
    return SolitonPair(metric_hat, f_hat, name=f"{pair.name}-dual" if pair.name else "dual")


def dual_coefficient(
    pair: SolitonPair,
    p,
    method: str = "direct",
    tol_residual: float = SOLITON_RESIDUAL_TOL,
    geometry: ct.PointGeometry | None = None,
) -> float:
    """Coefficient of the dual almost soliton at p, by either of two formulas.

    ``direct`` assembles tau^2 (c + beta + delta) from the conformal-change
    coefficients (tau = exp(2 f / (n-2)), beta the g-coefficient of the Ricci
    identity, delta the g-coefficient of the Hessian identity); ``closed``
    uses exp(4 f / (n-2)) (c + 2/(n-2) (lap f - |grad f|^2)).  Both presume
    the source equation holds at p, so points whose residual exceeds
    ``tol_residual`` are refused.  As in :func:`extract_coefficient`, a
    caller that already holds the point's geometry passes it as ``geometry``.
    """
    if pair.dim <= 2:
        raise DimensionTooSmall(f"duality needs dimension n > 2, got n = {pair.dim}")
    geo = pair.geometry(p) if geometry is None else geometry
    c, residual = extract_coefficient(pair, p, geo)
    if residual > tol_residual:
        raise NotASoliton(
            f"almost-soliton residual {residual:.3e} at {np.asarray(p).tolist()} "
            f"exceeds {tol_residual:.1e}; dual coefficient undefined"
        )
    n = pair.dim
    f_val, lap_f, grad_sq = geo.f, geo.lap_f, geo.grad_sq

    if method == "closed":
        return math.exp(4.0 * f_val / (n - 2)) * (c + 2.0 / (n - 2) * (lap_f - grad_sq))
    if method != "direct":
        raise ValueError(f"unknown method {method!r}; expected 'direct' or 'closed'")

    tau = math.exp(2.0 * f_val / (n - 2))
    tau1 = 2.0 / (n - 2) * tau
    tau2 = 4.0 / (n - 2) ** 2 * tau
    lap_tau = tau1 * lap_f + tau2 * grad_sq
    grad_tau_sq = tau1 * tau1 * grad_sq
    beta = lap_tau / tau - (n - 1) * grad_tau_sq / tau**2
    delta = tau1 / tau * grad_sq
    return tau * tau * (c + beta + delta)


def hamilton_invariant(pair: SolitonPair, c: float, p) -> float:
    """k(p) = lap f - |grad f|^2 + 2 c f; constant for genuine solitons."""
    geo = pair.geometry(p)
    return geo.lap_f - geo.grad_sq + 2.0 * c * geo.f


@dataclass(frozen=True)
class RicciHessianFit:
    """Pointwise least-squares solve of ric + alpha hess f = c g."""

    alpha: float
    coefficient: float
    residual: float
    alpha_identifiable: bool


# Trace-free part of hess f, relative to hess f, below which alpha is not identifiable.
ALPHA_IDENTIFIABILITY_TOL = 1e-8


def alpha_identifiable(geo: ct.PointGeometry) -> bool:
    """Whether hess f is not numerically a multiple of g at the point, so that
    ric + alpha hess f = c g determines alpha there."""
    trace_part = np.einsum("ij,ij->", geo.G_inv, geo.hess_f) / len(geo.G)
    deviatoric = ct.tensor_gnorm(geo.G_inv, geo.hess_f - trace_part * geo.G)
    return deviatoric / (ct.tensor_gnorm(geo.G_inv, geo.hess_f) + 1e-30) > ALPHA_IDENTIFIABILITY_TOL


def ricci_hessian_fit(pair: SolitonPair, p, geometry: ct.PointGeometry | None = None) -> RicciHessianFit:
    """Fit (alpha, c) at a point; flags alpha as unidentifiable when hess f is
    numerically proportional to g (the fit is then exact but degenerate).
    ``geometry`` is the point's geometry where the caller holds it."""
    geo = pair.geometry(p) if geometry is None else geometry
    G, G_inv, ric, hess = geo.G, geo.G_inv, geo.ric, geo.hess_f

    design = np.stack([hess.ravel(), -G.ravel()], axis=1)
    solution, _, _, _ = np.linalg.lstsq(design, -ric.ravel(), rcond=None)
    alpha, coeff = float(solution[0]), float(solution[1])
    residual = ct.tensor_gnorm(G_inv, ric + alpha * hess - coeff * G)
    return RicciHessianFit(alpha, coeff, residual, alpha_identifiable(geo))


# -- profile-level identities ----------------------------------------------------


@dataclass(frozen=True)
class ProfilePair:
    """Candidate conformal factor tau(f) and soliton-function profile k(f)."""

    tau: ct.SmoothFunction1D
    k: ct.SmoothFunction1D


def canonical_profile(n: int) -> ProfilePair:
    """The unique profile pair (up to constants) admitted by the duality."""
    return ProfilePair(_exp_profile(2.0 / (n - 2)), _NEGATION)


def uniqueness_residuals(profile: ProfilePair, n: int, f: float) -> tuple[float, float]:
    """Residuals of the two coefficient ODEs a dual profile must satisfy.

    R1 = (n-2) tau'/tau + k' - 1 and R2 = (n-2) tau''/tau + k'' + 2 (tau'/tau) k'
    both vanish identically exactly for tau = exp(2 f / (n-2)), k = -f (up to
    a multiplicative / additive constant respectively).
    """
    tau = profile.tau.value(f)
    if tau <= 0:
        raise DomainError(f"profile tau({f}) = {tau} must be positive")
    tau_ratio1 = profile.tau.deriv(f) / tau
    tau_ratio2 = profile.tau.deriv2(f) / tau
    k1 = profile.k.deriv(f)
    k2 = profile.k.deriv2(f)
    r1 = (n - 2) * tau_ratio1 + k1 - 1.0
    r2 = (n - 2) * tau_ratio2 + k2 + 2.0 * tau_ratio1 * k1
    return r1, r2

