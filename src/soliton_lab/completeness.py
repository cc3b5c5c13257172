"""Completeness of the conformal dual along potential-gradient curves.

For the profile family the dual metric's arc length along gradient-flow
curves reduces to the single integral

    length = integral  exp(-2 f / (n-2)) / sqrt(Q(f))  df,      n = 2m,

over the range of the potential, so completeness is decided by endpoint
analysis of that integrand:

  * Q(a) = 0 with Q'(a) != 0 (simple zero): the integrand behaves like
    (f - a)^{-1/2}, the length is finite, and the metric extends smoothly
    over the level set -- a "smooth cap".
  * Q(a) = Q'(a) = 0 (double or higher zero): the integrand behaves like
    (f - a)^p with p <= -1, the length diverges -- an "infinite end".
  * sup f = +inf: substituting u = 1 / f_c turns the tail into an integral
    over (0, u1]; the exponential factor makes it converge for m > 1 when
    the profile grows exponentially, so that end has finite length and the
    dual is incomplete there.

Every analytic classification of a finite endpoint is corroborated by a
truncation-ladder convergence test of the improper integral, which must
agree with the derivative-based class.  A log-log exponent fit near the
endpoint is reported beside the class but never compared with it.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import quadpack
from .errors import (
    DomainError,
    DomainExit,
    NonpositiveQ,
    OscillationDetected,
    ToleranceAmbiguity,
)
from .profiles import QProfile, SkrpParams, linspace, phi_closed, working_interval

if TYPE_CHECKING:
    import numpy as np

    from .skrp import CalabiChart

__all__ = [
    "EndpointClass",
    "OverallVerdict",
    "IntegralResult",
    "ExponentFit",
    "EndpointAnalysis",
    "CompletenessVerdict",
    "arc_integrand",
    "arc_density",
    "improper_integral",
    "geomspace",
    "exponent_fit",
    "classify_endpoint",
    "infinite_range_test",
    "gradient_flow_length_crosscheck",
    "completeness_verdict",
    "tail_log_integrand",
]

# Relative zero tolerance for endpoint values of Q (scaled by the Q range).
ENDPOINT_ZERO_RTOL = 1e-9
# Truncation ladder exponents k of the decade edges span * 10^-k at a finite end.
LADDER_EXPONENTS = range(2, 11)
# Runge-Kutta steps of the coarser flow integration in the flow-length cross-check.
FLOW_STEPS = 16


def _quad(fn, a, b, **kw) -> float:
    """Adaptive quadrature of one truncation-ladder segment, its ``ier``
    ignored: a segment next to a singular end is steep and may miss its
    tolerance, but the ladder decides from the segments' relative sizes."""
    return quadpack.quad(fn, a, b, **kw)[0]


class EndpointClass(enum.Enum):
    SMOOTH_CAP = "SmoothCap"
    INFINITE_END = "InfiniteEnd"
    INFINITE_RANGE_CONVERGENT = "InfiniteRangeConvergent"
    INFINITE_RANGE_DIVERGENT = "InfiniteRangeDivergent"
    INTERIOR = "Interior"


class OverallVerdict(enum.Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    COMPLETE_COMPACT_EXTENSION = "complete-compact-extension"
    INCONCLUSIVE_AT_END = "inconclusive-at-end"


@dataclass(frozen=True)
class IntegralResult:
    """Convergence decision of an improper integral, from the segment
    integrals of its truncation ladder; no value of the integral is kept."""

    converged: bool
    increments: tuple[float, ...] = field(repr=False)

    @property
    def diverges(self) -> bool:
        return not self.converged


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit of an integrand near an endpoint."""

    exponent: float


@dataclass(frozen=True)
class EndpointAnalysis:
    endpoint: float
    cls: EndpointClass
    integral: IntegralResult | None = None
    exponent: ExponentFit | None = None


@dataclass(frozen=True)
class CompletenessVerdict:
    lower: EndpointAnalysis
    upper: EndpointAnalysis
    overall: OverallVerdict


# -- integrand -------------------------------------------------------------------


def arc_integrand(profile: QProfile | SkrpParams, f: float) -> float:
    """Dual arc-length density exp(-2 f / (n-2)) / sqrt(Q(f)), n = 2m."""
    return arc_density(profile.m, f, profile.q(f))


def arc_density(m: int, f: float, q: float) -> float:
    """:func:`arc_integrand` at f from the value q = Q(f) a caller holds."""
    if q <= 0:
        raise NonpositiveQ(f"Q({f}) = {q} must be positive for the arc integrand")
    try:
        return math.exp(-f / (m - 1)) / math.sqrt(q)
    except OverflowError:
        raise DomainError(f"arc integrand exp(-f / (m - 1)) overflows float64 at f = {f}") from None


# -- convergence of improper integrals ---------------------------------------------


def _ladder(integrand: Callable[[float], float], edges: list[float]) -> tuple[bool, list[float]]:
    """Truncation ladder: decide divergence toward the end the decreasing
    ``edges`` approach, from the segment integrals over [edges[k+1], edges[k]],
    each a smooth positive quadrature.  Divergence is declared when these
    increments are non-decreasing (constant for a log singularity, growing
    for powers below -1 or an exponential); a decreasing tail means the
    improper integral converges.
    """
    increments = []
    for hi_e, lo_e in zip(edges[:-1], edges[1:]):
        increments.append(_quad(integrand, lo_e, hi_e, epsabs=1e-300, epsrel=1e-10))
    scale = max(abs(v) for v in increments) + 1e-300
    if any(seg < -1e-12 * scale for seg in increments):
        raise OscillationDetected("a truncation segment is negative; integrand is not positive")
    tail = increments[-4:]
    nondecreasing = all(b >= a_ * (1.0 - 1e-3) for a_, b in zip(tail[:-1], tail[1:]))
    significant = tail[-1] > 1e-13 * scale
    return nondecreasing and significant, increments


def improper_integral(
    integrand: Callable[[float], float],
    a: float,
    b: float,
    singular_end: str = "lower",
) -> IntegralResult:
    """Decide whether the integral over (a, b] converges at ``a`` (or over
    [a, b) at ``b`` with ``singular_end='upper'``) from the truncation
    ladder on the decade offsets (b - a) 10^-k, k = 2..10, from that end.
    Gives the decision and the ladder's segment integrals, not a value.
    """
    if not a < b:
        raise DomainError(f"integration bounds must satisfy a < b, got ({a}, {b})")
    if singular_end not in ("lower", "upper"):
        raise ValueError("singular_end must be 'lower' or 'upper'")
    span = b - a
    sing = a if singular_end == "lower" else b
    direction = 1.0 if singular_end == "lower" else -1.0
    diverges, increments = _ladder(
        lambda off: integrand(sing + direction * off), [span * 10.0 ** (-k) for k in LADDER_EXPONENTS]
    )
    return IntegralResult(not diverges, tuple(increments))


def geomspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 floats in geometric progression from start > 0 to
    stop > 0: 10 to the power of each node of :func:`.profiles.linspace`
    between their log10s, the ends set to start and stop, which is what
    ``numpy.geomspace`` computes (its log10 and pow may differ from libm's in
    the last place)."""
    nodes = [10.0**v for v in linspace(math.log10(start), math.log10(stop), num)]
    nodes[0], nodes[-1] = start, stop
    return nodes


def exponent_fit(
    integrand: Callable[[float], float],
    a: float,
    lo: float = 1e-8,
    hi: float = 1e-3,
) -> ExponentFit:
    """Fit integrand ~ C (f - a)^p on a 25-point geometric grid of offsets.

    Returns the least-squares slope p of log integrand against log (f - a):
    the two-parameter normal equations solved in Python floats, centred on
    the means, with every sum a correctly rounded ``math.fsum``.
    """
    offsets = geomspace(lo, hi, 25)
    vals = [integrand(a + d) for d in offsets]
    if not all(v > 0.0 and math.isfinite(v) for v in vals):
        raise DomainError(f"integrand is 0 or not finite within {hi:.3g} of the endpoint (float64 under- or overflow)")
    xs = [math.log(d) for d in offsets]
    ys = [math.log(v) for v in vals]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)
    return ExponentFit(slope)


# -- endpoint classification -------------------------------------------------------


def _q_scale(profile: QProfile | SkrpParams, a: float) -> float:
    """Representative |Q| magnitude near an endpoint.

    The scale is sampled over the part of the interval within a few units of
    the endpoint; using the whole interval would let an exponentially
    growing tail inflate the zero tolerance past genuinely nonzero values.
    The scale has no absolute floor, so scaling Q by any positive constant
    scales the tolerance with it; only a Q that samples as exactly zero
    falls back to 1e-30.
    """
    lo, hi = profile.interval
    lo = max(lo, a - 5.0)
    hi = min(hi, a + 5.0)
    xs = linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 64)
    scale = float(max(abs(profile.q(x)) for x in xs))
    return scale if scale != 0.0 else 1e-30


def classify_endpoint(profile: QProfile | SkrpParams, a: float, side: str | None = None) -> EndpointAnalysis:
    """Classify a finite endpoint of a Q-positive interval.

    Decides from the analytic values Q(a), Q'(a) against a zero tolerance
    scaled to the Q range, then corroborates with a truncation-ladder
    convergence test toward the endpoint; an exponent fit of the arc
    integrand there is returned for the report.  ``side`` ("inf" or "sup")
    says which end of the interval ``a`` is, and defaults to the nearer one.
    An endpoint whose derivative magnitude sits within a factor 10 of the
    tolerance is ambiguous and surfaced as an error rather than guessed.
    """
    if not math.isfinite(a):
        raise DomainError("classify_endpoint needs a finite endpoint; use infinite_range_test")
    lo, hi = profile.interval
    if side is None:
        side = "inf" if abs(a - lo) <= abs(a - (hi if math.isfinite(hi) else lo)) else "sup"

    tol = ENDPOINT_ZERO_RTOL * _q_scale(profile, a)
    q_a = profile.q(a)
    dq_a = profile.dq(a)
    if q_a < -tol:
        raise NonpositiveQ(f"Q({a}) = {q_a} is negative; not an endpoint of a Q-positive interval")

    width = (hi - lo) if (math.isfinite(hi) and math.isfinite(lo)) else 1.0
    delta = min(1.0, 0.2 * width)
    integrand = lambda f: arc_integrand(profile, f)
    if side == "inf":
        fit = exponent_fit(integrand, a, lo=1e-8 * delta, hi=1e-3 * delta)
        integral = improper_integral(integrand, a, a + delta, singular_end="lower")
    else:
        mirrored = lambda f: integrand(2 * a - f)
        fit = exponent_fit(mirrored, a, lo=1e-8 * delta, hi=1e-3 * delta)
        integral = improper_integral(integrand, a - delta, a, singular_end="upper")

    if abs(q_a) >= tol:
        cls = EndpointClass.INTERIOR
    else:
        if tol / 10.0 < abs(dq_a) < tol * 10.0:
            raise ToleranceAmbiguity(
                f"|Q'({a})| = {abs(dq_a):.3e} is within a factor 10 of the zero tolerance {tol:.3e}"
            )
        if abs(dq_a) >= tol:
            cls = EndpointClass.SMOOTH_CAP
            if integral.diverges:
                raise ToleranceAmbiguity(
                    f"simple zero at {a} but the truncated integrals do not converge"
                )
        else:
            cls = EndpointClass.INFINITE_END
            if integral.converged:
                raise ToleranceAmbiguity(
                    f"higher-order zero at {a} but the truncated integrals converge"
                )
    return EndpointAnalysis(a, cls, integral, fit)


# -- infinite range ---------------------------------------------------------------


def tail_log_integrand(params, u: float) -> float:
    """log of the u-substituted tail integrand, computed overflow-safely.

    With u = 1 / f_c the tail integral becomes
    integral_0^{u1} exp(-f / (m-1)) Q(f)^{-1/2} u^{-2} du at f = c + 1/u.
    """
    if not isinstance(params, SkrpParams):
        raise DomainError("tail substitution needs closed-form profile parameters")
    if u <= 0:
        raise DomainError("substitution variable u must be positive")
    m = params.m
    x = 1.0 / u
    f = params.c + x
    if x < 600.0:
        q = params.q(f)
        if q <= 0:
            raise NonpositiveQ(f"Q({f}) = {q} on the tail")
        log_q = math.log(q)
    else:
        if params.B > 0:
            # phi ~ B e^x x^{-m}; the polynomial and constant parts are
            # exponentially negligible here.
            log_phi = x - m * math.log(x) + math.log(params.B)
        elif params.B == 0.0:
            phi = phi_closed(params, f)[0]
            if phi <= 0:
                raise NonpositiveQ(f"phi({f}) = {phi} on the tail")
            log_phi = math.log(phi)
        else:
            raise NonpositiveQ("B < 0 makes the profile negative on the far tail")
        log_q = math.log(2.0) + math.log(x) + log_phi
    return -f / (m - 1) - 0.5 * log_q + 2.0 * math.log(x)


def infinite_range_test(params: SkrpParams) -> EndpointAnalysis:
    """Analyze an interval with sup f = +inf through the u = 1/f_c substitution.

    The u-integral runs over (0, u1] with u1 = 1 / (f_start - c) and f_start
    one unit above both the shift c and a finite lower end of the interval.

    The tail integral converges (finite dual length, hence incompleteness at
    that end) exactly when the truncation ladder of the u-integral settles.
    """
    if not isinstance(params, SkrpParams):
        raise DomainError("infinite_range_test needs closed-form profile parameters")
    lo, hi = params.I
    if math.isfinite(hi):
        raise DomainError(f"interval {params.I} does not reach +inf")
    f_start = max(lo + 1.0, params.c + 1.0) if math.isfinite(lo) else params.c + 1.0
    u1 = 1.0 / (f_start - params.c)

    def integrand(u: float) -> float:
        log_val = tail_log_integrand(params, u)
        return math.exp(log_val) if log_val > -745.0 else 0.0

    diverges, increments = _ladder(integrand, [u1 * 10.0 ** (-k) for k in LADDER_EXPONENTS])
    cls = EndpointClass.INFINITE_RANGE_DIVERGENT if diverges else EndpointClass.INFINITE_RANGE_CONVERGENT
    return EndpointAnalysis(math.inf, cls, IntegralResult(not diverges, tuple(increments)))


def _infinite_lower_test(profile: QProfile | SkrpParams, f_end: float) -> EndpointAnalysis:
    """Ladder convergence decision toward f -> -inf (the conformal factor
    grows) on the doubling edges f_end - 2^k, k = 0..6: the segments tile
    [f_end - 64, f_end], and no value of the integral is kept."""
    edges = [f_end] + [f_end - 2.0**k for k in range(7)]
    diverges, increments = _ladder(lambda f: arc_integrand(profile, f), edges)
    cls = EndpointClass.INFINITE_RANGE_DIVERGENT if diverges else EndpointClass.INFINITE_RANGE_CONVERGENT
    return EndpointAnalysis(-math.inf, cls, IntegralResult(not diverges, tuple(increments)))


# -- whole-interval verdict ---------------------------------------------------------


def completeness_verdict(profile: QProfile | SkrpParams) -> CompletenessVerdict:
    """Combine the endpoint analyses of a profile's Q-positive interval, a
    closed form's first one (:func:`.profiles.working_interval`).

    Complete when every end has infinite length (higher-order zero or a
    divergent tail) or is a smooth cap over which the metric extends; the
    all-caps case is flagged as the compact extension.  A finite endpoint
    with Q > 0 is a chart boundary the case analysis does not cover, so the
    verdict is inconclusive rather than guessed.
    """
    if isinstance(profile, SkrpParams):
        working = working_interval(profile)
        if working is None:
            raise NonpositiveQ("profile has no Q-positive interval")
        profile = replace(profile, I=working[0])
    lo, hi = profile.interval

    if math.isfinite(lo):
        lower = classify_endpoint(profile, lo, side="inf")
    else:
        anchor = hi - 1.0 if math.isfinite(hi) else profile.c
        lower = _infinite_lower_test(profile, anchor)

    if math.isfinite(hi):
        upper = classify_endpoint(profile, hi, side="sup")
    else:
        upper = infinite_range_test(profile)

    classes = (lower.cls, upper.cls)
    if EndpointClass.INTERIOR in classes:
        overall = OverallVerdict.INCONCLUSIVE_AT_END
    elif EndpointClass.INFINITE_RANGE_CONVERGENT in classes:
        overall = OverallVerdict.INCOMPLETE
    elif classes == (EndpointClass.SMOOTH_CAP, EndpointClass.SMOOTH_CAP):
        overall = OverallVerdict.COMPLETE_COMPACT_EXTENSION
    else:
        overall = OverallVerdict.COMPLETE
    return CompletenessVerdict(lower, upper, overall)


# -- cross-checks --------------------------------------------------------------------


def gradient_flow_length_crosscheck(chart: CalabiChart, f1: float, f2: float) -> float:
    """Dual-metric length of the potential-gradient curve between two levels.

    Integrates  x'(f) = grad f / |grad f|^2  inside the chart, accumulating
    the conformal-dual speed, with classical 4th-order Runge-Kutta at
    N = ``FLOW_STEPS`` and at 2N equal steps, and returns the Richardson
    extrapolation L_2N + (L_2N - L_N) / 15.  Independent of the
    1-dimensional profile reduction, which it is checked against.  The
    length is symmetric in (f1, f2); a zero-length interval returns 0.  A
    flow that leaves the chart, or a length that is not finite, raises
    :class:`DomainExit`.
    """
    if f1 == f2:
        return 0.0
    lo, hi = (f1, f2) if f1 < f2 else (f2, f1)
    coarse, fine = (_rk4_flow_length(chart, lo, hi, n) for n in (FLOW_STEPS, 2 * FLOW_STEPS))
    total = fine + (fine - coarse) / 15.0
    if not math.isfinite(total):
        raise DomainExit(f"flow length from f = {lo} to {hi} is not finite")
    return total


def _rk4_flow_length(chart: CalabiChart, lo: float, hi: float, steps: int) -> float:
    """Dual length of the gradient flow from level lo to hi: ``steps`` equal RK4 steps."""
    import numpy as np

    from . import chart as ct

    metric, f_field, box = chart.metric, chart.f_field, chart.domain
    rate = -4.0 / (2 * chart.params.m - 2)

    def rhs(f, y):
        x = y[: metric.dim]
        if not box.contains(x):
            raise DomainExit(f"flow left the chart domain at f = {f}")
        G, _, _ = metric.components(x)
        _, df, _ = f_field.evaluate(x)
        grad = ct.metric_inverse(G) @ df
        vel = grad / float(df @ grad)
        return np.append(vel, math.sqrt(math.exp(rate * f) * float(vel @ G @ vel)))

    h = (hi - lo) / steps
    y = np.append(_point_at_level(chart, lo), 0.0)
    for i in range(steps):
        f = lo + i * h
        k1 = rhs(f, y)
        k2 = rhs(f + h / 2, y + h / 2 * k1)
        k3 = rhs(f + h / 2, y + h / 2 * k2)
        k4 = rhs(f + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return float(y[-1])


def _point_at_level(chart: CalabiChart, f_level: float) -> np.ndarray:
    """A chart point on the given potential level (fiber axis over z = 0)."""
    import numpy as np

    try:
        ell = chart.ell.ell(f_level)
    except DomainError as exc:
        raise DomainExit(f"level f = {f_level} is outside the chart's potential window") from exc
    candidate = np.append(np.zeros(chart.metric.dim - 2), [ell, 0.0])
    if not chart.domain.contains(candidate):
        raise DomainExit(
            f"level f = {f_level} (fiber norm {ell:.4g}) is outside the chart window {chart.domain}"
        )
    return candidate
