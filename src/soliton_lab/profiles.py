"""The closed-form gradient Kahler-Ricci soliton profiles, in Python floats.

The family is described by one profile phi(f) on an interval of potential
values.  With f_c = f - c and S_j the degree-j truncated exponential series,

    phi(f) = f_c^{-m} (A * S_m(f_c) + B * e^{f_c}) + phi_sign * kappa / (2m),

which solves the second-order profile ODE

    f_c^2 phi'' + f_c (m - f_c * alpha) phi' - m phi = -sgn(phi) * kappa / 2

with alpha = 1 on intervals where sgn(phi) = phi_sign (kappa is the Einstein
constant of the base metric).  The sign of the constant term is an explicit
branch parameter because the ODE couples it to sgn(phi): the default -1
reproduces the fixed-minus-sign form of the constant, while positive-profile
intervals with kappa != 0 need +1.  The soliton coefficient

    c(f) = alpha phi + (alpha f_c - (m+1)) phi' - f_c phi''

is constant in f on branch-consistent intervals (equal to A/m! + phi_sign *
kappa/(2m) for alpha = 1).  :func:`phi_closed` sums A U + B E, U = f_c^{-m}
S_m(f_c) and E = f_c^{-m} e^{f_c}, for |f_c| > 1 and (A + B) U + B (E - U),
E - U as its power series, for |f_c| <= 1, so no term cancels another.

From the profile the module builds Q(f) = 2 f_c phi(f), the squared gradient
norm of the potential, and the Q-positive intervals the commands work on
(:func:`q_domain`, :func:`working_interval`); it also holds the named profile
sets.  Everything here runs on Python floats and never imports numpy, which
only the fiber-norm map's inversion (:mod:`.fibernorm`) and the chart
assembly of :mod:`.skrp` need; numpy arrays passed in by those take the
array path of :func:`phi_closed`.  Q of a float runs one value-only kernel
per :class:`SkrpParams` (:func:`_q_kernel`), built on its first call with
the factorials and constants the parameters fix and kept: it sums phi
alone, without the derivatives nothing reading Q needs, with the bits of
:func:`phi_closed`'s phi.  Every ``skrp`` and ``completeness`` number is a
quadrature, root or scan of that Q.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError, IntegrationFailure, PoleError, UnknownFixture

if TYPE_CHECKING:
    import numpy as np

    from .chart import SmoothFunction1D

__all__ = [
    "SkrpParams",
    "QProfile",
    "phi_closed",
    "phi_ode_residual",
    "phi_ode_integrate",
    "soliton_coeff_profile",
    "linspace",
    "bounded_interval",
    "q_domain",
    "working_interval",
    "skrp_fixture",
    "q_profile_fixture",
]

# Relative margin keeping evaluation intervals away from the profile pole.
POLE_MARGIN = 1e-6
# The largest k whose k! is a finite float64.
_MAX_FACTORIAL = 170
# Taylor terms one profile-ODE integration may sum (the fixtures need at
# most a few hundred); at large m the steps shrink to |f - c| / m, so a
# huge-m profile would otherwise run for minutes.
TAYLOR_TERM_CAP = 100_000
# The float64 band of working_interval: |f - c| > BAND_POLE_GAP, and
# f - c < BAND_TAIL_REACH above the pole.
BAND_POLE_GAP = 0.05
BAND_TAIL_REACH = 12.0


@dataclass(frozen=True)
class SkrpParams:
    """Parameters of one member of the soliton profile family.

    Fields
    ------
    m : complex dimension of the total space (m >= 2; the assembled chart
        has real dimension 2m).
    kappa : Einstein constant of the base metric h.
    c : shift of the potential, f_c = f - c.
    A, B : constants of the closed-form profile.
    I : open interval of f-values (endpoints may be +-inf).
    s : positive integer power of the tautological bundle.
    a : constant of the fiber-norm ODE (a/Q) df = d(log ell).
    p : nonzero constant scaling the fiber metric block.
    phi_sign : sign of the constant term kappa/(2m); must match sgn(phi) on
        the working interval for the profile ODE to hold (default -1, the
        fixed-minus-sign form).

    Every field but m has a default: kappa = c = A = B = 0, I the whole
    line, s = 1, a = p = 1 and phi_sign = -1.
    """

    m: int
    kappa: float = 0.0
    c: float = 0.0
    A: float = 0.0
    B: float = 0.0
    I: tuple[float, float] = (-math.inf, math.inf)
    s: int = 1
    a: float = 1.0
    p: float = 1.0
    phi_sign: int = -1

    def __post_init__(self):
        for name in ("m", "s", "kappa", "c", "A", "B", "a", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if int(self.m) != self.m or self.m < 2:
            raise ValueError("m must be an integer >= 2")
        if int(self.s) != self.s or self.s < 1:
            raise ValueError("bundle power s must be a positive integer")
        if self.p == 0 or self.a == 0:
            raise ValueError("fiber constants a, p must be nonzero")
        if self.phi_sign not in (-1, 1):
            raise ValueError("phi_sign must be -1 or +1")
        lo, hi = self.I
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("an end of I must be a number or ±inf")
        if not lo < hi:
            raise ValueError(f"interval I = {self.I} must be nonempty")
        # The closed form has a genuine pole at f = c only when the series
        # numerator A + B does not vanish there.
        if self.A + self.B != 0.0 and lo < self.c < hi:
            raise ValueError("interval I must avoid the pole f = c when A + B != 0")

    @cached_property
    def pole_margin(self) -> float:
        lo, hi = self.I
        width = hi - lo if math.isfinite(hi) and math.isfinite(lo) else 1.0 + abs(self.c)
        # No wider than the gap between c and an I that stops short of it, so
        # a profile narrowed to a Q-positive interval evaluates at its ends.
        gap = max(lo - self.c, self.c - hi)
        return POLE_MARGIN * width if gap <= 0.0 else min(POLE_MARGIN * width, gap)

    @property
    def interval(self) -> tuple[float, float]:
        return self.I

    @cached_property
    def _q_of_float(self) -> Callable[[float], float]:
        return _q_kernel(self)

    def q(self, f: float | np.ndarray) -> float | np.ndarray:
        """Q(f) = 2 f_c phi(f), the squared gradient norm of the potential, at
        a float or at each entry of an array (see :func:`phi_closed`).

        A float, an int or a numpy scalar goes to one value-only kernel,
        built on the first such call and kept (:func:`_q_kernel`).  It sums
        phi alone, the same float operations as ``phi_closed(self, f)[0]``
        and so the same bits, with its refusals: :class:`PoleError` at the
        pole and :class:`DomainError` where phi is not finite.  It skips the
        derivative sums, so it returns Q where only phi' or phi'' overflows,
        which ``phi_closed`` refuses."""
        if type(f) is float or _array_module(f) is None:
            return self._q_of_float(f)
        return 2.0 * (f - self.c) * phi_closed(self, f)[0]

    def dq(self, f: float | np.ndarray) -> float | np.ndarray:
        phi, dphi, _ = phi_closed(self, f)
        return 2.0 * phi + 2.0 * (f - self.c) * dphi


@dataclass(frozen=True)
class QProfile:
    """Q with one derivative on an interval; :class:`SkrpParams` is the
    closed-form profile with the same interface.  ``q`` and ``dq`` take a
    float or a 1-D array of floats: the scan, the completeness ladder and
    the fiber-norm table and column pass floats, and only the inversion of
    a :class:`.fibernorm.EllMap` passes arrays; a constant may return one
    float for an array."""

    q: Callable[[float], float]
    dq: Callable[[float], float]
    interval: tuple[float, float]
    m: int
    a: float = 1.0
    c: float = 0.0


def _array_module(x):
    """numpy where ``x`` is one of its arrays, else None: a float, an int or
    a numpy scalar takes the float path, and numpy need not be loaded."""
    numpy = sys.modules.get("numpy")
    return numpy if numpy is not None and isinstance(x, numpy.ndarray) else None


@lru_cache(maxsize=32)  # a process holds few profiles
def _u_pairs(m: int) -> tuple[tuple[int, float], ...]:
    """U's exponents k - m with k!, k = 0 .. min(m, 170), each k! the running
    float product 1 * 2 * ... * k; past k = 170 a term is x^(k-m) / inf = 0."""
    pairs = []
    kfact = 1.0
    for k in range(min(m, _MAX_FACTORIAL) + 1):
        if k > 0:
            kfact *= k
        pairs.append((k - m, kfact))
    return tuple(pairs)


@lru_cache(maxsize=32)
def _t_factorials(m: int) -> tuple[float, ...]:
    """T's factorials (m + j)!, j = 1 .. 29, each the float m! times m + 1 ..
    m + j in turn; past m = 170, m! itself overflows."""
    if m > _MAX_FACTORIAL:  # before m! costs O(m^2) to overflow float()
        raise OverflowError(f"{m}! overflows float64")
    facts = []
    fact = float(math.factorial(m))
    for j in range(1, 30):
        fact *= m + j
        facts.append(fact)
    return tuple(facts)


def _laurent_U(x, m: int):
    """U = x^{-m} S_m(x) and two derivatives, exactly."""
    u = u1 = u2 = 0.0
    for e, kfact in _u_pairs(m):
        u += x**e / kfact
        if e != 0:
            u1 += e * x ** (e - 1) / kfact
            u2 += e * (e - 1) * x ** (e - 2) / kfact
    return u, u1, u2


def _scaled_exp_E(x, m: int):
    """E = x^{-m} e^x and two derivatives, E' = E (1 - m/x) and
    E'' = E ((1 - m/x)^2 + m/x^2); for |x| > 1, where no factor cancels.
    Where x^{-m} underflows to a subnormal or 0, E is formed as
    +-exp(x - m log|x|) instead, which keeps it while it is a normal float."""
    power = x ** (-m)
    if (np := _array_module(x)) is not None:
        tiny = np.abs(power) < sys.float_info.min
        e = np.where(tiny, np.copysign(np.exp(x - m * np.log(np.abs(x))), power), power * np.exp(x))
    elif abs(power) < sys.float_info.min:
        e = math.copysign(math.exp(x - m * math.log(abs(x))), power)
    else:
        e = power * math.exp(x)
    r = 1.0 - m / x
    return e, e * r, e * (r * r + m / (x * x))


def _scaled_remainder_T(x, m: int):
    """T = x^{-m} (e^x - S_m(x)) with two derivatives, for |x| <= 1.

    Entire in x, but the difference loses every digit near x = 0, so T is
    the power series sum_{j>=1} x^j / (m+j)!.
    """
    t = t1 = t2 = 0.0
    pow_jm2 = 1.0  # x^(j-2), meaningful from j = 2 on
    pow_jm1 = 1.0  # x^(j-1)
    for j, fact in enumerate(_t_factorials(m), 1):
        t += pow_jm1 * x / fact
        t1 += j * pow_jm1 / fact
        if j >= 2:
            t2 += j * (j - 1) * pow_jm2 / fact
        pow_jm2 = pow_jm1
        pow_jm1 = pow_jm1 * x
    return t, t1, t2


def _term_sums(params: SkrpParams, x, far: bool):
    """phi, phi', phi'' at x = f - c, floats or arrays alike: the module
    docstring's terms for |x| > 1 (``far``) or |x| <= 1, a zero coefficient
    skipping its term, and then the constant.  A float term that overflows
    raises OverflowError in exp and ** and makes phi inf; an array's
    overflows to inf."""
    if far:
        terms = ((params.A, _laurent_U), (params.B, _scaled_exp_E))
    else:
        terms = ((params.A + params.B, _laurent_U), (params.B, _scaled_remainder_T))
    phi = dphi = d2phi = 0.0
    try:
        for coeff, term in terms:
            if coeff != 0.0:
                t, t1, t2 = term(x, params.m)
                phi += coeff * t
                dphi += coeff * t1
                d2phi += coeff * t2
    except OverflowError:
        phi = math.inf
    phi += params.phi_sign * params.kappa / (2.0 * params.m)
    return phi, dphi, d2phi


def _q_kernel(params: SkrpParams) -> Callable[[float], float]:
    """Q of a float, phi summed alone: the float operations of
    ``_term_sums(params, x, far)[0]`` in its order, with the constants the
    parameters fix (U's and T's factorials, the branch coefficients, the
    constant term, the pole margin) read once, here."""
    m, c, A, B = params.m, params.c, params.A, params.B
    near_a = A + B
    has_pole = near_a != 0.0
    margin = params.pole_margin
    const = params.phi_sign * params.kappa / (2.0 * m)
    u_pairs = _u_pairs(m)
    t_facts = _t_factorials(m) if m <= _MAX_FACTORIAL else None
    tiny = sys.float_info.min
    exp, log, copysign = math.exp, math.log, math.copysign

    def q(f):
        x = float(f - c)
        if has_pole and abs(x) < margin:
            raise _refusal(params, f, x, True)
        phi = 0.0
        try:
            if abs(x) > 1.0:
                if A != 0.0:
                    u = 0.0
                    for e, kfact in u_pairs:
                        u += x**e / kfact
                    phi += A * u
                if B != 0.0:
                    power = x ** (-m)
                    if abs(power) < tiny:
                        phi += B * copysign(exp(x - m * log(abs(x))), power)
                    else:
                        phi += B * (power * exp(x))
            else:
                if has_pole:
                    u = 0.0
                    for e, kfact in u_pairs:
                        u += x**e / kfact
                    phi += near_a * u
                if B != 0.0:
                    if t_facts is None:  # T's m! overflows, as in _scaled_remainder_T
                        raise OverflowError
                    t = 0.0
                    pow_jm1 = 1.0
                    for fact in t_facts:
                        t += pow_jm1 * x / fact
                        pow_jm1 = pow_jm1 * x
                    phi += B * t
        except OverflowError:
            phi = math.inf
        phi += const
        if not math.isfinite(phi):
            raise _refusal(params, f, x, False)
        return 2.0 * (f - c) * phi

    return q


def _refusal(params: SkrpParams, f: float, x: float, pole: bool) -> Exception:
    if pole:
        return PoleError(f"profile has a pole at f = c = {params.c}; got f = {f}")
    return DomainError(f"profile overflows float64 at f = {f} (f - c = {x})")


def phi_closed(params: SkrpParams, f: float | np.ndarray) -> tuple:
    """Profile value and derivatives (phi, phi', phi'') at f, a float or a
    1-D array of floats.

    The sum of the module docstring's terms; a zero coefficient skips its
    term, so B = 0 never evaluates exp and A + B = 0 never meets U's pole.
    Derivatives are the hand-differentiated closed forms, not differences.
    A float (or an int, or a numpy scalar) is summed in Python floats, whose
    bits every ``skrp`` and ``completeness`` report carries.  A numpy array
    runs the same term helpers under numpy, its entries with |f - c| > 1 and
    <= 1 apart: each entry agrees with the float path to roundoff of its
    terms (numpy's pow and exp may differ from libm's in the last place) and
    has the same bits in any array.  Raises :class:`PoleError` at f = c when
    the numerator is singular there, and :class:`DomainError` where a term
    overflows float64; an array raises what its first such entry raises
    alone.
    """
    if (np := _array_module(f)) is not None:
        x = f - params.c
        far = np.abs(x) > 1.0
        sums = np.empty((3,) + x.shape)
        with np.errstate(all="ignore"):  # an overflow is refused below
            for lanes, is_far in ((far, True), (~far, False)):
                if lanes.any():
                    for k, v in enumerate(_term_sums(params, x[lanes], is_far)):
                        sums[k, lanes] = v
        pole = (params.A + params.B != 0.0) & (np.abs(x) < params.pole_margin)
        bad = pole | ~np.isfinite(sums).all(axis=0)
        if bad.any():
            k = int(np.argmax(bad))
            raise _refusal(params, float(f[k]), float(x[k]), bool(pole[k]))
        return sums[0], sums[1], sums[2]
    x = float(f - params.c)
    if params.A + params.B != 0.0 and abs(x) < params.pole_margin:
        raise _refusal(params, f, x, True)
    phi, dphi, d2phi = _term_sums(params, x, abs(x) > 1.0)
    if not (math.isfinite(phi) and math.isfinite(dphi) and math.isfinite(d2phi)):
        raise _refusal(params, f, x, False)
    return phi, dphi, d2phi


def phi_ode_residual(
    params: SkrpParams,
    alpha: float,
    f: float,
    profile: SmoothFunction1D | None = None,
) -> float:
    """Left-minus-right residual of the profile ODE at f.

    ``profile`` replaces the closed form phi (default) with another phi.
    Zero (to roundoff) for the closed form with alpha = 1 on intervals where
    sgn(phi) matches the params' branch sign.
    """
    if profile is None:
        phi, dphi, d2phi = phi_closed(params, f)
    else:
        phi, dphi, d2phi = profile.value(f), profile.deriv(f), profile.deriv2(f)
    x = f - params.c
    sgn = math.copysign(1.0, phi) if phi != 0.0 else 1.0
    return x * x * d2phi + x * (params.m - x * alpha) * dphi - params.m * phi + sgn * params.kappa / 2.0


def phi_ode_integrate(
    params: SkrpParams,
    alpha: float,
    f0: float,
    phi0: float,
    dphi0: float,
    f: float,
) -> tuple[float, float]:
    """Numerical oracle: integrate the profile ODE from (f0, phi0, phi0') to f.

    Independent of the closed form: Taylor series of the ODE itself.  The
    ODE is linear with polynomial coefficients, so about x0 = f - c != 0 the
    coefficients of phi = sum a_k h^k follow from the three-term recurrence

        x0^2 (k+2)(k+1) a_{k+2} = r [k=0] - (2 x0 (k+1) k + (m x0 - alpha x0^2)(k+1)) a_{k+1}
                                  - (k(k-1) + (m - 2 alpha x0) k - m) a_k + alpha (k-1) a_{k-1}

    with r = -sgn(phi) kappa / 2, and converge for |h| < |x0|.  Steps keep
    |h| <= min(|x0| / m, 4), so the alternating terms of the x^-m and e^x
    modes cancel by at most a factor e^2 and e^8, and each sums until three
    successive terms of phi and h phi' fall below 1e-17 of their sums
    (G. Corliss & Y. F. Chang, ACM TOMS 8 (1982)).  A path that reaches or crosses the pole c, a step
    across which phi changes sign (the forcing jumps there), a non-finite
    state, or more than ``TAYLOR_TERM_CAP`` terms in all raises
    :class:`IntegrationFailure`, a non-finite one at its first term.  The
    state is summed in Python floats, which overflow without a warning.
    """
    f0, phi0, dphi0, f = float(f0), float(phi0), float(dphi0), float(f)
    if f == f0:
        return phi0, dphi0
    c, m = params.c, params.m
    if f0 == c or f == c or (f0 < c) != (f < c):
        raise IntegrationFailure(f"profile ODE path from f = {f0} to {f} meets the pole c = {c}")
    t, phi, dphi = f0, phi0, dphi0
    terms = 0
    while t != f:
        x0 = t - c
        h_max = min(abs(x0) / m, 4.0)
        last = abs(f - t) <= h_max
        h = f - t if last else math.copysign(h_max, f - t)
        sgn = math.copysign(1.0, phi) if phi != 0.0 else 1.0
        r = -sgn * params.kappa / 2.0
        x2, lin = x0 * x0, m * x0 - alpha * x0 * x0
        a_prev, a, a_next = 0.0, phi, dphi  # a_{k-1}, a_k, a_{k+1}
        # value and slope sum phi(t + h) and h phi'(t + h) term by term.
        value, slope, hk, k, small = phi + dphi * h, dphi * h, h, 0, 0
        while small < 3:
            a_new = (
                (r if k == 0 else 0.0)
                - (2.0 * x0 * (k + 1) * k + lin * (k + 1)) * a_next
                - (k * (k - 1) + (m - 2.0 * alpha * x0) * k - m) * a
                + alpha * (k - 1) * a_prev
            ) / (x2 * (k + 2) * (k + 1))
            k += 1
            a_prev, a, a_next = a, a_next, a_new
            hk *= h
            term = a_next * hk
            value += term
            slope += (k + 1) * term
            terms += 1
            if not (math.isfinite(value) and math.isfinite(slope)):
                raise IntegrationFailure(f"profile ODE from f = {f0} to {f} is not finite past f = {t}")
            if terms > TAYLOR_TERM_CAP:
                raise IntegrationFailure(
                    f"profile ODE from f = {f0} to {f} needs more than {TAYLOR_TERM_CAP} Taylor terms"
                )
            small = small + 1 if (k + 1) * abs(term) <= 1e-17 * (abs(value) + abs(slope)) else 0
        if (math.copysign(1.0, value) if value != 0.0 else 1.0) != sgn:
            raise IntegrationFailure(f"phi changes sign between f = {t} and f = {t + h}: the forcing jumps there")
        t = f if last else t + h
        phi, dphi = value, slope / h
    return phi, dphi


def soliton_coeff_profile(params: SkrpParams, alpha: float, f: float) -> float:
    """Soliton coefficient c = alpha phi + (alpha f_c - (m+1)) phi' - f_c phi''.

    Constant in f for the closed-form profile with alpha = 1 (the value is
    A/m! + phi_sign * kappa/(2m)); perturbing alpha breaks constancy.
    """
    phi, dphi, d2phi = phi_closed(params, f)
    x = f - params.c
    return alpha * phi + (alpha * x - (params.m + 1)) * dphi - x * d2phi


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced floats from start to stop, bit for bit
    ``numpy.linspace(start, stop, num).tolist()``: node i is i * step + start
    (i / (num - 1) * (stop - start) + start where step underflows to 0), and
    the last node is stop itself."""
    div = num - 1
    delta = stop - start
    step = delta / div
    nodes = [i * step + start for i in range(num)] if step != 0 else [i / div * delta + start for i in range(num)]
    nodes[-1] = stop
    return nodes


def _sign_change(q: Callable[[float], float], a: float, b: float) -> float:
    """The last float with Q >= 0 at a sign change of Q between a and b.

    Bisects on the sign of Q until the bracket's ends are adjacent floats
    and returns the end with Q > 0, or a point where Q is exactly 0.  Each
    half is halved first, so the midpoint cannot overflow, and a bracket
    across 0.0 ends after at most ~1,100 halvings through the subnormals.
    """
    pos, neg = (a, b) if q(a) > 0 else (b, a)
    while True:
        mid = 0.5 * pos + 0.5 * neg
        if mid == pos or mid == neg:
            return pos
        value = q(mid)
        if math.isnan(value):
            raise DomainError(f"Q is NaN at f = {mid!r}")
        if value == 0.0:
            return mid
        if value > 0:
            pos = mid
        else:
            neg = mid


def bounded_interval(interval: tuple[float, float], c: float, reach: float) -> tuple[float, float]:
    """``interval`` with an unbounded end cut ``reach`` past c, or ``reach``
    past its finite end when that lies farther out on the same side."""
    lo, hi = interval
    return (
        lo if math.isfinite(lo) else (c - reach if hi > c - reach else hi - reach),
        hi if math.isfinite(hi) else (c + reach if lo < c + reach else lo + reach),
    )


def q_domain(params: SkrpParams) -> list[tuple[float, float]]:
    """Maximal open subintervals of I on which Q > 0.

    Sign changes of phi and of f_c are bracketed on a 2048-point grid
    (:func:`linspace`), where Q is evaluated in the same Python floats as it
    is bisected on, and bisected to adjacent floats
    (:func:`_sign_change`), so an end where Q changes sign is the last float
    with Q >= 0; an unbounded end is scanned
    out to where the exponential/constant behaviour of the profile is
    settled, :func:`bounded_interval` with a reach of 60.  The scan compares
    the signs of neighbouring values, not their product, which underflows to
    -0.0 when both are below ~1e-162 in size: scaling A, B and kappa scales
    Q and must leave its zeros put.
    """
    lo, hi = params.I
    scan_lo, scan_hi = bounded_interval(params.I, params.c, 60.0)
    margin = params.pole_margin

    # Split at c, where f_c changes sign: a pole when A + B != 0 (the pieces
    # stop short of it), else an ordinary zero of Q, which a bracketing root
    # finder would miss by ~1e-21 and so leave a sliver interval.
    has_pole = params.A + params.B != 0.0
    cuts = [scan_lo, scan_hi]
    if scan_lo < params.c < scan_hi:
        cuts[1:1] = [params.c]
    pieces = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        if has_pole:
            left = left + margin if left == params.c else left
            right = right - margin if right == params.c else right
        if left < right:
            pieces.append((left, right))

    q = params.q
    intervals: list[tuple[float, float]] = []
    for left, right in pieces:
        xs = linspace(left + 1e-12 * (right - left), right - 1e-12 * (right - left), 2048)
        vals = [q(x) for x in xs]
        roots = []
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif vals[i] < 0.0 < vals[i + 1] or vals[i + 1] < 0.0 < vals[i]:
                roots.append(_sign_change(q, xs[i], xs[i + 1]))
        edges = sorted({left, right, *roots})
        for a_, b_ in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a_ + b_)
            if b_ > a_ and q(mid) > 0:
                b_out = b_
                if b_ == scan_hi and not math.isfinite(hi):
                    b_out = math.inf
                a_out = a_
                if a_ == scan_lo and not math.isfinite(lo):
                    a_out = -math.inf
                intervals.append((a_out, b_out))
    return intervals


def working_interval(params: SkrpParams) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """The first Q-positive interval, which ``skrp``, ``completeness`` and the
    chart assembly work on, and its float64 band; None if Q > 0 nowhere on I.

    The band keeps |f - c| > 0.05, and f - c < 12 above the pole: nearer the
    pole, or deeper in the exponential tail, the profile's terms pass 1e12
    and the exact cancellations of its identities drown in roundoff.  It
    may be empty, and below the pole its lower end may be -inf.
    """
    positive = q_domain(params)
    if not positive:
        return None
    lo, hi = positive[0]
    if lo >= params.c:
        return (lo, hi), (max(lo, params.c + BAND_POLE_GAP), min(hi, params.c + BAND_TAIL_REACH))
    return (lo, hi), (lo, min(hi, params.c - BAND_POLE_GAP))


# -- named profile sets -----------------------------------------------------------

_SKRP = {
    # Closed-form profile over CP^1 (kappa = 4, lambda_h = 1) with the
    # branch sign matching the positive profile; a = p = s / lambda_h = 2
    # gives a s = p^2 lambda_h, the relation the 2-form needs to close.
    "koiso-m2-A1B0": SkrpParams(
        m=2, kappa=4.0, c=0.0, A=1.0, B=0.0, I=(0.5, 2.5), s=2, a=2.0, p=2.0, phi_sign=+1
    ),
    # Variant over the flat base C^1 (kappa = 0, the hand-check values
    # phi(1) = 5/2 etc), where lambda_h = a s / p^2 = 1.
    "koiso-m2-A1B0-flatbase": SkrpParams(
        m=2, kappa=0.0, c=0.0, A=1.0, B=0.0, I=(0.3, 4.0), s=1, a=1.0, p=1.0
    ),
    # The same profile over CP^2 (m = 3, kappa = 6) and over the unit disc
    # (m = 2, kappa = -4): lambda_h = 2m / |kappa| = 1 in both.
    "koiso-m3-A1B0": SkrpParams(
        m=3, kappa=6.0, c=0.0, A=1.0, B=0.0, I=(0.5, 2.5), s=2, a=2.0, p=2.0, phi_sign=+1
    ),
    "koiso-m2-ball": SkrpParams(
        m=2, kappa=-4.0, c=0.0, A=1.0, B=0.0, I=(0.5, 2.5), s=2, a=2.0, p=2.0, phi_sign=+1
    ),
    # A + B = 0 makes the profile regular at f = c with a simple zero of Q
    # there; the second simple zero caps the interval: compact-extension case.
    "koiso-m2-compact": SkrpParams(
        m=2, kappa=4.0, c=0.0, A=1.0, B=-1.0, I=(0.0, 6.0), s=2, a=2.0, p=2.0, phi_sign=+1
    ),
    # Simple zero of Q at f = c, exponential growth to +inf: the convergent
    # dual tail makes the dual incomplete.
    "koiso-m2-tail": SkrpParams(
        m=2, kappa=4.0, c=0.0, A=-1.0, B=1.0, I=(0.0, math.inf), s=2, a=2.0, p=2.0, phi_sign=+1
    ),
    # Right endpoint is a simple zero of phi itself (not of f_c).
    "koiso-m2-capped": SkrpParams(
        m=2, kappa=1.0, c=0.0, A=1.0, B=-0.01, I=(0.05, 8.9), s=2, a=0.5, p=0.5, phi_sign=+1
    ),
    # The default branch (minus-sign constant) is consistent on
    # negative-profile intervals (here f_c < 0 with Q > 0).
    "negative-branch": SkrpParams(
        m=2, kappa=1.0, c=0.0, A=0.0, B=1.0, I=(-9.0, -2.6), s=1, a=1.0, p=1.0, phi_sign=-1
    ),
}


def skrp_fixture(name: str) -> SkrpParams:
    try:
        return _SKRP[name]
    except KeyError:
        raise UnknownFixture(f"unknown profile fixture {name!r}; known: {sorted(_SKRP)}") from None


_SYNTHETIC_Q = {
    # Simple zeros at both ends: finite length, smooth compact extension.
    "synthetic-simple-caps": lambda: QProfile(
        q=lambda f: f * (1.0 - f),
        dq=lambda f: 1.0 - 2.0 * f,
        interval=(0.0, 1.0),
        m=2,
    ),
    # Double zeros at both ends: infinite length toward each, complete.
    "synthetic-double-zero": lambda: QProfile(
        q=lambda f: (f * (1.0 - f)) ** 2,
        dq=lambda f: 2.0 * f * (1.0 - f) * (1.0 - 2.0 * f),
        interval=(0.0, 1.0),
        m=2,
    ),
}


def q_profile_fixture(name: str) -> QProfile | SkrpParams:
    if name in _SYNTHETIC_Q:
        return _SYNTHETIC_Q[name]()
    if name in _SKRP:
        return _SKRP[name]
    known = sorted(_SYNTHETIC_Q) + sorted(_SKRP)
    raise UnknownFixture(f"unknown completeness fixture {name!r}; known: {known}")
