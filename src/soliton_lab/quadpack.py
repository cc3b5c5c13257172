"""Adaptive Gauss-Kronrod quadrature: a pure-Python port of QUADPACK's QAG.

QAG bisects the subinterval with the largest error estimate and integrates
each half with the 21-point Kronrod rule until the summed error estimate
meets the tolerance; it does no extrapolation, so it is meant for smooth
integrands over a finite interval, which is what every caller passes (the
fiber-norm map and the completeness truncation ladder both stop short of
any singular end).  This module transcribes the double-precision routines
``dqage`` (with ``key = 2``), ``dqk21`` and ``dqpsrt`` (at ``nrmax = 1``)
statement by statement: the same summation order, the machine constants of
``sys.float_info`` for ``EPMACH``/``UFLOW``, and Python floats throughout.
The interval lists keep the Fortran's 1-based indices (element 0 is
unused); the Kronrod rule's tables are 0-based.  As in QUADPACK, a missed
tolerance is the status ``ier`` returned to the caller, never a warning.
:func:`first_steps` takes QAG's first step over many intervals at once,
with ``dqk21``'s sums on numpy arrays, for the fiber-norm map's inversion,
which integrates many short intervals of a chunk of points and needs the
full :func:`quad` only where it goes on; it alone imports numpy, when it is
called, so every other caller runs on Python floats.

``scipy.integrate.quad`` runs QAGS (``dqagse``), which adds Wynn's epsilon
extrapolation to the same bisection.  The two agree bit for bit (value,
error estimate and evaluation count) on the shared path only: a call that
QAGS finishes with ``ier = 0`` within two bisections (at most 105
integrand evaluations).  Beyond that QAGS may adopt an extrapolated
estimate, and the results differ within their error estimates.

QUADPACK: R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, *QUADPACK: A Subroutine Package for Automatic Integration*,
Springer Series in Computational Mathematics 1 (Springer, 1983).  QUADPACK
is in the public domain, and so is this transcription of it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LIMIT", "quad", "qage", "first_steps"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# Subintervals QAG may make: every caller asks for the same bound.
LIMIT = 200

# 21-point Kronrod abscissae (xgk), with the 10-point Gauss nodes at the even
# (1-based) positions; the Kronrod weights (wgk) and the Gauss weights (wg).
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def quad(f: Callable[[float], float], a: float, b: float, *, epsabs: float, epsrel: float) -> tuple[float, float, int]:
    """Integral of ``f`` over the finite interval [a, b]: (value, abserr, ier).

    ``ier`` is :func:`qage`'s code: 0, or 1-3 when the value may miss the
    tolerance, which the caller judges.  ``a == b`` gives (0, 0, 0) without
    calling ``f``; each value of ``f`` is converted with ``float()``; at most
    :data:`LIMIT` subintervals are made.  Non-finite limits and a tolerance
    pair QUADPACK rejects raise ``ValueError``.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got ({a}, {b})")
    if a == b:
        return 0.0, 0.0, 0
    result, abserr, _, ier = qage(f, a, b, epsabs, epsrel, LIMIT)
    if ier == 6:
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 and 50 * machine epsilon")
    return result, abserr, ier


def first_steps(f: Callable[[np.ndarray], np.ndarray], a, b, *, epsabs: float, epsrel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QAG's first step over each interval [a[k], b[k]] at once: (value,
    abserr, done), arrays of the limits' 1-D shape.

    ``f`` is called once, on a 1-D array of all 21 nodes of every interval,
    zero-width ones included, and returns their values.  value and abserr
    are the 21-point Kronrod estimate and error of :func:`_qk21`, whose sums
    (:func:`_qk21_sums`) run here on arrays, so node values equal to a
    scalar call's give its bits (min(1, r**1.5) goes through Python floats,
    as numpy's pow may differ from libm's in the last place).  ``done`` marks
    the intervals on which :func:`quad` returns at this step with ``ier =
    0``: a zero-width interval, which gives (0, 0) as in :func:`quad`, or
    finite limits and node values whose estimate :func:`qage` accepts.  Any
    other interval needs :func:`quad` itself.
    """
    import numpy as np

    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 and 50 * machine epsilon")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):  # lanes with non-finite limits or values are not done
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        absc = hlgth * np.array(_XGK[:10])[:, None]
        nodes = np.concatenate([centr[None], centr - absc, centr + absc])
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    with np.errstate(all="ignore"):
        result, abserr, resabs, resasc = _qk21_sums(values[0], values[1:11], values[11:], hlgth)
        scaled = (resasc != 0.0) & (abserr != 0.0)
        ratios = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
        abserr[scaled] = resasc[scaled] * np.array([r**1.5 if r < 1.0 else 1.0 for r in ratios])
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
        # qage's return after its first estimate, without ier = 2 (roundoff).
        errbnd = np.maximum(epsabs, epsrel * np.abs(result))
        roundoff = (abserr <= 50.0 * _EPMACH * resabs) & (abserr > errbnd)
        accepted = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    finite = np.isfinite(a) & np.isfinite(b)
    done = finite & np.isfinite(values).all(axis=0) & accepted & ~roundoff
    empty = finite & (a == b)
    return np.where(empty, 0.0, result), np.where(empty, 0.0, abserr), done | empty


def _qk21(f, a, b):
    """dqk21: the 21-point Kronrod estimate over [a, b] with its error, the
    integral of |f| (resabs) and of |f - mean| (resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(centr))
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        absc = hlgth * _XGK[j]
        fv1[j] = float(f(centr - absc))
        fv2[j] = float(f(centr + absc))
    result, abserr, resabs, resasc = _qk21_sums(fc, fv1, fv2, hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) without the OverflowError a huge r raises in Python.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qk21_sums(fc, fv1, fv2, hlgth):
    """dqk21's sums over the values at the centre (fc) and at centr -+
    hlgth * xgk[j] (fv1[j], fv2[j]), in its order, on Python floats or
    elementwise on numpy arrays alike: (result, abserr, resabs, resasc)
    before abserr is rescaled by resasc and bounded below by roundoff."""
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    return resk * hlgth, abs((resk - resg) * hlgth), resabs * dhlgth, resasc * dhlgth


def _qpsrt(limit, last, maxerr, elist, iord):
    """dqpsrt where ``nrmax`` stays 1, as under QAG (its move-up loop serves
    QAGS's extrapolation): keep ``iord`` descending in ``elist`` after a
    bisection and return (maxerr, errmax), the next interval to bisect.  Its
    ``last <= 2`` branch is what the insertion below does at maxerr = 1."""
    errmax = elist[maxerr]
    # Only as many entries as subdivisions remain need to stay ordered.
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(2, jbnd + 1):
        # Insert errmax top-down, then errmin bottom-up.
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[1]
    return maxerr, elist[maxerr]


def qage(f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, int]:
    """dqage over [a, b] (Python floats, limit >= 1): (result, abserr, neval, ier).

    ``neval`` counts the integrand calls; ``ier`` is QUADPACK's code: 0 for
    success, 1 subdivision limit reached, 2 roundoff, 3 bad integrand
    behaviour (a subinterval too small to bisect), 6 invalid tolerances.
    """
    epmach, uflow = _EPMACH, _UFLOW
    ier = 0
    if epsabs <= 0.0 and epsrel < max(50.0 * epmach, 5e-29):
        return 0.0, 0.0, 0, 6

    # First approximation to the integral.
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    last = 1
    if abserr <= 50.0 * epmach * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier

    # The interval lists, needed only once the first estimate is rejected.
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    rlist[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    iroff1 = iroff2 = 0

    for last in range(2, limit + 1):
        # Bisect the subinterval with the largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # The Fortran's "errsum <= errbnd, go to 8", so a NaN sum sets the flags.
        if not errsum <= errbnd:
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == limit:
                ier = 1
            if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * epmach) * (abs(a2) + 1000.0 * uflow):
                ier = 3

        # Append the new intervals to the list.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax = _qpsrt(limit, last, maxerr, elist, iord)
        if ier != 0 or errsum <= errbnd:
            break

    # The global integral sum, accumulated in the Fortran's order.
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, 42 * last - 21, ier
