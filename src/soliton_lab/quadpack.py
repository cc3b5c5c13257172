"""Adaptive Gauss-Kronrod quadrature: a pure-Python port of QUADPACK's QAGS.

QAGS bisects the subinterval with the largest error estimate, integrates
each half with the 21-point Kronrod rule, and accelerates the sequence of
partial sums with Wynn's epsilon algorithm, so it handles integrable
endpoint singularities.  This module transcribes the double-precision
routines ``dqagse``, ``dqk21``, ``dqpsrt`` and ``dqelg`` statement by
statement: the same summation order, the machine constants of
``sys.float_info`` for ``EPMACH``/``UFLOW``/``OFLOW``, and Python floats
throughout, so ``quad`` returns the same value, error estimate and
evaluation count as ``scipy.integrate.quad`` on a finite interval.  The
interval lists and the extrapolation table keep the Fortran's 1-based
indices (element 0 is unused); the Kronrod rule's tables are 0-based.

QUADPACK: R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, *QUADPACK: A Subroutine Package for Automatic Integration*,
Springer Series in Computational Mathematics 1 (Springer, 1983).  QUADPACK
is in the public domain, and so is this transcription of it.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable

__all__ = ["IntegrationWarning", "quad", "qagse"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

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

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the interval",
    4: "the algorithm does not converge: roundoff error in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


class IntegrationWarning(UserWarning):
    """The quadrature ended with ``ier > 0``: the estimate may miss its tolerance."""


def quad(f: Callable[[float], float], a: float, b: float, *, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Integral of ``f`` over the finite interval [a, b] and its error estimate.

    Follows ``scipy.integrate.quad``: ``a == b`` gives (0, 0) without calling
    ``f``, reversed limits give the negated integral over [b, a], each value
    of ``f`` is converted with ``float()``, and a result that may miss the
    requested accuracy (QUADPACK's ``ier`` 1-5) emits
    :class:`IntegrationWarning`.  Non-finite limits, ``limit < 1`` and a
    tolerance pair QUADPACK rejects raise ``ValueError``.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got ({a}, {b})")
    if a == b:
        return 0.0, 0.0
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    flip = b < a
    if flip:
        a, b = b, a
    result, abserr, _, ier = qagse(f, a, b, epsabs, epsrel, limit)
    if ier == 6:
        raise ValueError("with epsabs <= 0, epsrel must exceed both 5e-29 and 50 * machine epsilon")
    if ier:
        warnings.warn(_MESSAGES[ier].format(limit=limit), IntegrationWarning, stacklevel=2)
    return (-result if flip else result), abserr


def _qk21(f, a, b):
    """dqk21: the 21-point Kronrod estimate over [a, b] with its error, the
    integral of |f| (resabs) and of |f - mean| (resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        absc = hlgth * _XGK[j]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) without the OverflowError a huge r raises in Python.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` descending in ``elist`` after a bisection and
    return the next interval to bisect as (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    # Subdivision may have raised the error estimate: move maxerr up first.
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # Only as many entries as subdivisions remain need to stay ordered.
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
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
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on the ``n`` partial sums
    in ``epstab``; returns (n, result, abserr, nres) with ``n`` possibly
    reduced when the table is shortened."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged.
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # Irregular behaviour: omit the rest of the table.
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # Shift the table.
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagse(f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, int]:
    """dqagse over [a, b] (Python floats, limit >= 1): (result, abserr, neval, ier).

    ``neval`` counts the integrand calls; ``ier`` is QUADPACK's code: 0 for
    success, 1 subdivision limit reached, 2 roundoff, 3 bad integrand
    behaviour, 4 extrapolation roundoff, 5 probably divergent, 6 invalid
    tolerances.
    """
    epmach, uflow, oflow = _EPMACH, _UFLOW, _OFLOW
    ier = 0
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(50.0 * epmach, 5e-29):
        return 0.0, 0.0, 0, 6

    # First approximation to the integral.
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * epmach * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier

    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = oflow
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * epmach) * defabs:
        ksgn = 1

    # Main loop: the Fortran's exits "go to 100" and "go to 115".
    exit_to = 100
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * epmach) * (abs(a2) + 1000.0 * uflow):
            ier = 4

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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            exit_to = 115
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on bisecting unless the next interval is the smallest one.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: bisect the larger
            # intervals first (lowering erlarg) before extrapolating.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Set the final result and error estimate.
    if exit_to == 100:
        if abserr == oflow:
            exit_to = 115
        elif ier + ierro == 0:
            exit_to = 110
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                exit_to = 115 if abserr / abs(result) > errsum / abs(area) else 110
            elif abserr > errsum:
                exit_to = 115
            elif area == 0.0:
                exit_to = 130
            else:
                exit_to = 110
    if exit_to == 110:
        # Test on divergence.
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            if area != 0.0:
                ratio = result / area
            else:  # the Fortran's IEEE quotient
                ratio = math.nan if result == 0.0 else math.copysign(math.inf, result) * math.copysign(1.0, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif exit_to == 115:
        # The global integral sum, accumulated in the Fortran's order.
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier
