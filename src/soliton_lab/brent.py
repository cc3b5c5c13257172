"""Brent's bracketing root finder: a pure-Python port of scipy's ``brentq.c``.

Brent's method keeps a bracket [xcur, xblk] with a sign change and steps by
inverse quadratic (or secant) interpolation when that step is short enough,
else by bisection, so it converges superlinearly on smooth functions and
never leaves the bracket.  This module transcribes scipy's C routine
statement by statement, in its operation order and with Python floats, and
follows scipy's ``brentq`` wrapper: each function value goes through
``float()`` and a NaN value stops the search.  So, at the same tolerances,
``brentq_core`` returns the same root, after the same iterations and
function calls, as ``scipy.optimize.brentq``.  ``brentq`` fixes them at the
package's one use, ``q_domain``: ``xtol = 1e-14``, scipy's ``rtol = 4 * eps``
and ``maxiter = 100``.

C divides by zero to +-inf or nan, and the step test that follows is then
false, so the C code bisects; Python raises ``ZeroDivisionError`` instead,
and the port bisects at exactly those points.  Failures raise the package's
errors: :class:`~soliton_lab.errors.DomainError` for a NaN value or a bracket
without a sign change, :class:`~soliton_lab.errors.ConvergenceFailure` when
``MAXITER`` runs out.

R. P. Brent, *Algorithms for Minimization without Derivatives*
(Prentice-Hall, 1973), ch. 4.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .errors import ConvergenceFailure, DomainError

__all__ = ["brentq", "brentq_core"]

XTOL = 1e-14
RTOL = 4.0 * sys.float_info.epsilon
MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """A zero of ``f`` in [a, b], where ``f(a)`` and ``f(b)`` differ in sign.

    The root is within ``XTOL + RTOL * |root|`` of a sign change of ``f``.
    """
    root, iterations, _, converged = brentq_core(f, a, b, XTOL, RTOL, MAXITER)
    if not converged:
        raise ConvergenceFailure(f"brentq failed to converge after {iterations} iterations, value is {root!r}")
    return root


def brentq_core(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float, maxiter: int) -> tuple[float, int, int, bool]:
    """scipy's ``brentq.c``: (root, iterations, function calls, converged).

    A zero value at an end returns that end with 0 iterations (scipy leaves
    the count unset there).  Running out of ``maxiter`` returns the last
    iterate unconverged.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"brentq: the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    funcalls = 2
    if fpre == 0.0:
        return xpre, 0, funcalls, True
    if fcur == 0.0:
        return xcur, 0, funcalls, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"brentq: f(a) = {fpre!r} and f(b) = {fcur!r} must have different signs")
    iterations = 0
    for _ in range(maxiter):
        iterations += 1
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations, funcalls, True

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C's quotient is +-inf or nan: either fails the step test
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = value(xcur)
        funcalls += 1
    return xcur, iterations, funcalls, False
