"""Independent second routes that only the tests use.

Central finite differences check every field's jet derivatives, the
divergence-form Laplacian checks the Christoffel-symbol one, the
u = 1/(f - c) substitution checks the tail transformation of the
completeness integrals, and the closed-form tail asymptote checks the
u-substituted tail integrand, a restatement of QUADPACK's dqage checks
the package's QAG off the path it shares with scipy's QAGS, the
one-point curvature formulas check the chart's batched ones, Newton's
method on one float at a time checks the batched fiber-norm inversion,
one batched Kronrod pass over every grid segment checks the fiber-norm
table's scalar quadratures,
the array scan of Q on numpy's grid checks ``q_domain``'s float scan, and
numpy's LAPACK least squares on numpy's geometric grid checks the
completeness exponent fit.  None of them is on a command's path.
"""

import math
import sys
from collections.abc import Callable

import numpy as np

from soliton_lab import chart as ct
from soliton_lab import completeness as comp
from soliton_lab import fibernorm, profiles, quadpack
from soliton_lab.errors import ConvergenceFailure, DomainError

_EPS = np.finfo(float).eps


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with step h = cbrt(eps) * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    grad = np.empty(n)
    for i in range(n):
        h = _EPS ** (1.0 / 3.0) * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (func(xp) - func(xm)) / (2.0 * h)
    return grad


def fd_hessian(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian; step calibrated to eps**(1/4) for second
    differences (the cbrt step optimal for gradients is too small here)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    hess = np.empty((n, n))
    steps = [_EPS**0.25 * (1.0 + abs(x[i])) for i in range(n)]
    f0 = func(x)
    for i in range(n):
        hi = steps[i]
        xp, xm = x.copy(), x.copy()
        xp[i] += hi
        xm[i] -= hi
        hess[i, i] = (func(xp) - 2.0 * f0 + func(xm)) / (hi * hi)
        for j in range(i + 1, n):
            hj = steps[j]
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += [hi, hj]
            xpm[i] += hi
            xpm[j] -= hj
            xmp[i] -= hi
            xmp[j] += hj
            xmm[[i, j]] -= [hi, hj]
            val = (func(xpp) - func(xpm) - func(xmp) + func(xmm)) / (4.0 * hi * hj)
            hess[i, j] = hess[j, i] = val
    return hess


def laplacian_divergence_form(g: ct.MetricChart, f: ct.ScalarField, p) -> float:
    """lap f = det(g)^{-1/2} d_i(det(g)^{1/2} g^{ij} d_j f)."""
    G, dG, _ = g.components(p)
    G_inv = ct.metric_inverse(G)
    _, grad, hess_coords = f.evaluate(p)
    dG_inv = -np.einsum("ka,mab,bl->mkl", G_inv, dG, G_inv)
    dlog_sqrt_det = 0.5 * np.einsum("ij,mij->m", G_inv, dG)
    return float(
        np.einsum("ij,ij->", G_inv, hess_coords)
        + np.einsum("iij,j->", dG_inv, grad)
        + np.einsum("i,ij,j->", dlog_sqrt_det, G_inv, grad)
    )


# -- the curvature of one point ----------------------------------------------------
#
# The chart computes the curvature of a chunk of points in one batched pass.
# These are the same formulas on one point's (n, n)-shaped data, with no
# batch axis, as the chart evaluated them point by point; the batched pass
# equals them bit for bit.


def metric_inverse_at(G: np.ndarray) -> np.ndarray:
    inv_chol = np.linalg.inv(np.linalg.cholesky(G))
    return inv_chol.T @ inv_chol


def christoffel_at(G_inv: np.ndarray, dG: np.ndarray) -> np.ndarray:
    bracket = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    return 0.5 * np.einsum("kl,lij->kij", G_inv, bracket)


def christoffel_derivative_at(G_inv: np.ndarray, dG: np.ndarray, d2G: np.ndarray) -> np.ndarray:
    dG_inv = -np.einsum("ka,mab,bl->mkl", G_inv, dG, G_inv)
    bracket = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    dbracket = np.einsum("mijl->mlij", d2G) + np.einsum("mjil->mlij", d2G) - d2G
    return 0.5 * (
        np.einsum("mkl,lij->mkij", dG_inv, bracket) + np.einsum("kl,mlij->mkij", G_inv, dbracket)
    )


def ricci_at(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    ric = (
        np.einsum("kkij->ij", dgamma)
        - np.einsum("ikkj->ij", dgamma)
        + np.einsum("kkl,lij->ij", gamma, gamma)
        - np.einsum("kil,lkj->ij", gamma, gamma)
    )
    return 0.5 * (ric + ric.T)


def hessian_at(gamma: np.ndarray, grad: np.ndarray, hess_coords: np.ndarray) -> np.ndarray:
    hess = hess_coords - np.einsum("kij,k->ij", gamma, grad)
    return 0.5 * (hess + hess.T)


def point_geometry_at(g: ct.MetricChart, f: ct.ScalarField, p) -> ct.PointGeometry:
    """The geometry of (g, f) at p from the one-point formulas above."""
    G, dG, d2G = g.components(p)
    f_val, df, hess_coords = f.evaluate(p)
    G_inv = metric_inverse_at(G)
    gamma = christoffel_at(G_inv, dG)
    ric = ricci_at(gamma, christoffel_derivative_at(G_inv, dG, d2G))
    hess_f = hessian_at(gamma, df, hess_coords)
    lap_f = float(np.einsum("ij,ij->", G_inv, hess_f))
    return ct.PointGeometry(G, G_inv, ric, f_val, df, hess_f, lap_f, float(df @ G_inv @ df))


def ell_inverse(ell: fibernorm.EllMap, t: float) -> float:
    """f with ``ell.log_ell(f) = t`` by Newton's method on Python floats,
    one t at a time, from the map's Hermite start on the table bracket of t
    (linear on the bracket where that is NaN), until a step moves f by at
    most 1e-15 (1 + |f|)."""
    t_nodes = np.array(ell._t_nodes) if ell.increasing else -np.array(ell._t_nodes)
    tt = t if ell.increasing else -t
    if not (t_nodes[0] - 1e-12 <= tt <= t_nodes[-1] + 1e-12):
        raise DomainError(f"log ell = {t} outside ell-map range")
    i = min(max(int(np.searchsorted(t_nodes, tt)) - 1, 0), len(t_nodes) - 2)
    f = float(ell._hermite_starts(np.array([t]), np.array([i]))[0])
    if math.isnan(f):
        f = float(np.interp(tt, t_nodes[i : i + 2], ell._grid[i : i + 2]))
    for _ in range(fibernorm.NEWTON_STEPS):
        resid = ell.log_ell(f) - t
        f_new = min(max(f - resid * ell.profile.q(f) / ell.profile.a, ell.bounds[0]), ell.bounds[1])
        if abs(f_new - f) <= 1e-15 * (1.0 + abs(f)):
            return f_new
        f = f_new
    raise ConvergenceFailure(f"Newton on log ell = {t!r} did not settle (last f = {f!r}, residual {resid:.3e})")


def u_substituted_integral(integrand: Callable[[float], float], f1: float, f2: float, c: float = 0.0) -> float:
    """integral_{f1}^{f2} I(f) df through the substitution u = 1/(f - c)."""
    if not c < f1 < f2:
        raise DomainError("substitution needs c < f1 < f2")
    u_lo, u_hi = 1.0 / (f2 - c), 1.0 / (f1 - c)
    return float(comp._quad(lambda u: integrand(c + 1.0 / u) / (u * u), u_lo, u_hi, epsabs=1e-13, epsrel=1e-12))


def tail_log_asymptote(params, u: float) -> float:
    """log of exp((-1/(m-1) - 1/2) / u) * u^{-((m-1)/2 + 2)}, the leading
    behaviour of the u-substituted tail integrand when B != 0."""
    m = params.m
    return (-1.0 / (m - 1) - 0.5) / u - ((m - 1) / 2.0 + 2.0) * math.log(u)


def dqage(f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's dqage with key = 2, restated from the Fortran (Piessens et
    al., 1983) with its statement labels: (result, abserr, neval, ier).

    Written apart from ``quadpack.qage``, it keeps what the port leaves out:
    the ``neval`` counter of the Fortran, its ``go to`` structure and
    dqpsrt's ``nrmax`` bookkeeping.  The 21-point rule is the port's
    ``_qk21``, which the shared-path tests pin to scipy's bits.
    """
    epmach, uflow = sys.float_info.epsilon, sys.float_info.min
    ier, neval = 0, 0
    alist, blist, rlist, elist = ([0.0] * (limit + 2) for _ in range(4))
    iord = [0] * (limit + 2)
    if epsabs <= 0.0 and epsrel < max(0.5e2 * epmach, 0.5e-28):
        return 0.0, 0.0, 0, 6
    alist[1], blist[1] = a, b
    result, abserr, defabs, resabs = quadpack._qk21(f, a, b)
    last = 1
    rlist[1], elist[1], iord[1] = result, abserr, 1
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 0.5e2 * epmach * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if not (ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        errmax, maxerr, area, errsum = abserr, 1, result, abserr
        nrmax, iroff1, iroff2 = 1, 0, 0
        last = 2
        while True:  # do 30 last = 2, limit
            a1, b1 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr])
            a2, b2 = b1, blist[maxerr]
            area1, error1, resabs, defab1 = quadpack._qk21(f, a1, b1)
            area2, error2, resabs, defab2 = quadpack._qk21(f, a2, b2)
            neval += 1
            area12 = area1 + area2
            erro12 = error1 + error2
            errsum = errsum + erro12 - errmax
            area = area + area12 - rlist[maxerr]
            if defab1 != error1 and defab2 != error2:
                if abs(rlist[maxerr] - area12) <= 0.1e-4 * abs(area12) and erro12 >= 0.99 * errmax:
                    iroff1 += 1
                if last > 10 and erro12 > errmax:
                    iroff2 += 1
            rlist[maxerr] = area1  # label 5
            rlist[last] = area2
            errbnd = max(epsabs, epsrel * abs(area))
            if not errsum <= errbnd:
                if iroff1 >= 6 or iroff2 >= 20:
                    ier = 2
                if last == limit:
                    ier = 1
                if max(abs(a1), abs(b2)) <= (0.1e1 + 0.1e3 * epmach) * (abs(a2) + 0.1e4 * uflow):
                    ier = 3
            if error2 > error1:  # label 8, then 10
                alist[maxerr], alist[last], blist[last] = a2, a1, b1
                rlist[maxerr], rlist[last] = area2, area1
                elist[maxerr], elist[last] = error2, error1
            else:
                alist[last], blist[maxerr], blist[last] = a2, b1, b2
                elist[maxerr], elist[last] = error1, error2
            maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)  # label 20
            if ier != 0 or errsum <= errbnd:
                break
            last += 1
        result = 0.0  # label 40
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, 21 * (2 * neval + 1), ier  # label 60


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt, nrmax and all: (maxerr, ermax, nrmax) after inserting the two
    halves of the last bisection into the descending ``iord``."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]  # label 10
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last  # label 30
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd and not errmax >= elist[iord[i]]:  # do 40
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:  # label 50
            iord[jbnd], iord[jupbn] = maxerr, last
        else:  # label 60: insert errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i and not errmin < elist[iord[k]]:  # do 70
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last  # label 80, or iord(i) = last after do 70
    maxerr = iord[nrmax]  # label 90
    return maxerr, elist[maxerr], nrmax


def ell_table(ell: fibernorm.EllMap) -> np.ndarray:
    """The log-ell table of ``ell`` from one batched Kronrod pass: QAG's
    first step of its 256 grid segments and of the anchor's partial segment
    [grid[i0], f0] in one ``quadpack.first_steps`` call on numpy's
    ``np.linspace`` grid, with Q of the array path (:meth:`.EllMap._batch_integrand`),
    and :meth:`.EllMap._quad` on any lane that step does not finish; summed
    by ``np.cumsum`` and anchored so that log ell(f0) = 0."""
    lo, hi = ell.bounds
    grid = np.linspace(lo, hi, len(ell._grid))
    i0 = min(max(int(np.searchsorted(grid, ell.f0)) - 1, 0), len(grid) - 2)
    a, b = np.append(grid[:-1], grid[i0]), np.append(grid[1:], ell.f0)
    ints, _, done = quadpack.first_steps(ell._batch_integrand, a, b, epsabs=1e-14, epsrel=1e-13)
    for k in np.flatnonzero(~done):
        ints[k] = ell._quad(a[k], b[k])
    cumulative = np.concatenate([[0.0], np.cumsum(ints[:-1])])
    return cumulative - (cumulative[i0] + ints[-1])


def q_domain_array_scan(params: profiles.SkrpParams) -> list[tuple[float, float]]:
    """:func:`.profiles.q_domain` with its 2048-point scan of each piece run
    as one array: Q of ``np.linspace``'s grid through the array path of
    :func:`.profiles.phi_closed`, and neighbouring signs compared by
    ``np.sign``.  The cuts, the bisection and the assembly are the same."""
    lo, hi = params.I
    scan_lo, scan_hi = profiles.bounded_interval(params.I, params.c, 60.0)
    margin = params.pole_margin
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
    intervals = []
    for left, right in pieces:
        grid = np.linspace(left + 1e-12 * (right - left), right - 1e-12 * (right - left), 2048)
        vals = q(grid)
        signs = np.sign(vals)
        xs = grid.tolist()
        roots = []
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif signs[i] * signs[i + 1] < 0:
                roots.append(profiles._sign_change(q, xs[i], xs[i + 1]))
        edges = sorted({left, right, *roots})
        for a_, b_ in zip(edges[:-1], edges[1:]):
            if b_ > a_ and q(0.5 * (a_ + b_)) > 0:
                a_out = -math.inf if a_ == scan_lo and not math.isfinite(lo) else a_
                b_out = math.inf if b_ == scan_hi and not math.isfinite(hi) else b_
                intervals.append((a_out, b_out))
    return intervals


def exponent_fit_lstsq(integrand: Callable[[float], float], a: float, lo: float, hi: float) -> float:
    """The slope of log integrand against log (f - a) on ``np.geomspace(lo,
    hi, 25)``, fitted by ``np.linalg.lstsq`` (LAPACK) on the design matrix
    [log (f - a), 1]."""
    offsets = np.geomspace(lo, hi, 25)
    logs = np.log(offsets)
    vals = np.log(np.array([integrand(a + d) for d in offsets]))
    coef, _, _, _ = np.linalg.lstsq(np.stack([logs, np.ones_like(logs)], axis=1), vals, rcond=None)
    return float(coef[0])
