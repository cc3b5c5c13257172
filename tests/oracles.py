"""Independent second routes that only the tests use.

Central finite differences check every field's jet derivatives, the
divergence-form Laplacian checks the Christoffel-symbol one, the
u = 1/(f - c) substitution checks the tail transformation of the
completeness integrals, and the closed-form tail asymptote checks the
u-substituted tail integrand.  None of them is on a command's path.
"""

import math
from collections.abc import Callable

import numpy as np

from soliton_lab import chart as ct
from soliton_lab import completeness as comp
from soliton_lab.errors import DomainError

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
