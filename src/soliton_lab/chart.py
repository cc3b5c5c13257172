"""Coordinate-chart differential geometry.

Everything lives on a single chart: a :class:`MetricChart` supplies the
metric components together with first and second coordinate derivatives
(exact, via the jet engine), and a :class:`ScalarField` supplies a function
value with gradient and Hessian-of-coordinates.  On top of these the module
computes Christoffel symbols, Ricci curvature and metric Hessians, bundles a
point's soliton-equation data into one :class:`PointGeometry`, and runs the
dual-path consistency checks for the conformal-change identities

    hess(f; g/tau^2) = hess(f; g) + tau^{-1} [2 dtau (.) df - g(grad tau, grad f) g]

and

    ric(g/tau^2) = ric(g) + (n-2) tau^{-1} hess(tau)
                   + [tau^{-1} lap(tau) - (n-1) tau^{-2} |grad tau|^2] g,

with the variant of the Ricci identity in which tau is a function of f and
the Hessian of tau is expanded through tau', tau''.

The points of a list are evaluated a chunk of at most :data:`CHUNK` at a
time: :func:`point_jets` evaluates the chunk's jets once, and
:func:`point_geometries` runs the curvature formulas once on the chunk's
stacked metric data, whose leading axis runs over its points.  One point is
a chunk of one, so :func:`christoffel`, :func:`ricci`, :func:`hessian` and
:func:`point_geometry` read the same formulas, and a point's data does not
depend on the chunk it is in.

Sign conventions (validated by the constant-curvature oracles in the test
suite): the unit round sphere has ric = (n-1) g, and lap f = trace_g hess f,
so lap(|x|^2 / 2) = n on flat space.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DegenerateConformalFactor, DomainError, SingularMetric
from .sampling import Box

__all__ = [
    "as_point",
    "ScalarField",
    "SmoothFunction1D",
    "compose_with_field",
    "MetricChart",
    "christoffel",
    "ricci",
    "hessian",
    "CHUNK",
    "point_jets",
    "PointGeometry",
    "point_geometry",
    "point_geometries",
    "tensor_gnorm",
    "metric_inverse",
    "conformal_hessian_check",
    "conformal_ricci_check",
]

def as_point(coords: Sequence[float] | np.ndarray, dim: int | None = None) -> np.ndarray:
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"point must be a flat coordinate vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DomainError(f"point has {p.shape[0]} coordinates, chart expects {dim}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite coordinates")
    return p


@dataclass(frozen=True)
class SmoothFunction1D:
    """A smooth function of one real variable with two derivatives attached."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    deriv2: Callable[[float], float]

    def jet(self, x: ad.Jet) -> ad.Jet:
        return ad.lift_entrywise(x, lambda v: (self.value(v), self.deriv(v), self.deriv2(v)))


class ScalarField:
    """Smooth real function on a chart, evaluable with derivatives to order 2.

    The evaluator is a jet function: it receives the coordinate jets of a
    point and returns a :class:`~soliton_lab.autodiff.Jet` (or a plain float
    for constants).  Evaluation is pure, so fields are safe for concurrent
    read-only use.
    """

    def __init__(self, fn: Callable, dim: int, name: str = ""):
        self._fn = fn
        self.dim = dim
        self.name = name

    def jet(self, jets) -> ad.Jet:
        """The field's jet at the point, or batch of points, whose coordinate
        jets are ``jets``; a constant evaluator gives a constant jet."""
        return _as_jet(self._fn(jets), len(jets))

    def evaluate(self, p, jet: ad.Jet | None = None) -> tuple[float, np.ndarray, np.ndarray]:
        """Return (value, gradient, coordinate Hessian) at ``p``.  ``jet`` is
        the field's jet at p where the caller holds it (from
        :func:`point_jets`, which has checked p), so the field is not
        evaluated again."""
        out = ad.at(self.jet(ad.seed(as_point(p, self.dim)[None])), 0, 0) if jet is None else jet
        return out.val, out.grad, out.hess

    def __call__(self, p) -> float:
        return self.evaluate(p)[0]

    @staticmethod
    def constant(value: float, dim: int, name: str = "const") -> "ScalarField":
        return ScalarField(lambda jets: float(value), dim, name)


class FieldOfField(ScalarField):
    """tau = H(f) for a 1-d profile H and a base field f.

    Keeping the profile accessible lets the conformal Ricci check expand the
    Hessian of tau through H', H''.
    """

    def __init__(self, profile: SmoothFunction1D, base: ScalarField, name: str = ""):
        super().__init__(lambda jets: profile.jet(base.jet(jets)), base.dim, name)
        self.profile = profile
        self.base = base


def compose_with_field(profile: SmoothFunction1D, base: ScalarField, name: str = "") -> FieldOfField:
    return FieldOfField(profile, base, name)


def _as_jet(x, nvars: int) -> ad.Jet:
    if isinstance(x, ad.Jet):
        return x
    return ad.constant(float(x), nvars)


class MetricChart:
    """Riemannian metric on a coordinate box with exact derivatives to order 2.

    Parameters
    ----------
    jet_fn : callable
        Maps the coordinate jets of a batch of points (seeded from a ``(B, n)``
        array) to one :class:`~soliton_lab.autodiff.Jet` of the components
        g_ij, of value shape ``(n, n, B)`` (or ``(n, n)`` for a constant).
        Only its upper triangle is read; :meth:`components` mirrors it, so
        the metric data is symmetric bit for bit.
    dim : int
        Chart dimension (n >= 2).
    domain : Box
        Coordinate box on which the components are valid.
    """

    def __init__(self, jet_fn, dim: int, domain: Box, name: str = ""):
        if dim < 2:
            raise ValueError("metric charts need dimension n >= 2")
        if domain.dim != dim:
            raise ValueError("domain box dimension does not match chart dimension")
        self._jet_fn = jet_fn
        self._lower = np.tril_indices(dim, -1)
        self.dim = dim
        self.domain = domain
        self.name = name

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_jets(component_fn, dim: int, domain: Box, name: str = "") -> "MetricChart":
        """Metric whose components are given as a jet function.

        ``component_fn`` receives the coordinate jets and returns either one
        ``(n, n)``-valued :class:`~soliton_lab.autodiff.Jet` or an n x n
        nested sequence of jets/floats, which is stacked into one.
        """

        def jet_fn(jets):
            raw = component_fn(jets)
            if isinstance(raw, ad.Jet):
                return raw
            return ad.stack([ad.stack([_as_jet(entry, dim) for entry in row]) for row in raw])

        return MetricChart(jet_fn, dim, domain, name)

    @staticmethod
    def euclidean(dim: int, domain: Box | None = None, name: str = "euclidean") -> "MetricChart":
        domain = domain or Box([-1.0] * dim, [1.0] * dim)
        identity = ad.Jet(np.eye(dim), np.zeros((dim, dim, dim)), np.zeros((dim, dim, dim, dim)))
        return MetricChart(lambda jets: identity, dim, domain, name)

    def conformal_scale(self, factor: ScalarField, name: str = "") -> "MetricChart":
        """Metric ``u * g`` for a positive scalar field ``u``.

        The scaled components are the jet product of u and g, so their
        derivatives come from the product rule, never from re-differencing,
        and the scaled chart keeps the full accuracy of the base chart.
        """
        base_jet = self._jet_fn

        def jet_fn(jets):
            base = base_jet(jets)
            # A constant metric gets the batch axis, which a field's jet has last.
            return factor.jet(jets) * (base if base.val.ndim > 2 else ad.batch_axis(base))

        return MetricChart(jet_fn, self.dim, self.domain, name or f"{self.name}*scaled")

    # -- evaluation ----------------------------------------------------------

    def checked_point(self, p) -> np.ndarray:
        """``p`` as a coordinate vector of this chart; :class:`DomainError`
        unless it is one and lies in the domain."""
        p = as_point(p, self.dim)
        if not self.domain.contains(p):
            raise DomainError(f"point {p.tolist()} outside chart domain {self.domain}")
        return p

    def components(self, p, jet: ad.Jet | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(G, dG, d2G)`` at ``p``: ``G[i, j] = g_ij``, ``dG[k, i, j] = d_k g_ij``
        and ``d2G[k, l, i, j] = d_k d_l g_ij``.  ``jet`` is the components'
        jet at p where the caller holds it (from :func:`point_jets`, which
        has checked p), so the metric is not evaluated again."""
        raw = ad.at(self._jet_fn(ad.seed(self.checked_point(p)[None])), 0, 2) if jet is None else jet
        n = self.dim
        if raw.val.shape != (n, n):
            raise ValueError(f"metric jet has value shape {raw.val.shape}, expected {(n, n)}")
        lower = self._lower
        upper = lower[::-1]
        G = raw.val.copy()
        dG = raw.grad.transpose(2, 0, 1).copy()
        d2G = raw.hess.transpose(2, 3, 0, 1).copy()
        G[lower] = G[upper]
        dG[:, lower[0], lower[1]] = dG[:, upper[0], upper[1]]
        d2G[:, :, lower[0], lower[1]] = d2G[:, :, upper[0], upper[1]]
        return G, dG, d2G

    def matrix(self, p, jet: ad.Jet | None = None) -> np.ndarray:
        return self.components(p, jet)[0]


# Sample points whose jets and curvature are evaluated together.  A chunk's
# jet and curvature arrays, and the numpy temporaries that build them, grow
# with its size.  Traced allocations of a residual report peak at
#
#   points per chunk                      1     32     64    128    all
#   Kahler chart, 800 points            0.1    0.6    1.1    2.1   11.0 MiB
#   gaussian-soliton-n5, 200 points     0.1    0.8    1.6    2.6    4.1 MiB
#
# (the n = 5 dual, whose (B, n, n, n, n) second derivatives are the largest
# arrays), in a process of about 38 MiB whose benchmarked peak RSS may grow
# by 3%.  On a 2-core x86-64 host (best of 5) the 800-point Kahler report
# takes 1.35 s one point at a time, 0.10 s at 32 points, 0.084 s at 64 and
# 0.073 s at 128.
CHUNK = 32


def point_jets(g: MetricChart, points, *fields: ScalarField) -> Iterator[tuple[np.ndarray, list[ad.Jet]]]:
    """Each of ``points`` (shape (N, n)) in order, with g's components jet
    and each field's jet there.

    The jets are evaluated once per chunk of at most :data:`CHUNK`
    consecutive points, seeded with the chunk as a batch, after every point
    of the chunk has passed the domain check (:func:`_checked_chunk`); a
    point's jets are its slices, which ``components(p, jet)`` and
    ``evaluate(p, jet)`` read.  Each point's data equals, bit for bit, what
    evaluating at that point alone gives.
    """
    for start in range(0, len(points), CHUNK):
        chunk = _checked_chunk(g, points[start : start + CHUNK])
        jets = ad.seed(chunk)
        batch = [(g._jet_fn(jets), 2)] + [(f.jet(jets), 0) for f in fields]
        for k, p in enumerate(chunk):
            point = [ad.at(jet, k, rank) for jet, rank in batch]
            if k == len(chunk) - 1:
                # Released before the caller uses the chunk's last point, when
                # it builds the chunk's curvature or the next chunk's jets.
                del batch
            yield p, point


def _checked_chunk(g: MetricChart, points) -> np.ndarray:
    """``points`` as a ``(B, n)`` array of g's coordinates, checked with one
    array comparison; where a point fails, the :class:`DomainError` that
    :meth:`MetricChart.checked_point` raises for the first such point."""
    try:
        chunk = np.array(points, dtype=float)
    except ValueError:  # points of unequal lengths
        chunk = None
    domain = g.domain
    if (
        chunk is None
        or chunk.shape[1:] != (g.dim,)
        or not np.all(np.isfinite(chunk) & (chunk >= domain.lo) & (chunk <= domain.hi))
    ):
        for p in points:
            g.checked_point(p)
    return chunk


# -- linear algebra -------------------------------------------------------------


def metric_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse metric via Cholesky, of one ``(n, n)`` matrix or of each of a
    ``(B, n, n)`` stack; raises SingularMetric when one is not SPD."""
    try:
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric matrix is not positive definite: {exc}") from exc
    inv_chol = np.linalg.inv(chol)
    return np.swapaxes(inv_chol, -1, -2) @ inv_chol


def tensor_gnorm(G_inv: np.ndarray, T: np.ndarray) -> float:
    """Metric norm |T|_g of a covariant 2-tensor."""
    return float(np.sqrt(max(np.einsum("ik,jl,ij,kl->", G_inv, G_inv, T, T), 0.0)))


# -- curvature ----------------------------------------------------------------


def christoffel(g: MetricChart, p) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} = (1/2) g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""
    G, dG, _ = g.components(p)
    return _christoffel_from(metric_inverse(G[None]), dG[None])[0]


def ricci(g: MetricChart, p) -> np.ndarray:
    """Ricci tensor R_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij - Gamma^k_il Gamma^l_kj."""
    G, dG, d2G = g.components(p)
    G_inv = metric_inverse(G[None])
    return _ricci_from(_christoffel_from(G_inv, dG[None]), _christoffel_derivative_from(G_inv, dG[None], d2G[None]))[0]


# The formulas behind the public functions above and below, on
# already-evaluated metric data of a batch of points: the leading axis z of
# every argument and result runs over the batch, and one point is a batch
# of one.  PointGeometry reads the same ones, so a chunk's geometries and
# the reference functions agree bit for bit.


def _christoffel_from(G_inv: np.ndarray, dG: np.ndarray) -> np.ndarray:
    # dG[z, k, i, j] = d_k g_ij
    bracket = np.einsum("zijl->zlij", dG) + np.einsum("zjil->zlij", dG) - dG
    return 0.5 * np.einsum("zkl,zlij->zkij", G_inv, bracket)


def _christoffel_derivative_from(G_inv: np.ndarray, dG: np.ndarray, d2G: np.ndarray) -> np.ndarray:
    # d_m g^{kl} = - g^{ka} (d_m g_ab) g^{bl}
    dG_inv = -np.einsum("zka,zmab,zbl->zmkl", G_inv, dG, G_inv)
    bracket = np.einsum("zijl->zlij", dG) + np.einsum("zjil->zlij", dG) - dG
    # C order, so that a point's dgamma does not depend on its chunk: from
    # n = 6 on, numpy lays this sum out in another order at some chunk sizes,
    # and einsum sums in an order that follows its operands' layout.
    dbracket = np.ascontiguousarray(np.einsum("zmijl->zmlij", d2G) + np.einsum("zmjil->zmlij", d2G) - d2G)
    # 0.5 (d g^{-1} bracket + g^{-1} dbracket), summed in place: a chunk's
    # (B, n, n, n, n) temporaries are what its peak memory is made of.
    dgamma = np.einsum("zkl,zmlij->zmkij", G_inv, dbracket)
    del dbracket
    dgamma += np.einsum("zmkl,zlij->zmkij", dG_inv, bracket)
    dgamma *= 0.5
    return dgamma


def _ricci_from(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    ric = (
        np.einsum("zkkij->zij", dgamma)
        - np.einsum("zikkj->zij", dgamma)
        + np.einsum("zkkl,zlij->zij", gamma, gamma)
        - np.einsum("zkil,zlkj->zij", gamma, gamma)
    )
    return 0.5 * (ric + np.swapaxes(ric, 1, 2))


def _hessian_from(gamma: np.ndarray, grad: np.ndarray, hess_coords: np.ndarray) -> np.ndarray:
    hess = hess_coords - np.einsum("zkij,zk->zij", gamma, grad)
    return 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _trace_g(G_inv: np.ndarray, T: np.ndarray) -> np.ndarray:
    return np.einsum("zij,zij->z", G_inv, T)


def _norm_sq_g(G_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Two matrix products, as v @ G_inv @ v at one point; a three-operand
    # einsum sums in another order.
    return (v[:, None, :] @ G_inv @ v[:, :, None])[:, 0, 0]


# -- scalar-field calculus ------------------------------------------------------


def hessian(g: MetricChart, f: ScalarField, p) -> np.ndarray:
    """Metric Hessian (hess f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    _, grad, hess_coords = f.evaluate(p)
    return _hessian_from(christoffel(g, p)[None], grad[None], hess_coords[None])[0]


@dataclass(frozen=True)
class PointGeometry:
    """The metric and field data of one point, from a single evaluation.

    Holds the metric G, its inverse, the Ricci tensor, the field value f,
    its coordinate gradient df and metric Hessian, and lap f and |grad f|^2
    derived from those.  Build one with :func:`point_geometry`, or those of
    a list of points with :func:`point_geometries`; its arrays are the
    point's slices of its chunk's arrays.  G, ric and hess_f equal, bit for
    bit, what :meth:`MetricChart.matrix`, :func:`ricci` and :func:`hessian`
    compute at the same point.
    """

    G: np.ndarray = field(repr=False)
    G_inv: np.ndarray = field(repr=False)
    ric: np.ndarray = field(repr=False)
    f: float
    df: np.ndarray = field(repr=False)
    hess_f: np.ndarray = field(repr=False)
    lap_f: float
    grad_sq: float


def point_geometry(g: MetricChart, f: ScalarField, p) -> PointGeometry:
    """Evaluate g and f once at p and derive the soliton-equation quantities:
    :func:`point_geometries` of the one point."""
    return next(point_geometries(g, f, [p]))


def point_geometries(g: MetricChart, f: ScalarField, points) -> Iterator[PointGeometry]:
    """The :class:`PointGeometry` of each of ``points`` in order, with one
    evaluation of the jets (:func:`point_jets`) and one batched curvature
    pass per chunk of at most :data:`CHUNK` points.

    Each point's components and field values are read alone, into arrays
    allocated for the chunk; the metric's derivative arrays are released
    before the chunk's geometries are yielded.
    """
    n, count = g.dim, len(points)
    stream = point_jets(g, points, f)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        G, dG, d2G = np.empty((size, n, n)), np.empty((size, n, n, n)), np.empty((size, n, n, n, n))
        f_val, df, hess_coords = np.empty(size), np.empty((size, n)), np.empty((size, n, n))
        # range first, so that the chunk's last point does not pull the next chunk's jets
        for k, (p, (g_jet, f_jet)) in zip(range(size), stream):
            G[k], dG[k], d2G[k] = g.components(p, g_jet)
            f_val[k], df[k], hess_coords[k] = f.evaluate(p, f_jet)
        G_inv = metric_inverse(G)
        gamma = _christoffel_from(G_inv, dG)
        ric = _ricci_from(gamma, _christoffel_derivative_from(G_inv, dG, d2G))
        del dG, d2G
        hess_f = _hessian_from(gamma, df, hess_coords)
        lap_f, grad_sq = _trace_g(G_inv, hess_f).tolist(), _norm_sq_g(G_inv, df).tolist()
        for k in range(size):
            yield PointGeometry(G[k], G_inv[k], ric[k], f_val[k], df[k], hess_f[k], lap_f[k], grad_sq[k])


# -- conformal-change identities ------------------------------------------------


# t -> t^-2, the factor that turns g into g / tau^2.
_INVERSE_SQUARE = SmoothFunction1D(lambda t: t**-2, lambda t: -2 * t**-3, lambda t: 6 * t**-4)


def _check_conformal_factor(tau_val: float):
    if abs(tau_val) < 1e-12:
        raise DegenerateConformalFactor(f"conformal factor tau = {tau_val!r} vanishes")


def conformal_hessian_check(g: MetricChart, tau: ScalarField, f: ScalarField, p) -> float:
    """Max-norm residual between the direct Hessian of f in g/tau^2 and its
    expression through g-quantities.

    The two evaluation paths are independent: the direct side differentiates
    the scaled metric, the assembled side uses only g-level data at p.
    """
    p = as_point(p, g.dim)
    tau_val, dtau, _ = tau.evaluate(p)
    _check_conformal_factor(tau_val)

    g_hat = g.conformal_scale(compose_with_field(_INVERSE_SQUARE, tau), name="conformal")
    direct = point_geometry(g_hat, f, p).hess_f

    geo = point_geometry(g, f, p)
    sym = np.outer(dtau, geo.df)
    cross = sym + sym.T  # 2 dtau (.) df
    assembled = geo.hess_f + (cross - float(dtau @ geo.G_inv @ geo.df) * geo.G) / tau_val
    return float(np.max(np.abs(direct - assembled)))


def conformal_ricci_check(g: MetricChart, tau: ScalarField, p) -> float:
    """Max-norm residual of the conformal Ricci identity at p.

    Always checks the general identity (with the Hessian of tau); when tau
    is a composition of a 1-d profile with a field f, additionally checks the
    expanded identity with the tau', tau'' terms and returns the larger of
    the two residuals.
    """
    p = as_point(p, g.dim)
    n = g.dim
    tau_val = tau(p)
    _check_conformal_factor(tau_val)

    g_hat = g.conformal_scale(compose_with_field(_INVERSE_SQUARE, tau), name="conformal")
    direct = point_geometry(g_hat, tau, p).ric

    geo = point_geometry(g, tau, p)
    bracket = geo.lap_f / tau_val - (n - 1) * geo.grad_sq / tau_val**2
    assembled = geo.ric + (n - 2) / tau_val * geo.hess_f + bracket * geo.G
    residual = float(np.max(np.abs(direct - assembled)))

    if isinstance(tau, FieldOfField):
        base = point_geometry(g, tau.base, p)
        tau1 = tau.profile.deriv(base.f)
        tau2 = tau.profile.deriv2(base.f)
        expanded = (
            geo.ric
            + (n - 2) * tau1 / tau_val * base.hess_f
            + (n - 2) * tau2 / tau_val * np.outer(base.df, base.df)
            + bracket * geo.G
        )
        residual = max(residual, float(np.max(np.abs(direct - expanded))))
    return residual
