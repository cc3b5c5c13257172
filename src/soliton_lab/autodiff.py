"""Second-order forward-mode automatic differentiation.

A :class:`Jet` carries a value together with its full gradient and Hessian
with respect to a fixed set of chart coordinates, i.e. a degree-2 Taylor
expansion.  Arithmetic on jets propagates both derivative orders exactly
(to roundoff), which is what curvature computations need: the Ricci tensor
consumes two derivative orders of the metric components, so finite
differences alone cannot reach the residual tolerances used in the tests.

A jet may also be array-valued (vector forward mode; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008): its value has leading shape
S, its gradient S + (n,) and its Hessian S + (n, n).  Arithmetic broadcasts
over the leading axes the way numpy does, :func:`stack` and indexing build
and slice such jets, and every entry carries exactly the bits the same
operations give on scalar jets, so a 4 x 4 metric block is one jet
expression instead of ten scalar ones.

The same broadcasting evaluates many points at once.  :func:`seed` of a
``(B, n)`` array of B points gives coordinate jets of value shape (B,), so
the batch is the last value axis: a quantity of shape S at one point has
value shape S + (B,), gradient S + (B, n) and Hessian S + (B, n, n).  A jet
function written for one point then runs unchanged on a batch, as long as
its constants broadcast against that axis (a constant jet or float has no
batch axis; an array constant of shape S needs a trailing unit axis, S +
(1,)), and :func:`at` takes out one point's jet.  Entry-wise functions go
through Python floats (:func:`lift_entrywise`), so each point of a batch
carries the bits it has when seeded alone.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "seed",
    "constant",
    "stack",
    "at",
    "lift_univariate",
    "lift_entrywise",
    "jet_exp",
    "jet_log",
]

# Index suffixes that give a value of leading shape S one or two trailing
# unit axes, so it broadcasts against a gradient S + (n,) or Hessian S + (n, n).
_GRAD_AXES = (Ellipsis, None)
_HESS_AXES = (Ellipsis, None, None)


def _up(value, axes):
    """An array value lined up with derivative arrays; floats pass as they are."""
    return value[axes] if isinstance(value, np.ndarray) else value


def _accumulate(total: np.ndarray, term: np.ndarray) -> np.ndarray:
    """``total + term``, added in place when ``total`` (a new array) already
    has the broadcast shape."""
    if np.broadcast_shapes(total.shape, term.shape) == total.shape:
        total += term
        return total
    return total + term


def _entrywise(fn: Callable[[float], float], value):
    """``fn`` of a float, or of each entry of an array through Python floats,
    so every entry has the bits of the scalar path (numpy's vectorised exp
    and pow may differ from libm in the last place)."""
    if isinstance(value, np.ndarray):
        return np.array([fn(v) for v in value.ravel().tolist()]).reshape(value.shape)
    return fn(value)


class Jet:
    """Truncated second-order Taylor expansion in n variables.

    Attributes
    ----------
    val : float or ndarray of shape S
        Function value; a float for a scalar jet.
    grad : ndarray, shape S + (n,)
        First partial derivatives.
    hess : ndarray, shape S + (n, n)
        Second partial derivatives; symmetric by construction.

    Jets combine with jets of broadcastable leading shapes, with real
    numbers, and (for ``*``) with arrays of constants shaped like a leading
    shape.  ``jet[index]`` indexes the leading axes (``None`` adds
    one; an Ellipsis would reach the derivative axes and is not supported).
    """

    __slots__ = ("val", "grad", "hess")

    # Make ``ndarray * jet`` defer to Jet.__rmul__ instead of building an
    # object array of products.
    __array_ufunc__ = None

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray):
        self.val = val if isinstance(val, np.ndarray) and val.ndim else float(val)
        self.grad = grad
        self.hess = hess

    def __getitem__(self, index) -> "Jet":
        return Jet(self.val[index], self.grad[index], self.hess[index])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, numbers.Real):
            return Jet(self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, numbers.Real):
            return Jet(self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return Jet(other - self.val, -self.grad, -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.val, other.val
            # The Hessian is summed left to right into its first term, so a
            # batch's product holds two Hessian-sized arrays at a time, not four.
            hess = _accumulate(_up(a, _HESS_AXES) * other.hess, _up(b, _HESS_AXES) * self.hess)
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            hess = _accumulate(_accumulate(hess, cross), cross.swapaxes(-1, -2))
            return Jet(a * b, _up(a, _GRAD_AXES) * other.grad + _up(b, _GRAD_AXES) * self.grad, hess)
        if isinstance(other, numbers.Real):
            return Jet(self.val * other, self.grad * other, self.hess * other)
        if isinstance(other, np.ndarray):
            return Jet(self.val * other, self.grad * other[_GRAD_AXES], self.hess * other[_HESS_AXES])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, numbers.Real):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self) -> "Jet":
        inv = 1.0 / self.val
        return lift_univariate(self, inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, exponent):
        if not isinstance(exponent, numbers.Real):
            return NotImplemented
        p = float(exponent)
        x = self.val
        if p == 0:
            return Jet(x**0.0, np.zeros_like(self.grad), np.zeros_like(self.hess))
        v = _entrywise(lambda e: e**p, x)
        d1 = p * _entrywise(lambda e: e ** (p - 1), x)
        d2 = p * (p - 1) * _entrywise(lambda e: e ** (p - 2), x)
        return lift_univariate(self, v, d1, d2)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(val={self.val!r}, grad={self.grad!r})"


def seed(coords) -> list[Jet]:
    """Jets of the coordinate functions at one point (shape (n,)) or at each
    of a batch of B points (shape (B, n), value shape (B,) per jet)."""
    x = np.asarray(coords, dtype=float)
    batch, n = x.shape[:-1], x.shape[-1]
    jets = []
    for i in range(n):
        g = np.zeros(batch + (n,))
        g[..., i] = 1.0
        jets.append(Jet(x[..., i], g, np.zeros(batch + (n, n))))
    return jets


def constant(value: float, nvars: int) -> Jet:
    """Jet of a constant in ``nvars`` variables."""
    return Jet(value, np.zeros(nvars), np.zeros((nvars, nvars)))


def batch_axis(jet: Jet) -> Jet:
    """``jet`` with a batch axis of length 1 appended to its value shape, so a
    jet computed without the batch (a constant) broadcasts against one."""
    return Jet(np.asarray(jet.val)[..., None], jet.grad[..., None, :], jet.hess[..., None, :, :])


def stack(jets: Sequence[Jet]) -> Jet:
    """One jet whose new leading axis runs over ``jets`` (of equal shapes at a
    point); constants among batched jets are broadcast over the batch."""
    rank = max(np.ndim(j.val) for j in jets)
    jets = [j if np.ndim(j.val) == rank else batch_axis(j) for j in jets]
    vals, grads, hesses = (np.broadcast_arrays(*parts) for parts in zip(*((j.val, j.grad, j.hess) for j in jets)))
    return Jet(np.array(vals), np.array(grads), np.array(hesses))


def at(jet: Jet, k: int, rank: int) -> Jet:
    """Point k's jet out of a batch's jet whose value has ``rank`` axes at one
    point, as a copy, so it does not keep the batch's arrays alive; a jet
    without the batch axis, or with one of length 1, is the same at every
    point."""
    if np.ndim(jet.val) == rank:
        return jet
    if jet.val.shape[-1] == 1:
        k = 0
    return Jet(jet.val[..., k].copy(), jet.grad[..., k, :].copy(), jet.hess[..., k, :, :].copy())


def lift_univariate(x: Jet, value, deriv1, deriv2) -> Jet:
    """Compose a scalar function (given by its 2-jet at ``x.val``) with ``x``.

    This is the chain rule through second order and is the extension point
    for primitives that have no closed form in coordinates (for example a
    potential defined by inverting a quadrature).  For an array-valued ``x``
    the three derivatives are arrays of its leading shape (or floats).
    """
    outer = x.grad[..., :, None] * x.grad[..., None, :]
    return Jet(
        value,
        _up(deriv1, _GRAD_AXES) * x.grad,
        _up(deriv1, _HESS_AXES) * x.hess + _up(deriv2, _HESS_AXES) * outer,
    )


def lift_entrywise(x: Jet, jet_of: Callable[[float], tuple[float, float, float]]) -> Jet:
    """:func:`lift_univariate` with the 2-jet ``jet_of(v) = (h(v), h'(v), h''(v))``
    taken at each entry v of ``x.val`` through Python floats, so every point
    of a batch gets the bits it gets alone."""
    if isinstance(x.val, np.ndarray):
        rows = np.array([jet_of(v) for v in x.val.ravel().tolist()], dtype=float)
        return lift_univariate(x, *rows.T.reshape((3,) + x.val.shape))
    return lift_univariate(x, *jet_of(x.val))


def jet_exp(x: Jet) -> Jet:
    v = _entrywise(math.exp, x.val)
    return lift_univariate(x, v, v, v)


def jet_log(x: Jet) -> Jet:
    inv = 1.0 / x.val
    return lift_univariate(x, _entrywise(math.log, x.val), inv, -inv * inv)
