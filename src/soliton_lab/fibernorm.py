"""The fiber-norm map ell(f) of a Q-profile, in Python floats.

From a profile of :mod:`.profiles` (Q(f) = 2 f_c phi(f), the squared
gradient norm of the potential, and the constant a) the map solves
(a/Q) df = d(log ell): log ell(f) = integral_{f0}^{f} a / Q(t) dt with
ell(f0) = 1.  Its table and every value of log ell or ell are QUADPACK's
QAG (:func:`.quadpack.quad`) on Python floats, so ``skrp``'s ell column never
loads numpy.  Only the inversion t -> f, which the chart layer runs on a
chunk of points at once, takes arrays: it imports numpy when it is first
called, as :func:`.quadpack.first_steps` does.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from typing import TYPE_CHECKING

from . import quadpack
from .errors import ConvergenceFailure, DomainError, DomainSplit, IntegrationFailure
from .profiles import linspace

if TYPE_CHECKING:
    import numpy as np

    from .profiles import QProfile, SkrpParams

__all__ = ["EllMap", "NEWTON_STEPS"]

# Newton steps an ell-map inversion may take before it counts as unconverged.
NEWTON_STEPS = 60


class EllMap:
    """Monotone fiber-norm map ell(f) on a Q-positive interval.

    log ell(f) = integral_{f0}^{f} a / Q(t) dt with ell(f0) = 1.  Built once
    as a cumulative table over a fixed 257-node grid, one :func:`.quadpack.quad`
    per segment, summed in grid order and anchored by the partial segment
    [grid[i0], f0].  On every fixture each of those quads ends at QAG's
    first 21-point estimate, so a build calls the profile's float Q at the
    257 nodes and 257 x 21 = 5,397 times in its quads, and each
    :meth:`ell` 21 more; for a :class:`.profiles.SkrpParams` each call is
    its value-only kernel, which sums phi without its derivatives.
    :meth:`log_ell` and :meth:`ell` take a float: the table
    entry of f's segment plus one quad from its left node, and for
    :meth:`ell` exp of that through ``math.exp``.  An inversion t -> f starts
    from the quintic Hermite interpolant of f(t) on the table bracket of t,
    built from f, df/dt = Q/a and d2f/dt2 = Q Q'/a^2 at the two nodes, and
    refines it by Newton steps on the exact quadrature; a zero-width bracket
    or a non-finite start falls back to linear interpolation.  The start is
    accurate to roundoff, so one Newton step settles it.  The steps run on a
    1-D array of t at once (the chart inverts a chunk of points together; a
    float t is a batch of one), each one batched first step
    (:func:`.quadpack.first_steps`) over the pending entries, with
    :func:`.quadpack.quad` on any entry that step does not finish.  Round
    trips f -> ell -> f are accurate to ~1e-12.  The table's arrays and the
    node derivatives are made on the first inversion, with one call of the
    profile's dq on the grid, so a map that is never inverted does not pay
    for them.  Read-only after construction apart from those one-time
    arrays.  Q <= 0 at a grid node or at a quadrature node raises
    :class:`DomainSplit`.
    """

    def __init__(self, profile: QProfile | SkrpParams, f0: float, bounds: tuple[float, float]):
        self.profile = profile
        lo, hi = bounds
        if not (lo < f0 < hi):
            raise DomainError(f"anchor f0 = {f0} must lie inside ({lo}, {hi})")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("ell map needs finite working bounds")
        self.f0 = float(f0)
        self._grid = linspace(lo, hi, 257)
        self._q_nodes = [profile.q(f) for f in self._grid]
        bad = next((f for f, q in zip(self._grid, self._q_nodes) if q <= 0), None)
        if bad is not None:
            raise DomainSplit(f"Q vanishes or changes sign inside the working interval near f = {bad}")
        # Cumulative log-ell values at the grid nodes, anchored exactly at f0
        # (log ell(f0) = 0) by the partial segment [grid[i0], f0].  An
        # overflowing table (tiny Q, huge a) is refused below.
        segs = [self._quad(a, b) for a, b in zip(self._grid[:-1], self._grid[1:])]
        i0 = self._segment(self.f0)
        cumulative = list(accumulate(segs, initial=0.0))
        anchor = cumulative[i0] + self._quad(self._grid[i0], self.f0)
        self._t_nodes = [t - anchor for t in cumulative]
        if not all(map(math.isfinite, self._t_nodes)):
            raise DomainError(f"log ell = integral of a / Q overflows float64 on ({lo}, {hi}) (a = {profile.a})")
        self._node_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._node_slopes: tuple[np.ndarray, np.ndarray] | None = None
        self.bounds = (float(lo), float(hi))
        self.increasing = self._t_nodes[-1] > self._t_nodes[0]

    def _segment(self, f: float) -> int:
        """Index of the grid segment holding f, the first or last one beyond the grid."""
        return min(max(bisect.bisect_left(self._grid, f) - 1, 0), len(self._grid) - 2)

    def log_ell(self, f: float) -> float:
        lo, hi = self.bounds
        if not lo <= f <= hi:
            raise DomainError(f"f = {float(f)} outside ell-map bounds {self.bounds}")
        i = self._segment(f)
        return self._t_nodes[i] + self._quad(self._grid[i], f)

    def ell(self, f: float) -> float:
        """ell = exp(log ell), through ``math.exp``."""
        t = self.log_ell(f)
        try:
            return math.exp(t)
        except OverflowError:
            raise DomainError(f"ell = exp({t}) overflows float64 at f = {float(f)}") from None

    def _integrand(self, f: float) -> float:
        q = self.profile.q(f)
        if q <= 0.0:
            raise DomainSplit(f"Q vanishes or changes sign inside the working interval at f = {f!r}")
        return self.profile.a / q

    def _quad(self, lo: float, hi: float) -> float:
        """Integral of a / Q over [lo, hi]; :class:`IntegrationFailure` if ``ier > 0``."""
        value, abserr, ier = quadpack.quad(self._integrand, lo, hi, epsabs=1e-14, epsrel=1e-13)
        if ier:
            raise IntegrationFailure(f"fiber-norm quadrature of a / Q over [{float(lo)!r}, {float(hi)!r}] may "
                                     f"miss its tolerance (QUADPACK ier = {ier}, error estimate {abserr:.3e})")
        return value

    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid and its log-ell table as numpy arrays, made on the first inversion."""
        if self._node_arrays is None:
            import numpy as np

            self._node_arrays = (np.array(self._grid), np.array(self._t_nodes))
        return self._node_arrays

    def _integrals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral of a / Q over each [lo[k], hi[k]]: QAG's first step of
        all of them in one call, and :meth:`_quad` on each it does not finish."""
        import numpy as np

        value, _, done = quadpack.first_steps(self._batch_integrand, lo, hi, epsabs=1e-14, epsrel=1e-13)
        for k in np.flatnonzero(~done):
            value[k] = self._quad(lo[k], hi[k])
        return value

    def f_of_log_ell(self, t: float | np.ndarray) -> float | np.ndarray:
        """f with log ell(f) = t at each entry of a 1-D array of t; a float t
        is a batch of one and gives a float."""
        import numpy as np

        grid, t_table = self._nodes()
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        t_nodes = t_table if self.increasing else -t_table
        tt = ts if self.increasing else -ts
        outside = ~((t_nodes[0] - 1e-12 <= tt) & (tt <= t_nodes[-1] + 1e-12))
        if outside.any():
            raise DomainError(f"log ell = {float(ts[outside][0])} outside ell-map range")
        last = len(grid) - 2
        bracket = np.clip(np.searchsorted(t_nodes, tt) - 1, 0, last)
        f = self._hermite_starts(ts, bracket)
        for k in np.flatnonzero(np.isnan(f)):
            i = bracket[k]
            f[k] = np.interp(tt[k], t_nodes[i : i + 2], grid[i : i + 2])
        # Newton refinement on log_ell(f) - t, whose derivative is a/Q, of
        # every entry not yet settled.
        pending = np.arange(len(ts))
        for _ in range(NEWTON_STEPS):
            fp = f[pending]
            i = np.clip(np.searchsorted(grid, fp) - 1, 0, last)
            resid = t_table[i] + self._integrals(grid[i], fp) - ts[pending]
            step = resid * self.profile.q(fp) / self.profile.a
            f_new = np.minimum(np.maximum(fp - step, self.bounds[0]), self.bounds[1])
            f[pending] = f_new
            moving = ~(np.abs(f_new - fp) <= 1e-15 * (1.0 + np.abs(fp)))
            if not moving.any():
                return f if isinstance(t, np.ndarray) else float(f[0])
            pending = pending[moving]
        raise ConvergenceFailure(
            f"ell-map inversion of log ell = {float(ts[pending[0]])!r} did not converge in {NEWTON_STEPS} Newton "
            f"steps (last f = {float(f[pending[0]])!r}, residual {resid[moving][0]:.3e})"
        )

    def _batch_integrand(self, f: np.ndarray) -> np.ndarray:
        """a / Q at each entry of f, NaN where Q <= 0 (where :meth:`_quad`
        raises :class:`DomainSplit`), so that interval is not done."""
        import numpy as np

        q = np.broadcast_to(self.profile.q(f), f.shape)
        with np.errstate(over="ignore"):  # an overflowing lane is not finite, so not done
            return self.profile.a / np.where(q > 0.0, q, np.nan)

    def _hermite_starts(self, t: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Quintic Hermite estimate of f(t) on the table bracket i, entry by
        entry, clipped to the bracket; NaN when the bracket has zero width or
        the estimate is not finite."""
        import numpy as np

        grid, t_nodes = self._nodes()
        if self._node_slopes is None:
            a, q_nodes = self.profile.a, np.array(self._q_nodes)
            self._node_slopes = (q_nodes / a, q_nodes * self.profile.dq(grid) / a**2)
        d1, d2 = self._node_slopes
        t0, t1 = t_nodes[i], t_nodes[i + 1]
        f0, f1 = grid[i], grid[i + 1]
        with np.errstate(all="ignore"):
            h = t1 - t0
            # Scaled end data: the jump, the slopes times h, the curvatures times h^2.
            jump, s0, s1 = f1 - f0, h * np.take(d1, i), h * np.take(d1, i + 1)
            c0, c1 = h * h * np.take(d2, i), h * h * np.take(d2, i + 1)
            c3 = 10.0 * jump - 6.0 * s0 - 4.0 * s1 - 1.5 * c0 + 0.5 * c1
            c4 = -15.0 * jump + 8.0 * s0 + 7.0 * s1 + 1.5 * c0 - c1
            c5 = 6.0 * jump - 3.0 * s0 - 3.0 * s1 - 0.5 * c0 + 0.5 * c1
            u = np.minimum(np.maximum((t - t0) / h, 0.0), 1.0)
            f = f0 + u * (s0 + u * (0.5 * c0 + u * (c3 + u * (c4 + u * c5))))
        clipped = np.minimum(np.maximum(f, np.minimum(f0, f1)), np.maximum(f0, f1))
        return np.where((h != 0.0) & np.isfinite(f), clipped, np.nan)

    def f_of_ell(self, ell: float) -> float:
        if ell <= 0:
            raise DomainError("fiber norm ell must be positive")
        return self.f_of_log_ell(math.log(ell))

    def dfdt(self, f: float | np.ndarray) -> float | np.ndarray:
        """df / d(log ell) = Q(f) / a."""
        return self.profile.q(f) / self.profile.a

    def d2fdt2(self, f: float | np.ndarray) -> float | np.ndarray:
        return self.profile.q(f) * self.profile.dq(f) / self.profile.a**2
