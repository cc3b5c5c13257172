"""Exception hierarchy shared by all soliton-lab modules, and the residual
tolerance that :class:`NotASoliton` refers to."""

# Residual above which a point is not treated as lying on an almost soliton;
# here, where the CLI reads its default without importing the chart layer.
SOLITON_RESIDUAL_TOL = 1e-6


class SolitonLabError(Exception):
    """Base class for all errors raised by this package."""


class SingularMetric(SolitonLabError):
    """Metric matrix is not positive definite at the evaluation point."""


class DegenerateConformalFactor(SolitonLabError):
    """Conformal factor vanishes (or nearly vanishes) at the evaluation point."""


class DimensionTooSmall(SolitonLabError):
    """Operation requires chart dimension n > 2."""


class NotASoliton(SolitonLabError):
    """Almost-soliton residual exceeds tolerance where a soliton is required."""


class EmptySample(SolitonLabError):
    """A sample of points was required but none were supplied."""


class DomainError(SolitonLabError):
    """Input lies outside the valid domain of a field or profile."""


class PoleError(SolitonLabError):
    """Profile evaluated at (or too close to) a pole of its closed form."""


class IntegrationFailure(SolitonLabError):
    """An ODE solve failed (step-size underflow, stiff blowup) or a quadrature missed its tolerance."""


class ConvergenceFailure(SolitonLabError):
    """An iterative solve ran out of steps before meeting its tolerance."""


class DomainSplit(SolitonLabError):
    """Quadrature interval crosses a zero of the positivity profile."""


class CalibrationFailure(SolitonLabError):
    """An assembled chart fails a normalization, window, closedness,
    Hermitian or soliton check (closedness needs a s = p^2 lambda_h)."""


class NonpositiveQ(SolitonLabError):
    """Gradient-norm profile Q is nonpositive where positivity is required."""


class OscillationDetected(SolitonLabError):
    """Truncated integrals oscillate; divergence test is inapplicable."""


class ToleranceAmbiguity(SolitonLabError):
    """Endpoint derivative magnitude is too close to the zero tolerance to
    classify reliably; surfaced instead of silently resolved."""


class DomainExit(SolitonLabError):
    """A flow curve left the chart domain before integration finished."""


class UnknownFixture(SolitonLabError):
    """Requested fixture name is not registered."""
