"""Exception hierarchy for curveflow.

Every error names the violated precondition so that CLI messages can be
mapped one-to-one from library failures.
"""


class CurveflowError(Exception):
    """Base class for all curveflow errors."""


class BadInput(CurveflowError, ValueError):
    """An argument has the wrong shape, size or metric for the operation."""


class DegenerateCurve(CurveflowError):
    """Discrete speed |c'| fell below the regularity threshold."""


class TurningTooFast(CurveflowError):
    """Tangent turns by pi or more between adjacent samples; grid too coarse."""


class NotConvex(CurveflowError):
    """Operation requires a strictly convex curve (kappa > 0 everywhere)."""


class OpenCurveUnsupported(CurveflowError):
    """Operator form of the metric is only available for closed curves."""


class NonPositive(CurveflowError):
    """Transform-space point violates its componentwise positivity pattern."""


class OffImage(CurveflowError):
    """Point is too far from the constraint manifold for this operation."""


class SolverFailure(CurveflowError):
    """An inner linear or nonlinear solve did not converge."""


class SingularSystem(SolverFailure):
    """Cyclic banded system is numerically singular."""


class SingularVerticalOperator(SolverFailure):
    """Vertical-projection operator is numerically singular."""


class RankDeficiency(SolverFailure):
    """Constraint Jacobian Gram matrix is numerically rank deficient."""


class NewtonDivergence(SolverFailure):
    """Newton iteration exceeded its budget; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class NoConvergence(SolverFailure):
    """Scalar root solve exceeded its iteration budget."""


class OutOfRange(CurveflowError):
    """Argument outside the admissible interval."""


class DomainExit(CurveflowError):
    """Geodesic left the positivity domain; carries exit time and partial path."""

    def __init__(self, message, exit_time=None, partial=None):
        super().__init__(message)
        self.exit_time = exit_time
        self.partial = partial


class StepLeftDomain(DomainExit):
    """A RATTLE step left the domain q1 > 0; try a smaller time step."""


class DegeneratePlane(CurveflowError):
    """Sectional curvature of a degenerate (rank < 2) plane was requested."""


class ShootingStall(SolverFailure):
    """Boundary-value shooting stalled; carries the best path found so far."""

    def __init__(self, message, best_path=None, residual=None):
        super().__init__(message)
        self.best_path = best_path
        self.residual = residual
