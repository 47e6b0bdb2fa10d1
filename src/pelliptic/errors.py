"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map errors onto stable exit codes: invalid inputs (DomainError and
subclasses) versus algorithms that ran out of budget (NonConvergence and
subclasses).
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class InvalidExponent(DomainError):
    """An endpoint exponent is -1 or below, so the integral diverges."""


class SingularPoint(DomainError):
    """Evaluation was requested at a point where the quantity is singular."""


class GridTooCoarse(DomainError):
    """A sample grid is too small for the requested validation."""


class NonConvergence(RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class NoSignChange(NonConvergence):
    """A root bracket does not actually bracket a sign change."""


class MaxIterations(NonConvergence):
    """The iteration cap was reached before the bracket shrank to tolerance."""


class SlowConvergence(NonConvergence):
    """A series argument is too close to its convergence boundary."""
