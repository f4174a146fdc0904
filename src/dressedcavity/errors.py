"""Exception hierarchy shared across the package.

PhysicsError subclasses map to CLI exit code 2, ResourceCapError to 3.
"""


class PhysicsError(Exception):
    """A physics contract was violated (bad input, broken invariant)."""


class DomainError(PhysicsError, ValueError):
    """Numeric input outside the mathematical domain of an operation."""


class ContractViolationError(PhysicsError):
    """A precondition on structured data does not hold."""


class ModelInstabilityError(PhysicsError):
    """The quadratic form is not positive definite; parameters are invalid."""


class BracketingError(PhysicsError):
    """A secular root did not converge inside its bracket."""


class InsufficientDataError(PhysicsError):
    """Too few samples inside the requested fit window."""


class FitWindowError(PhysicsError):
    """Fit window contains values the fit cannot use (e.g. survival <= 0)."""


class ResourceCapError(Exception):
    """An enumeration would exceed the configured resource cap."""
