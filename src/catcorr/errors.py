"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the admissible domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its hard cap."""
