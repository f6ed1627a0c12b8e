"""Exception types, and the whole-number check behind several of them,
shared across the package."""


class DomainError(ValueError):
    """An input lies outside the admissible domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series lost its value to rounding: its rounding bound passed the
    tolerance before it converged, or it ended negative within that bound."""


def _is_whole(x) -> bool:
    """True when x is a whole number; False for NaN, +-inf, 3.5 or a non-number."""
    try:
        return x == int(x)
    except (TypeError, ValueError, OverflowError):
        return False
