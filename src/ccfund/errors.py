"""Shared exception types."""


class SolverError(RuntimeError):
    """Raised when a solver guard trips or a numeric routine fails to converge."""


class InputError(ValueError):
    """Raised when an input file does not hold a valid instance, profile or config."""
