"""Exception types shared across the package."""


class CommProbError(Exception):
    """Base class for all package errors."""


class InputError(CommProbError):
    """Invalid input: bad descriptor, bad parameters, mixed operands."""


class SizeCapError(CommProbError):
    """A construction would exceed the configured size limits."""


class BudgetError(CommProbError):
    """A brute-force computation would exceed its work or memory budget."""


class CacheError(CommProbError):
    """An on-disk cache record failed validation."""


class InternalError(CommProbError):
    """An internal invariant failed: a defect in the package, not bad input."""
