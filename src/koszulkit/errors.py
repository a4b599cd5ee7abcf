"""Shared exception types."""


class KoszulkitError(Exception):
    """Base class for every error raised by this library."""


class DomainMismatchError(KoszulkitError, TypeError):
    """An element does not belong to the expected coefficient domain."""


class NotFactorableError(KoszulkitError, ValueError):
    """Factorization was requested for zero or for a unit."""


class DimensionError(KoszulkitError, ValueError):
    """Matrix shapes do not compose."""


class NotAComplexError(KoszulkitError, ValueError):
    """A composite of consecutive maps that must vanish does not."""


class InvalidInputError(KoszulkitError, ValueError):
    """Input violates a documented precondition."""


class WitnessError(InvalidInputError):
    """A result bundle's witnesses break the law it checks when it is built."""


class HypothesisNotMetError(KoszulkitError):
    """An exactness check's hypothesis fails; the check is skipped, not asserted."""
