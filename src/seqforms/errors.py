"""Exception types shared across the package."""


class UsageError(Exception):
    """Bad arguments or unreadable/invalid input files (exit code 2)."""


class SeqFormsError(Exception):
    """Base class for domain errors."""


class DimensionMismatch(SeqFormsError):
    pass


class SupportOverflow(SeqFormsError):
    """A sequence term does not fit in the requested truncation."""


class NotLowerSemiFrame(SeqFormsError):
    pass


class NotZeroClosed(SeqFormsError):
    pass


class UnknownScenario(SeqFormsError):
    pass


class DenseTooLarge(SeqFormsError):
    """A verdict would need dense arrays above a size cap.

    details holds the sizes for the machine-readable error report: dim,
    count, cap, and the rung when a ladder asked, or a scenario's ladder
    top and cap.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ScaleOutOfRange(SeqFormsError):
    """A result, or a matrix a factorization needed, left the range of
    doubles: it overflowed to inf or underflowed to 0."""
