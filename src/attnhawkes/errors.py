"""Exception types shared across the package.

Two broad categories matter to callers: ``DataError`` (malformed or
inconsistent input) and ``NumericalError`` (a computation produced values
that cannot be used).  The command line maps them to distinct exit codes.
"""


class DataError(Exception):
    """Input data is malformed, inconsistent, or empty."""


class NumericalError(Exception):
    """A computation produced non-finite or otherwise unusable values."""


class SequenceError(DataError):
    """An event sequence violates a structural invariant.

    ``index`` is the position of the first offending event.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonMonotoneTimes(SequenceError):
    """Event times decrease somewhere."""


class DuplicateTimestamp(SequenceError):
    """Two events share the same timestamp."""


class TypeOutOfRange(SequenceError):
    """An event type id falls outside [0, num_types)."""


class EventBeyondHorizon(SequenceError):
    """An event time falls outside the observation window [0, T]."""


class BadFractions(DataError):
    """Split fractions are not positive or do not sum to one."""


class EmptyDataset(DataError):
    """A dataset contains no sequences."""


class EmptySplit(DataError):
    """A requested split has no sequences or no events."""


class NoSourceEvents(DataError):
    """Kernel recovery found no events of the requested source type."""


class ParseError(DataError):
    """A sequence file line is not valid JSON.  Carries the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(DataError):
    """A parsed record fails validation.  Carries line and reason."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DegenerateAnchor(DataError):
    """Extrapolation anchor sits at t = 0, making the slope term undefined."""


class UnboundedIntensity(NumericalError):
    """The thinning upper bound is not finite."""


class NonFinite(NumericalError):
    """A log-likelihood term, the training objective or its gradient is not finite."""


class Diverged(NumericalError):
    """Training produced non-finite objectives on consecutive batches."""


class OddDimension(ValueError):
    """Temporal embedding dimension must be even."""


class NonCausalHistory(ValueError):
    """A history event does not strictly precede the query time."""


class OutOfWindow(ValueError):
    """A query time falls outside the sequence observation window."""


class NoPriorEvent(ValueError):
    """No event precedes the query time, so no anchor exists."""
