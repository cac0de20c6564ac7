"""Exception types raised across the toolkit.

Each class corresponds to one failure mode of the public API; callers that
want blanket handling can catch :class:`NowcastError`.
"""


class NowcastError(Exception):
    """Base class for all toolkit errors."""


class EmptyIntersectionError(NowcastError):
    """Series passed to ``align`` share no common months."""


class OutOfRangeError(NowcastError):
    """A requested month range falls outside the available months."""


class TooShortError(NowcastError):
    """Input has too few months/rows for the requested operation."""


class AnchorMismatchError(NowcastError):
    """Anchor values supplied to an inverse transform are misplaced or missing."""


class InvalidParamsError(NowcastError):
    """Model or backtest parameters violate their documented bounds."""


class NonFiniteError(NowcastError):
    """Data contains NaN or infinite values."""


class InvalidModelError(NowcastError, ValueError):
    """A serialized model document is malformed or out of range."""


class MissingFeatureError(NowcastError):
    """A feature column required by a fitted model is absent."""


class LengthMismatchError(NowcastError):
    """Paired sequences passed to a metric differ in length."""


class DegenerateActualsError(NowcastError):
    """Actual values have zero variance, so R-squared is undefined."""


class UnreadableFileError(NowcastError):
    """A file could not be opened, decoded or split into CSV fields."""


class MalformedFileError(NowcastError, ValueError):
    """A file breaks its schema; the message reads ``path:line: column: message``."""


class ColumnClashError(NowcastError, ValueError):
    """A derived column would replace an input column of the same name."""


class EmptyInputError(NowcastError):
    """An aggregation received no records."""


class InvalidConfigError(NowcastError):
    """Synthetic-data configuration violates its documented bounds."""
