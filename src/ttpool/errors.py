"""Exception hierarchy shared across the package."""


class TTPoolError(Exception):
    """Base class for all errors raised by ttpool."""


class DimensionMismatch(TTPoolError):
    """Vectors or samples do not share a common dimension."""


class DegenerateSample(TTPoolError):
    """Sample admits no valid bandwidth (pairwise distances zero, NaN or overflowing)."""


class ZeroBandwidth(DegenerateSample):
    """The median pairwise distance is zero: too many points share one value."""


class IndexOutOfRange(TTPoolError):
    """An index set refers to positions outside the Gram matrix."""


class SampleTooSmall(TTPoolError):
    """An operation requires more observations than were supplied."""


class ConfigError(TTPoolError):
    """Invalid or inconsistent configuration."""


class DataError(TTPoolError):
    """Malformed input dataset (CSV ingestion)."""
