"""Semantic exception hierarchy.

Every error raised by the library derives from :class:`SecbitError`, so
callers (and the CLI) can distinguish domain failures from programming
errors with a single ``except`` clause.
"""


class SecbitError(Exception):
    """Base class for all library errors."""


class NegativeEntryError(SecbitError, ValueError):
    """A probability or matrix entry is negative."""


class IndexOutOfRangeError(SecbitError, IndexError):
    """An outcome index lies outside the declared alphabet."""


class ZeroMassError(SecbitError, ValueError):
    """A distribution (or a filtered distribution) has no mass at all."""


class OutOfRangeError(SecbitError, ValueError):
    """A scalar parameter lies outside its admissible interval."""


class InvalidParamsError(SecbitError, ValueError):
    """A parameter bundle violates its joint constraints."""


class CountError(InvalidParamsError, OutOfRangeError):
    """A count (copies, block length, samples, trials ...) is not an integer at or above its minimum."""


class DimensionMismatchError(SecbitError, ValueError):
    """Operands have incompatible alphabet sizes."""


class DimensionOverflowError(SecbitError, ValueError):
    """A constructed tensor would exceed the configured entry cap."""


class NotStochasticError(SecbitError, ValueError):
    """A matrix required to be column-stochastic is not."""


class BadShapeError(SecbitError, ValueError):
    """An array does not have the required shape."""


class NonSquareError(BadShapeError):
    """A square matrix was required."""


class NotBinaryError(SecbitError, ValueError):
    """The honest parties' alphabets must both have size two."""


class NotNormalizedError(SecbitError, ValueError):
    """A normalized distribution was required."""


class RatioOutOfRangeError(SecbitError, FloatingPointError):
    """A probability ratio left [0, 1]; indicates corrupted parameters."""


class TooLargeError(SecbitError, ValueError):
    """The instance exceeds the size guard of an exhaustive search."""


class EmptyBlockError(SecbitError, ValueError):
    """A protocol block must contain at least one symbol."""


class UnsupportedFormatError(SecbitError, ValueError):
    """The requested output format does not apply to this report."""


class FileFormatError(SecbitError, ValueError):
    """A distribution or filtration file is malformed."""


class LinearProgramError(SecbitError, RuntimeError):
    """A linear program is unbounded or did not converge within its pivot cap."""
