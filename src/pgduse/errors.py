"""Exception types shared across the package."""


class PgduseError(Exception):
    """Base class for every library-specific error."""


class NonPositiveParameter(PgduseError, ValueError):
    """A distribution parameter was zero, negative, or non-finite."""


class ArityMismatch(PgduseError, ValueError):
    """A raw parameter list does not match the model's parameter count."""


class DomainError(PgduseError, ValueError):
    """A function argument lies outside its mathematical domain."""


class SeriesDivergence(PgduseError, ArithmeticError):
    """A series expansion peaks out of reach or did not converge within its window."""


class QuadFailure(PgduseError, ArithmeticError):
    """Adaptive quadrature could not certify the requested accuracy."""


class LogOfZero(PgduseError, ArithmeticError):
    """Logarithm requested of a value indistinguishable from zero."""


class ParseError(PgduseError, ValueError):
    """A data file entry could not be parsed as a number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class NonPositiveObservation(PgduseError, ValueError):
    """An observation was zero, negative, or non-finite."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EmptyDataset(PgduseError, ValueError):
    """A data source yielded no observations."""
