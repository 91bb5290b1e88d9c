"""Exception types raised across the library."""


class ZygmundError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(ZygmundError, ValueError):
    """A constructor or operation received parameters outside its contract."""


class ConfigError(ParameterError):
    """An experiment configuration failed validation.

    Carries the offending field and, when read from a file, the line number.
    """

    def __init__(self, field: str, message: str, line: int | None = None):
        self.field = field
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"config field '{field}'{where}: {message}")


class DomainError(ZygmundError, ValueError):
    """An evaluation point lies outside the function's domain."""


class AliasingError(ZygmundError, ValueError):
    """A sampling grid is too coarse to represent a polynomial exactly."""


class ConvergenceError(ZygmundError, RuntimeError):
    """An iterative refinement failed to stabilize within its budget."""

class IllPosedError(ZygmundError, ArithmeticError):
    """An inverse operation would divide by an underflowing coefficient."""


class RegimeMismatchError(ZygmundError, ValueError):
    """An experiment was asked for on a profile in the wrong growth regime."""


class CoefficientMismatchError(ZygmundError, RuntimeError):
    """Two independent constructions of the same polynomial disagree."""
