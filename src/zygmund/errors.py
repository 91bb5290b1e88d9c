"""Exception types raised across the library.

Four classes, told apart by the CLI only: it exits 2 on `ConfigError` and 1
on any other `ZygmundError`.  `ParameterError` covers every argument outside
a contract (a point off a profile's domain, a grid that would alias, an
ill-posed inversion, a profile in the wrong regime); a failed self-check of
a construction raises `ZygmundError` itself.
"""


class ZygmundError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(ZygmundError, ValueError):
    """A constructor or operation received parameters outside its contract.

    `field` names the rejected parameter when the raiser knows it, else None.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ConfigError(ParameterError):
    """An experiment configuration failed validation.

    Carries the offending field and, when read from a file, the line number.
    """

    def __init__(self, field: str, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"config field '{field}'{where}: {message}", field)


class ConvergenceError(ZygmundError, RuntimeError):
    """An iterative refinement failed to stabilize within its budget."""
