"""Exception hierarchy shared by all umbra modules."""


def quoted(text: str) -> str:
    """User text for an error message: past 40 characters, a prefix and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


class UmbraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(UmbraError):
    """A parameter violates an operation's precondition (zero beta, negative variance, ...)."""


class DivergenceError(UmbraError):
    """An evaluation point lies outside the declared convergence region."""


class DomainTooSmallError(UmbraError):
    """A grid function does not decay below tolerance at the grid boundary."""


class TruncationError(UmbraError):
    """A request exceeds the truncation order or trusted degree of an object."""


class UnsupportedSymbolError(UmbraError):
    """The requested symbol function has no usable Fourier transform (odd exponents)."""


class SequenceFormatError(UmbraError):
    """The sequence exchange document cannot be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class InternalConsistencyError(UmbraError):
    """Two routes that must agree did not; indicates a bug, never user error."""
