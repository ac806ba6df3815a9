"""Exception hierarchy shared by all umbra modules."""


def quoted(text: str) -> str:
    """User text for an error message: past 40 characters, a prefix and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


class UmbraError(Exception):
    """Base class for all errors raised by this package.  `exit_code` is the
    command line's exit status when an error of the type ends a run."""

    exit_code = 1


class InvalidParameterError(UmbraError):
    """A parameter violates an operation's precondition (zero beta, negative variance, ...)."""

    exit_code = 3


class DivergenceError(UmbraError):
    """An evaluation point lies outside the declared convergence region."""

    exit_code = 4


class DomainTooSmallError(UmbraError):
    """A grid function does not decay below tolerance at the grid boundary."""

    exit_code = 4


class TruncationError(UmbraError):
    """A request exceeds the truncation order or trusted degree of an object."""

    exit_code = 4


class UnsupportedSymbolError(UmbraError):
    """The requested symbol function has no usable Fourier transform (odd exponents)."""

    exit_code = 3


class SequenceFormatError(UmbraError):
    """The sequence exchange document cannot be parsed."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class InternalConsistencyError(UmbraError):
    """Two routes that must agree did not; indicates a bug, never user error."""
