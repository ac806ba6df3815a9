"""Generalized sequence transforms, operator calculus, and Appell expansions.

Importing the package loads only the exact layer (`Sequence` and the error
types), without numpy; import the submodules by name:
`from umbra import appell, checks, gftrans, opcalc, seqcore, specfun`.
"""

from .errors import (
    DivergenceError,
    DomainTooSmallError,
    InternalConsistencyError,
    InvalidParameterError,
    SequenceFormatError,
    TruncationError,
    UmbraError,
    UnsupportedSymbolError,
)
from .seqcore import Sequence

__all__ = [
    "Sequence",
    "UmbraError",
    "InvalidParameterError",
    "DivergenceError",
    "DomainTooSmallError",
    "TruncationError",
    "UnsupportedSymbolError",
    "SequenceFormatError",
    "InternalConsistencyError",
]

__version__ = "0.1.0"
