"""Exception types shared across the package.

Each type carries its stable CLI exit code as the class attribute
`exit_code`; library code raises these so the command-line layer never has
to parse messages.
"""


class PaleyRipError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class NotPrimeError(PaleyRipError):
    """A modulus that must be prime is composite (or < 2)."""

    exit_code = 2


class WrongResidueError(PaleyRipError):
    """A prime that must be 3 mod 4 lies in the wrong residue class."""

    exit_code = 3


class ParameterRangeError(PaleyRipError, ValueError):
    """A numeric argument violates its documented domain."""

    exit_code = 4


class MalformedInputError(PaleyRipError):
    """Input data (CSV, fit window, ...) cannot be used as requested."""

    exit_code = 5


class DuplicateSupportError(PaleyRipError):
    """Support indices collide after reduction mod p."""

    exit_code = 6


class NonHermitianError(PaleyRipError):
    """Matrix input fails its Hermitian / skew-symmetric gate."""

    exit_code = 4
