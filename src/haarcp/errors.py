"""Exception types shared across the package."""


class HaarcpError(Exception):
    """Base class for all package-specific errors."""


class TableBudgetExceeded(HaarcpError):
    """A Cayley table would pass the byte budget; raised before it is built."""


class EmptyGeneratorList(HaarcpError):
    """A group was requested from an empty generator list."""


class NotNormal(HaarcpError):
    """A quotient was requested by a non-normal subgroup."""


class SearchBudgetExceeded(HaarcpError):
    """An isomorphism or isoclinism search passed its work budget."""


class NotAHomomorphism(HaarcpError):
    """Generator matrices do not extend to a homomorphism on the acting group."""


class NotUnimodular(HaarcpError):
    """An action matrix is not invertible over the integers."""


class RankMismatch(HaarcpError):
    """An action matrix has the wrong dimensions for the torus rank."""


class ZeroSamples(HaarcpError):
    """A Monte Carlo estimate was requested with no samples."""


class SampleBudgetExceeded(HaarcpError):
    """A Monte Carlo estimate was requested with more samples than its budget."""


class ParseError(HaarcpError):
    """A group or model spec file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
