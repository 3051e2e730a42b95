"""Exception types shared across the package."""


class VoltageTowerError(Exception):
    """Base class for all errors raised by this library."""


class EmptyGraphError(VoltageTowerError):
    """Operation needs at least one vertex."""


class NotConnectedError(VoltageTowerError):
    """Operation needs a connected graph."""


class NotSquareError(VoltageTowerError):
    """Determinant of a non-square matrix."""


class TooLargeError(VoltageTowerError):
    """Input exceeds a hard size cap: the brute-force oracle's edge cap,
    the derived-vertex or derived-edge cap of a tower or a generated
    graph, the vertex cap of a characteristic polynomial, or the cap on
    p."""


class ZeroPolynomialError(VoltageTowerError):
    """Valuation data of the zero polynomial is undefined."""


class NonIntegralInterpolationError(VoltageTowerError):
    """Interpolation data are not the values of an integer polynomial of
    degree below the number of nodes."""


class InvalidPrimeError(VoltageTowerError):
    """Voltage modulus is not a prime ``int``."""


class NotAUnitError(VoltageTowerError):
    """Parameter is divisible by p where a unit is required."""


class NoTowerError(VoltageTowerError):
    """The graph admits no constant tower for this prime.

    ``reason`` is ``"acyclic"`` (the undirected image is a forest) or
    ``"zero-weight-gcd"`` (every cycle has weight 0).
    """

    def __init__(self, message: str, reason: str = "zero-weight-gcd"):
        super().__init__(message)
        self.reason = reason


class StructureViolationError(VoltageTowerError):
    """An identity guaranteed by the theory failed; this signals a bug,
    not a bad input."""


class InvalidSpecError(VoltageTowerError):
    """Malformed generator parameters."""


class DocumentError(VoltageTowerError):
    """Malformed JSON document."""
