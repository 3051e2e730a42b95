"""Exception types shared across the package.

Each class carries the command line's exit status for it as ``exit_code``:
1 (an internal error) unless the class says otherwise.
"""


class VoltageTowerError(Exception):
    """Base class for all errors raised by this library."""

    exit_code = 1


class EmptyGraphError(VoltageTowerError):
    """Operation needs at least one vertex."""

    exit_code = 2


class NotConnectedError(VoltageTowerError):
    """Operation needs a connected graph."""

    exit_code = 2


class NotSquareError(VoltageTowerError):
    """Determinant of a non-square matrix."""


class TooLargeError(VoltageTowerError):
    """Input exceeds a hard size cap: the brute-force oracle's edge cap,
    the derived-vertex or derived-edge cap of a tower or a generated
    graph, the vertex cap of a characteristic polynomial, or the cap on
    p."""

    exit_code = 6


class ZeroPolynomialError(VoltageTowerError):
    """Valuation data of the zero polynomial is undefined."""


class NonIntegralInterpolationError(VoltageTowerError):
    """Interpolation data are not the values of an integer polynomial of
    degree below the number of nodes."""


class InvalidPrimeError(VoltageTowerError):
    """Voltage modulus is not a prime ``int``."""

    exit_code = 2


class NotAUnitError(VoltageTowerError):
    """Parameter is divisible by p where a unit is required."""

    exit_code = 3


class NoTowerError(VoltageTowerError):
    """The graph named ``name`` admits no constant tower for this prime.

    ``reason`` is ``"acyclic"`` (the undirected image is a forest) or
    ``"zero-weight-gcd"`` (every cycle has weight 0), and the message says
    which.
    """

    exit_code = 4

    def __init__(self, name: str, reason: str = "zero-weight-gcd"):
        detail = (
            "the undirected image is a forest"
            if reason == "acyclic"
            else "every cycle weight is 0, so no cycle weight is coprime to p"
        )
        super().__init__(f"{name} admits no constant tower ({detail})")
        self.reason = reason


class StructureViolationError(VoltageTowerError):
    """An identity guaranteed by the theory failed; this signals a bug,
    not a bad input."""


class InvalidSpecError(VoltageTowerError):
    """Malformed generator parameters."""

    exit_code = 2


class DocumentError(VoltageTowerError):
    """Malformed JSON document."""

    exit_code = 2
