"""Exception types shared across the package."""


class AngleKitError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 6  # the command line's exit status on this error


class ExactOverflowError(AngleKitError, OverflowError):
    """A normalized exact component exceeded the 64-bit bound.

    Raised instead of silently wrapping or degrading: an overflow here
    means the caller fed values outside the supported range, which is a
    bug signal, not a rounding event.
    """


class DomainError(AngleKitError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class RangeError(DomainError):
    """A measure lies outside the range an operation accepts."""

    exit_code = 5


class RadiusError(DomainError):
    """A radius is not a positive finite number."""

    exit_code = 4


class PoleError(DomainError):
    """A periodic tangent was evaluated too close to one of its poles."""


class DegenerateVertexError(DomainError):
    """A ray endpoint coincides with the vertex, so no direction exists."""


class ZeroAngleError(DomainError):
    """Both rays point the same way; there is no angle between them."""


class ParseError(AngleKitError, ValueError):
    """Input text was rejected.

    `position` is the 0-based offset into the input at which the failure
    was detected, or None when the input as a whole is rejected (such as a
    command-line operand that is not a number).
    """

    exit_code = 2

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


class UnknownUnitError(ParseError):
    """A unit token was present but names no known reference angle."""

    exit_code = 3


class MissingUnitError(ParseError):
    """A bare number was given where an angle with a unit is required."""

    exit_code = 3


class UnsupportedFormError(AngleKitError, ValueError):
    """The requested output form cannot represent the given value."""
