"""Reference angles and the three angle notions built on them.

An AngleValue is a numerical value paired with a reference angle (the
angle one full circle is divided into: radian, degree, gon, turn, ...).
A Measure is the dimensionless ratio 2π·value/full_circle; it is the only
thing a trigonometric function may legally consume, and it never carries
a unit symbol.  A Magnitude is the geometric object itself, represented
by a measure constrained to (0, 2π]: the zero angle does not exist here,
while the full circle does.

Conversions between references are exact whenever the input is exact:
they multiply by a ratio of two exact scalars, which stays inside the
(n/d)·π^e representation because every full circle is itself exact.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, RangeError
from .exact import PI, TWO_PI, ZERO, ExactScalar, Record, _triple, compare_triples

__all__ = [
    "ReferenceAngle",
    "check_full_circle",
    "AngleValue",
    "Measure",
    "Magnitude",
    "in_magnitude_range",
    "AngleClass",
    "RADIAN",
    "DEGREE",
    "GON",
    "TURN",
    "ARCMINUTE",
    "ARCSECOND",
    "BUILTIN_REFERENCES",
    "find_reference",
    "ascii_symbol",
    "convert",
    "measure_of",
    "reduce_principal",
    "classify",
    "semigroup_add",
]

_CLASSIFY_TOLERANCE = 1e-12  # relative to the full circle, inexact inputs only


def check_full_circle(value: object) -> None:
    """Reject anything but an exact positive scalar as a full circle (a period)."""
    if not isinstance(value, ExactScalar) or not value.is_exact:
        raise DomainError("period must be an exact number")
    if value.compare(ZERO) <= 0:
        raise DomainError("period must be positive")


class ReferenceAngle(Record):
    """A named unit angle: `full_circle` of them make one revolution."""

    __slots__ = ("name", "symbol", "full_circle")

    def __init__(self, name: str, symbol: str, full_circle: ExactScalar):
        check_full_circle(full_circle)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "full_circle", full_circle)

    def __str__(self):
        return self.symbol


RADIAN = ReferenceAngle("radian", "rad", TWO_PI)
DEGREE = ReferenceAngle("degree", "°", ExactScalar(360))
GON = ReferenceAngle("gon", "gon", ExactScalar(400))
TURN = ReferenceAngle("turn", "turn", ExactScalar(1))
ARCMINUTE = ReferenceAngle("arcminute", "′", ExactScalar(21600))
ARCSECOND = ReferenceAngle("arcsecond", "″", ExactScalar(1296000))

BUILTIN_REFERENCES = (RADIAN, DEGREE, GON, TURN, ARCMINUTE, ARCSECOND)

_ASCII_SYMBOLS = {"°": "deg", "′": "arcmin", "″": "arcsec"}

_ALIASES: dict[str, ReferenceAngle] = {}
for _ref in BUILTIN_REFERENCES:
    _ALIASES[_ref.name] = _ref
    _ALIASES[_ref.symbol] = _ref
for _glyph, _spelling in _ASCII_SYMBOLS.items():
    _ALIASES[_spelling] = _ALIASES[_glyph]
del _ref, _glyph, _spelling

_RATIOS = {  # target/source for each pair of builtin circles, keyed by (n, d, e) triples
    (_triple(a.full_circle), _triple(b.full_circle)): a.full_circle / b.full_circle
    for a in BUILTIN_REFERENCES for b in BUILTIN_REFERENCES
}


def find_reference(token: str) -> ReferenceAngle | None:
    """Look a unit token up by symbol or name ("°", "deg", "radian"...)."""
    return _ALIASES.get(token)


def ascii_symbol(reference: ReferenceAngle) -> str:
    """The 7-bit spelling of a reference's symbol."""
    return _ASCII_SYMBOLS.get(reference.symbol, reference.symbol)


class AngleValue(Record):
    """A numerical value read against a reference angle."""

    __slots__ = ("value", "reference")

    def __init__(self, value: ExactScalar, reference: ReferenceAngle):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reference", reference)

    def __str__(self):
        return f"{self.value} {self.reference.symbol}"


class Measure(Record):
    """A dimensionless angle measure.

    This type never prints a unit symbol: its value already is the
    radian-scaled ratio, and tagging one on would double-count.
    """

    __slots__ = ("value",)

    def __init__(self, value: ExactScalar):
        object.__setattr__(self, "value", value)

    def __str__(self):
        return str(self.value)


def in_magnitude_range(value: ExactScalar) -> bool:
    """Whether a measure lies in (0, 2π], the range of a geometric angle."""
    return value.compare(ZERO) > 0 and value.compare(TWO_PI) <= 0


class Magnitude(Record):
    """A geometric angle: a measure constrained to (0, 2π].

    The lower bound is strict because coincident rays bound no angle; the
    upper bound is inclusive because the full circle is one.
    """

    __slots__ = ("measure",)

    def __init__(self, measure: Measure):
        if not in_magnitude_range(measure.value):
            raise DomainError("a magnitude requires a measure in (0, 2π]")
        object.__setattr__(self, "measure", measure)

    def __str__(self):
        return str(self.measure)


class AngleClass(Enum):
    """The classical names for magnitude ranges within one revolution."""

    ZERO = "zero angle"
    ACUTE = "acute angle"
    RIGHT = "right angle"
    OBTUSE = "obtuse angle"
    STRAIGHT = "straight angle"
    REFLEX = "reflex angle"
    PERIGON = "perigon"

    def __str__(self):
        return self.value


def convert(angle: AngleValue, target: ReferenceAngle) -> AngleValue:
    """Re-express an angle against another reference.

    The new value is value·(target circle)/(source circle); exact inputs
    stay exact because both circles are exact.
    """
    if target is angle.reference or target == angle.reference:
        return angle
    factor = _circle_ratio(target.full_circle, angle.reference.full_circle)
    return AngleValue(angle.value * factor, target)


def measure_of(angle: AngleValue) -> Measure:
    """The dimensionless measure 2π·value/full_circle."""
    return Measure(angle.value * _circle_ratio(TWO_PI, angle.reference.full_circle))


def _circle_ratio(target: ExactScalar, source: ExactScalar) -> ExactScalar:
    return _RATIOS.get((_triple(target), _triple(source))) or target / source


def semigroup_add(a: Magnitude, b: Magnitude) -> Magnitude:
    """Add two non-reflex magnitudes, wrapping past the straight angle.

    Both operands must lie in (0, π].  The sum folds back into that range
    by subtracting π once when it overshoots, which keeps the operation
    closed, commutative, associative, and cancellative on exact inputs.
    """
    left = a.measure.value
    right = b.measure.value
    if left.compare(PI) > 0 or right.compare(PI) > 0:
        raise DomainError("semigroup addition needs operands in (0, π]")
    total = left + right
    if total.compare(PI) > 0:
        total = total - PI
    return Magnitude(Measure(total))


def reduce_principal(angle: AngleValue) -> AngleValue:
    """Fold a value into the principal range [0, full_circle).

    Stays exact when the input already lies in range or shares its π
    exponent with the full circle; a rational-times-π value folded
    modulo a plain rational has no exact representation here, so that
    case degrades to an inexact float.  A NaN or infinite value has no
    principal value and raises DomainError.
    """
    value = angle.value
    circle = angle.reference.full_circle
    if value.is_exact:
        if value.numerator >= 0 and value.compare(circle) < 0:
            return angle
        if value.pi_exponent == circle.pi_exponent:
            scaled = value.numerator * circle.denominator
            modulus = circle.numerator * value.denominator
            folded = ExactScalar(
                scaled % modulus,
                value.denominator * circle.denominator,
                value.pi_exponent,
            )
            return AngleValue(folded, angle.reference)
    x = value.to_float()
    if not math.isfinite(x):
        raise DomainError("only a finite value folds into the principal range")
    folded_float = _fmod_positive(x, circle.to_float())
    return AngleValue(ExactScalar.inexact(folded_float), angle.reference)


def _fmod_positive(x: float, period: float) -> float:
    r = math.fmod(x, period)
    if r < 0:
        r += period
    return r if r < period else 0.0


# (boundary in quarter circles, class below it, class on it), in order.
_LADDER = (
    (0, None, AngleClass.ZERO),
    (1, AngleClass.ACUTE, AngleClass.RIGHT),
    (2, AngleClass.OBTUSE, AngleClass.STRAIGHT),
    (4, AngleClass.REFLEX, AngleClass.PERIGON),
)


def classify(angle: AngleValue) -> AngleClass:
    """Name the magnitude range a value falls in.

    The input must already lie in [0, full_circle].  Exact inputs are
    classified by exact comparison; inexact ones snap to a boundary when
    within 1e-12 of it, relative to the full circle.
    """
    value = angle.value
    circle = angle.reference.full_circle
    if value.is_exact:
        (n, d, e), (cn, cd, ce) = _triple(value), _triple(circle)

        def side(quarters: int) -> int:
            return compare_triples(4 * n, d, e, quarters * cn, cd, ce)
    else:
        f, c = value.to_float(), circle.to_float()
        tolerance = _CLASSIFY_TOLERANCE * c

        def side(quarters: int) -> int:
            gap = f - c * quarters / 4  # c/4, c/2 and c are exact
            if abs(gap) <= tolerance:
                return 0
            return 1 if gap > 0 else -1  # NaN lies below every boundary

    for quarters, below, at in _LADDER:
        against = side(quarters)
        if against == 0:
            return at
        if against < 0:
            if below is None:
                break
            return below
    raise RangeError("classification needs a value in [0, full_circle]")
