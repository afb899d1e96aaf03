"""Planar angle geometry: rays, arcs, chords, and the chord integral.

The chord integral F(x) = ∫₀ˣ dt/√(1−t²) is evaluated by numerical
quadrature on purpose.  It must stand on its own as a second route to the
inverse sine, so it never calls one; after the substitution u = √(1−t)
the integrand 2/√(2−u²) is smooth on all of [0, 1] (the singularity sits
at u = √2) and a modest adaptive rule reaches 1e-10 territory including
the endpoint x = 1.
"""

from __future__ import annotations

import math

from .angles import AngleValue, Magnitude, Measure, in_magnitude_range, measure_of
from .errors import DegenerateVertexError, DomainError, RadiusError, RangeError, ZeroAngleError
from .exact import TWO_PI, ZERO, ExactScalar, Record
from .quadrature import integrate

__all__ = [
    "PlanarPoint",
    "ArcSpec",
    "check_radius",
    "angle_from_points",
    "arc_length",
    "chord_length",
    "chord_integral",
]

_DEGENERACY_THRESHOLD = 1e-12  # relative to the longer ray
_DOWNSCALE = 2.0**-600
_UPSCALE_BELOW = 2.0**-900  # |u|·|w| under which the rays are scaled up


class PlanarPoint(Record):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError("planar points need finite coordinates")
        _set_x(self, x)
        _set_y(self, y)


def check_radius(radius: float) -> None:
    """Reject a radius that is not a positive finite number."""
    if not math.isfinite(radius) or radius <= 0.0:
        raise RadiusError("radius must be positive and finite")


class ArcSpec(Record):
    """A circular arc: positive radius plus a magnitude-range measure."""

    __slots__ = ("radius", "measure")

    def __init__(self, radius: float, measure: Measure):
        check_radius(radius)
        if not in_magnitude_range(measure.value):
            raise RangeError("arc measure must lie in (0, 2π]")
        _set_radius(self, radius)
        _set_measure(self, measure)


_set_x, _set_y = PlanarPoint.x.__set__, PlanarPoint.y.__set__
_set_radius, _set_measure = ArcSpec.radius.__set__, ArcSpec.measure.__set__


def angle_from_points(p: PlanarPoint, vertex: PlanarPoint, q: PlanarPoint) -> Magnitude:
    """The magnitude between rays vertex→p and vertex→q.

    Rejects rays too short to define a direction and ray pairs pointing
    the same way (no angle exists between coincident rays).  The result
    is inexact by nature and lies in (0, π].
    """
    ux, uy = p.x - vertex.x, p.y - vertex.y
    vx, vy = q.x - vertex.x, q.y - vertex.y
    lu = math.hypot(ux, uy)
    lv = math.hypot(vx, vy)
    longer = max(lu, lv)
    if lu * lv < _UPSCALE_BELOW:
        # The products would underflow.  One power of two for both rays keeps
        # the angle and the length ratios the two checks below read; ldexp,
        # since 2.0 ** k overflows for the k that a subnormal ray needs.
        k = -math.frexp(longer)[1]
        ux, uy, vx, vy, lu, lv, longer = (math.ldexp(c, k) for c in (ux, uy, vx, vy, lu, lv, longer))
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    if not (math.isfinite(cross) and math.isfinite(dot)):
        # A difference or a product overflowed.  Scaling by a power of two
        # keeps the angle, and after 2^-600 no product can overflow; only
        # coordinates far too small to move the result lose bits.
        scaled = (PlanarPoint(pt.x * _DOWNSCALE, pt.y * _DOWNSCALE) for pt in (p, vertex, q))
        return angle_from_points(*scaled)
    if min(lu, lv) <= _DEGENERACY_THRESHOLD * longer:
        raise DegenerateVertexError("ray endpoint coincides with the vertex")
    if abs(cross) <= _DEGENERACY_THRESHOLD * lu * lv and dot > 0.0:
        raise ZeroAngleError("rays point the same way; no angle between them")
    phi = math.atan2(abs(cross), dot)
    if phi <= 0.0:
        raise ZeroAngleError("rays point the same way; no angle between them")
    return Magnitude(Measure(ExactScalar.inexact(phi)))


def _finite_length(length: float) -> float:
    if not math.isfinite(length):
        raise DomainError("length is outside float range")
    return length


def arc_length(arc: ArcSpec) -> float:
    """Arc length s = measure·radius.

    One multiplication, so s/r recovers the measure bit-for-bit whenever
    the radius is a power of two, and to within 1 ulp otherwise.  A
    length past the float range raises DomainError.
    """
    return _finite_length(arc.measure.value.to_float() * arc.radius)


def chord_length(angle: AngleValue, radius: float) -> float:
    """Chord subtended by `angle` on a circle of `radius`.

    The angle's measure must lie in [0, 2π]; the chord is 2r·sin(φ/2).
    Doubling the sine rather than the radius is exact and cannot
    overflow, so a zero angle gives 0.0 at any radius, and so does the
    exact full circle.  A length past the float range raises DomainError.
    """
    check_radius(radius)
    phi = measure_of(angle).value
    against_full = phi.compare(TWO_PI)
    if phi.compare(ZERO) < 0 or against_full > 0:
        raise RangeError("chord needs a measure in [0, 2π]")
    if against_full == 0:
        return 0.0  # 2r·sin of the rounded π is 2.4e-16·r, not 0
    return _finite_length(radius * (2.0 * math.sin(0.5 * phi.to_float())))


def chord_integral(x: float) -> float:
    """F(x) = ∫₀ˣ dt/√(1−t²) for x in [0, 1], by quadrature alone.

    Monotone from F(0) = 0 to F(1) = π/2.  Deliberately independent of
    math.asin so the two can check each other.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("chord integral is defined on [0, 1]")
    if x == 0.0:
        return 0.0
    lower = math.sqrt(1.0 - x)
    return integrate(lambda u: 2.0 / math.sqrt(2.0 - u * u), lower, 1.0, tolerance=1e-11)
