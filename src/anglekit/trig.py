"""Trigonometric function families parameterized by a full-circle period.

A periodized sine with period p maps x to sin(2π·x/p): the familiar
functions for p = 2π, degree-flavored ones for p = 360, and so on.  For
p = 2π the reduced angle is |x| itself, and libm's reduction inside
`math.sin`, `math.cos` and `math.tan` keeps the result within 1 ulp.  Any
other period reduces the argument modulo p in integer arithmetic before
any float trig runs: exactly for a rational period, and for a π period
with as many bits of π as the size of x demands, so the reduced angle is
correctly rounded for every finite float.  That keeps periodicity exact
(x and x + 10⁶·p produce the identical float) and keeps accuracy flat
across the whole argument range instead of decaying with |x|.  The latest
reduction is kept, so sin, cos and tan at one x and period object reduce once.
"""

from __future__ import annotations

import math

from .angles import (
    BUILTIN_REFERENCES,
    AngleValue,
    ReferenceAngle,
    check_full_circle,
    measure_of,
)
from .errors import DomainError, PoleError
from .exact import ExactScalar, Record, _pi_multiple, pi_bits

__all__ = [
    "FORWARD_KINDS",
    "INVERSE_KINDS",
    "PeriodizedFunction",
    "UnitCirclePoint",
    "eval_periodized",
    "eval_inverse",
    "pythagorean_residual",
    "phase",
    "reference_for_period",
]

FORWARD_KINDS = ("sin", "cos", "tan")
INVERSE_KINDS = ("arcsin", "arccos")
_HALF_PI = math.pi / 2.0
_GUARD_BITS = 128  # bits of π kept beyond the integer part of x/p
# (|x|, period, θ) of the latest reduction, θ = |x| for period 2π, replaced whole
# so threads see one entry or the other; holding the period keeps its identity unique.
_last_reduction = (None, None, 0.0)


class PeriodizedFunction(Record):
    """One of sin/cos/tan rescaled to an exact positive period."""

    __slots__ = ("kind", "period")

    def __init__(self, kind: str, period: ExactScalar):
        if kind not in FORWARD_KINDS:
            raise ValueError(f"kind must be one of {FORWARD_KINDS}")
        check_full_circle(period)
        _set_kind(self, kind)
        _set_period(self, period)

    def __call__(self, x: float) -> float:
        return eval_periodized(self, x)


class UnitCirclePoint(Record):
    """A point constrained to the unit circle."""

    __slots__ = ("re", "im")

    def __init__(self, re: float, im: float):
        if not abs(re * re + im * im - 1.0) <= 1e-12:  # NaN and inf fail too
            raise ValueError("point is off the unit circle")
        _set_re(self, re)
        _set_im(self, im)


_set_kind, _set_period = PeriodizedFunction.kind.__set__, PeriodizedFunction.period.__set__
_set_re, _set_im = UnitCirclePoint.re.__set__, UnitCirclePoint.im.__set__


def _scaled_argument(x: float, period: ExactScalar) -> float:
    """Reduce x modulo the period, then rescale into [0, 2π) radians.

    Integer arithmetic throughout, with π known to lie between
    ⌊π·2^P⌋/2^P and the next step, from `pi_bits`.  Write x/p =
    (num/den)·π^(−e) for the period's π exponent e, and θ = 2π·(x/p − k)
    with k = ⌊x/p⌋.  For e = 0 the whole turns drop out exactly, and θ =
    2π·(num mod den)/den is rounded as `ExactScalar.to_float` rounds.
    Otherwise k comes from the turn count in fixed point.  θ is then
    bracketed by evaluating it at both ends of π's interval, with P
    starting 128 bits past the integer part of x/p.  The bracket is
    accepted once it lies in [0, 2π), so k was right, and both ends
    round to the same float, which is then θ correctly rounded; else P
    doubles.  θ is irrational for x ≠ 0 unless it is the exact 2x/p of
    x in [0, p) with e = 1, where the bracket has zero width, so the
    loop ends for every finite x.
    """
    a, b = x.as_integer_ratio()
    if a == 0:
        return 0.0
    e = period.pi_exponent
    num, den = a * period.denominator, b * period.numerator
    if e == 0:
        return _pi_multiple(2 * (num % den), den, 1)
    bits = max(num.bit_length() - den.bit_length(), 0) + _GUARD_BITS
    while True:
        pi = pi_bits(bits)  # π·2^bits = Π lies in (pi, pi + 1)
        # θ·(den << shift) is within error of middle, Π's error carried
        # through a polynomial in Π: 2·num·2^bits − 2k·den·Π or
        # (2·num·Π − 2k·den·2^bits)·Π.
        if e == 1:
            k = (num << bits) // (den * pi)
            c1 = -2 * k * den
            middle, error, shift = c1 * pi + ((2 * num) << bits), abs(c1), bits
        else:
            k = (num * pi) // (den << bits)
            c2, c1 = 2 * num, (-2 * k * den) << bits
            middle = (c2 * pi + c1) * pi
            error, shift = abs(c2) * (2 * pi + 1) + abs(c1), 2 * bits
        low, high = middle - error, middle + error
        # (pi·den) << (shift − bits + 1) is below 2π·(den << shift).
        if low >= 0 and high < (pi * den) << (shift - bits + 1):
            scale = den << shift
            theta = low / scale
            if error == 0 or theta == high / scale:
                return theta
        bits *= 2


def eval_periodized(f: PeriodizedFunction, x: float) -> float:
    """Evaluate a periodized function at a float argument.  |x| is reduced, so
    sin and tan are odd and cos even bit for bit; tan's pole is θ equal to
    the float π/2 or 3π/2, where every exact odd quarter of a rational period lands."""
    global _last_reduction
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    period, size = f.period, abs(x)
    last_size, last_period, theta = _last_reduction
    if last_size != size or last_period is not period:
        if period.pi_exponent == 1 and period.numerator == 2 and period.denominator == 1:
            theta = size  # period 2π: libm's own reduction of |x| is within 1 ulp
        else:
            theta = _scaled_argument(size, period)
        _last_reduction = (size, period, theta)
    if f.kind == "cos":
        return math.cos(theta)
    if f.kind == "sin":
        value = math.sin(theta)
    elif theta == _HALF_PI or theta == 3.0 * _HALF_PI:
        raise PoleError("tangent pole: argument is an odd quarter of the period")
    else:
        value = math.tan(theta)
    return 0.0 - value if x < 0 else value  # an exact zero stays +0.0


def eval_inverse(kind: str, period: ExactScalar, x: float) -> AngleValue:
    """Inverse sine or cosine expressed against the given period.

    Returns an angle value whose reference has `period` as its full
    circle: in [-period/4, period/4] for arcsin, [0, period/2] for
    arccos.
    """
    if kind not in INVERSE_KINDS:
        raise ValueError(f"kind must be one of {INVERSE_KINDS}")
    check_full_circle(period)
    if not -1.0 <= x <= 1.0:
        raise DomainError("inverse sine and cosine are defined on [-1, 1]")
    theta = math.asin(x) if kind == "arcsin" else math.acos(x)
    # Dividing by π first makes the quarter-period anchors land exactly:
    # arccos(-1) with period 400 is 200.0, not 199.99999999999997.
    value = (theta / math.pi) * period.to_float() / 2.0
    return AngleValue(ExactScalar.inexact(value), reference_for_period(period))


def pythagorean_residual(period: ExactScalar, x: float) -> float:
    """cos²+sin²−1 for the periodized pair at x; zero up to float noise."""
    s = eval_periodized(PeriodizedFunction("sin", period), x)
    c = eval_periodized(PeriodizedFunction("cos", period), x)
    return c * c + s * s - 1.0


def phase(angle: AngleValue) -> UnitCirclePoint:
    """The unit-circle point an angle value lands on."""
    phi = measure_of(angle).value.to_float()
    return UnitCirclePoint(math.cos(phi), math.sin(phi))


def reference_for_period(period: ExactScalar) -> ReferenceAngle:
    """The builtin reference with this full circle, or a synthesized one."""
    for ref in BUILTIN_REFERENCES:
        if ref.full_circle == period:
            return ref
    text = period.render(ascii_only=True)
    return ReferenceAngle(f"period-{text}", f"[{text}]", period)
