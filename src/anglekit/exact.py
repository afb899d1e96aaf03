"""Exact arithmetic over numbers of the form (n/d)·π^e.

A scalar is either exact, a reduced fraction times a power of π with
exponent −1, 0, or +1, or an explicitly flagged inexact float produced by
the few operations that cannot stay exact (mixed-exponent sums, products
whose π exponent would leave the representable range).  Inexactness is
contagious through arithmetic but never silent: `is_exact` always tells
the truth, and nothing ever rounds an exact value behind the caller's
back.  Ordering and float conversion are decided in integers against
`pi_bits` brackets of π, so both are exact by proof.

Exact components are bounded to 64 bits after normalization.  Python
integers would happily grow past that, but a component that large means
the caller is off the supported range, and raising beats quietly
producing numbers whose float conversion has lost all structure.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter

from .errors import ExactOverflowError

__all__ = [
    "ExactScalar",
    "Record",
    "pi_bits",
    "ZERO",
    "ONE",
    "PI",
    "TWO_PI",
    "format_float",
    "compare_triples",
    "overflow_error",
]


def _arccot(x: int, unity: int) -> tuple[int, int]:
    """arccot(x)·unity by its Taylor series in integers, and an error bound.

    Each term is truncated twice (by x² and by its odd divisor), so each
    is off by less than 2; the tail left when the terms reach zero is
    below 1.  The bound is in the same units as the result.
    """
    total = term = unity // x
    x2 = x * x
    divisor = 1
    while term:
        term //= x2
        divisor += 2
        total += -(term // divisor) if divisor % 4 == 3 else term // divisor
    return total, divisor + 3


_pi_cache = (0, 0)  # (bits, ⌊π·2^bits⌋): the one widest value made so far


def pi_bits(bits: int) -> int:
    """⌊π·2^bits⌋ exactly, for bits ≥ 0, from Machin's formula.

    π = 16·arccot 5 − 4·arccot 239 is summed with guard bits, and the
    floor is taken only once the error bound cannot straddle an integer,
    so the result is exact, never just close.  One value is cached; a
    wider request recomputes it at no less than twice the cached width,
    so a run needs only a few evaluations however its widths grow.
    """
    global _pi_cache
    cached_bits, cached = _pi_cache
    if bits > cached_bits:
        cached_bits = max(bits, 2 * cached_bits)
        guard = cached_bits.bit_length() + 16
        while True:
            unity = 1 << (cached_bits + guard)
            a, a_error = _arccot(5, unity)
            b, b_error = _arccot(239, unity)
            scaled = 16 * a - 4 * b
            error = 16 * a_error + 4 * b_error
            low, high = (scaled - error) >> guard, (scaled + error) >> guard
            if low == high:
                break
            guard *= 2
        cached = low
        _pi_cache = (cached_bits, cached)
    return cached >> (cached_bits - bits)


def _pi_order(a: int, b: int, k: int) -> int:
    """Sign of a·π^k − b, for positive integers a, b and k in {±1, ±2}.

    π·2^P lies strictly between ⌊π·2^P⌋ and the next integer, so raising
    both ends to the k-th power brackets a·π^k; P doubles until b falls
    outside the bracket.  π^k is irrational, so the sign is never 0 and
    the loop ends.
    """
    if k < 0:
        return -_pi_order(b, a, -k)
    bits = 64
    while True:
        low = pi_bits(bits)
        scaled = b << (bits * k)
        if a * low**k >= scaled:
            return 1
        if a * (low + 1) ** k <= scaled:
            return -1
        bits *= 2


def _pi_multiple(n: int, d: int, e: int) -> float:
    """(n/d)·π^e correctly rounded, for integers n and d > 0 of any size and e = ±1.

    The ends of π's `pi_bits` interval bracket it, with bits doubling until
    both ends round alike; integer true division rounds correctly.
    """
    bits = 64
    while True:
        low = pi_bits(bits)
        if e == 1:
            value, other_end = n * low / (d << bits), n * (low + 1) / (d << bits)
        else:
            value, other_end = (n << bits) / (d * low), (n << bits) / (d * (low + 1))
        if value == other_end:
            return value
        bits *= 2


def compare_triples(n1: int, d1: int, e1: int, n2: int, d2: int, e2: int) -> int:
    """Sign of (n1/d1)·π^e1 − (n2/d2)·π^e2, for positive d1 and d2, decided in integers."""
    lhs, rhs = n1 * d2, n2 * d1
    if e1 == e2 or not n1 or not n2:
        return (lhs > rhs) - (lhs < rhs)
    sign = 1 if n1 > 0 else -1
    if (n2 > 0) != (n1 > 0):
        return sign
    return sign * _pi_order(abs(lhs), abs(rhs), e1 - e2)


_MAX_COMPONENT = 2**63 - 1
_BOUND_MESSAGE = "normalized component exceeds 64-bit bound: {}/{}"
_triple = attrgetter("numerator", "denominator", "pi_exponent")


def overflow_error(numerator: int, denominator: int) -> ExactOverflowError | None:
    """What `ExactScalar(numerator, denominator > 0)` raises for the 64-bit bound, or None."""
    g = math.gcd(numerator, denominator)
    if abs(numerator) <= _MAX_COMPONENT * g and denominator <= _MAX_COMPONENT * g:
        return None
    return ExactOverflowError(_BOUND_MESSAGE.format(numerator // g, denominator // g))


def format_float(value: float, digits: int = 17) -> str:
    """Render a float with at most `digits` significant digits.

    At 17 digits the shortest round-tripping form is used, so reading the
    text back recovers the identical float.
    """
    if math.isinf(value) or math.isnan(value):
        return repr(value)
    if digits >= 17:
        text = repr(value)
        return text[:-2] if text.endswith(".0") else text
    return f"{value:.{digits}g}"


class Record:
    """Immutable value whose `__slots__`, base first, drive ==, hash, repr and pickling."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields = getattr(cls, "_fields", ()) + cls.__dict__.get("__slots__", ())
        get = attrgetter(*fields)  # a bare value, not a 1-tuple, for one field
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)


class ExactScalar:
    """Immutable scalar: (numerator/denominator)·π^pi_exponent, or a float.

    Exact instances keep `inexact_value` as None.  Inexact instances keep
    the numeric fields as None and carry the float in `inexact_value`.
    Instances must be treated as immutable; all arithmetic returns new
    objects.
    """

    __slots__ = ("numerator", "denominator", "pi_exponent", "inexact_value")

    def __init__(self, numerator: int, denominator: int = 1, pi_exponent: int = 0):
        if not isinstance(numerator, int) or not isinstance(denominator, int):
            raise TypeError("exact components must be integers")
        if not isinstance(pi_exponent, int):
            raise TypeError("pi_exponent must be an integer")
        if denominator == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if pi_exponent not in (-1, 0, 1):
            raise ValueError("pi_exponent must be -1, 0, or 1")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = math.gcd(numerator, denominator)
        numerator //= g
        denominator //= g
        if numerator == 0:
            pi_exponent = 0
        if abs(numerator) > _MAX_COMPONENT or denominator > _MAX_COMPONENT:
            raise ExactOverflowError(_BOUND_MESSAGE.format(numerator, denominator))
        _set_numerator(self, numerator)
        _set_denominator(self, denominator)
        _set_pi_exponent(self, pi_exponent)
        _set_inexact(self, None)

    @classmethod
    def inexact(cls, value: float) -> "ExactScalar":
        """Wrap a float as an explicitly inexact scalar."""
        obj = object.__new__(cls)
        _set_numerator(obj, None)
        _set_denominator(obj, None)
        _set_pi_exponent(obj, None)
        _set_inexact(obj, float(value))
        return obj

    __setattr__ = __delattr__ = Record.__setattr__

    def __reduce__(self):
        if self.is_exact:
            return ExactScalar, _triple(self)
        return ExactScalar.inexact, (self.inexact_value,)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_exact(self) -> bool:
        return self.inexact_value is None

    @property
    def is_zero(self) -> bool:
        if self.is_exact:
            return self.numerator == 0
        return self.inexact_value == 0.0

    def _is_exact_zero(self) -> bool:
        return self.is_exact and self.numerator == 0

    def to_float(self) -> float:
        """Correctly rounded float conversion, by `_pi_multiple` for a
        π-carrying value.  Chaining float operations instead (multiply by
        π, then divide) can drift 2 ulp, which is too sloppy for a type
        whose whole point is accounting for every rounding.
        """
        if not self.is_exact:
            return self.inexact_value
        n, d, e = self.numerator, self.denominator, self.pi_exponent
        return n / d if e == 0 else _pi_multiple(n, d, e)

    def _ratio(self):
        """(n, d, π exponent) of an exact value or a finite float; None for inf and NaN."""
        if self.is_exact:
            return _triple(self)
        if math.isfinite(self.inexact_value):
            return (*self.inexact_value.as_integer_ratio(), 0)
        return None

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, int):
            return ExactScalar(value)
        # No Fraction exists unless `fractions` is loaded, so it need not be.
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(value, fractions.Fraction):
            return ExactScalar(value.numerator, value.denominator)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact and other.is_exact:
            if self._is_exact_zero():
                return other
            if other._is_exact_zero():
                return self
            if self.pi_exponent == other.pi_exponent:
                return ExactScalar(
                    self.numerator * other.denominator
                    + other.numerator * self.denominator,
                    self.denominator * other.denominator,
                    self.pi_exponent,
                )
        return ExactScalar.inexact(self.to_float() + other.to_float())

    __radd__ = __add__

    def __neg__(self):
        if self.is_exact:
            return ExactScalar(-self.numerator, self.denominator, self.pi_exponent)
        return ExactScalar.inexact(-self.inexact_value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact and other.is_exact:
            exponent = self.pi_exponent + other.pi_exponent
            numerator = self.numerator * other.numerator
            if numerator == 0 or -1 <= exponent <= 1:
                return ExactScalar(
                    numerator, self.denominator * other.denominator, 0 if numerator == 0 else exponent
                )
        return ExactScalar.inexact(self.to_float() * other.to_float())

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        if self.is_exact and other.is_exact:
            exponent = self.pi_exponent - other.pi_exponent
            if self.numerator == 0 or -1 <= exponent <= 1:
                return ExactScalar(
                    self.numerator * other.denominator,
                    self.denominator * other.numerator,
                    0 if self.numerator == 0 else exponent,
                )
        return ExactScalar.inexact(self.to_float() / other.to_float())

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # ------------------------------------------------------------------
    # comparison

    def _comparable(self, value):
        """`value` as a scalar for ordering and equality: unlike arithmetic,
        these also take a float, which stands for its exact binary value."""
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, float):
            return ExactScalar.inexact(value)
        return self._coerce(value)

    def compare(self, other) -> int:
        """Three-way comparison: −1, 0, or +1, decided in integers.

        A finite float counts as its exact binary value, and the two
        triples go to `compare_triples`.  Two floats, or an infinity,
        compare as floats, and NaN refuses to order.
        """
        operand = self._comparable(other)
        if operand is NotImplemented:
            raise TypeError(f"cannot compare ExactScalar with {type(other).__name__}")
        if self.inexact_value is None and operand.inexact_value is None:
            return compare_triples(self.numerator, self.denominator, self.pi_exponent,
                                   operand.numerator, operand.denominator, operand.pi_exponent)
        one_exact = self.is_exact or operand.is_exact
        left, right = (self._ratio(), operand._ratio()) if one_exact else (None, None)
        if left is None or right is None:
            a, b = self.to_float(), operand.to_float()
            if a != a or b != b:
                raise ValueError("cannot order NaN")
            return (a > b) - (a < b)
        (n1, d1, e1), (n2, d2, e2) = left, right  # unpacked: a starred call costs more
        return compare_triples(n1, d1, e1, n2, d2, e2)

    def __eq__(self, other):
        operand = self._comparable(other)
        if operand is NotImplemented:
            return NotImplemented
        if self.inexact_value is None and operand.inexact_value is None:
            # Normalized and π irrational: equal values have equal triples.
            return _triple(self) == _triple(operand)
        try:
            return self.compare(operand) == 0
        except ValueError:
            return False

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        # Equal values must hash equal: exact π-free values equal ints,
        # Fractions and floats of the same value, so they hash by the
        # rule for rationals in "Hashing of numeric types" of the Python
        # docs; π-carrying values only ever equal each other.
        if not self.is_exact:
            return hash(self.inexact_value)
        if self.pi_exponent:
            return hash(_triple(self))
        n, modulus = self.numerator, sys.hash_info.modulus
        try:
            value = hash(abs(n)) * pow(self.denominator, -1, modulus) % modulus
        except ValueError:  # the denominator is a multiple of the modulus
            value = sys.hash_info.inf
        value = -value if n < 0 else value
        return -2 if value == -1 else value

    def __bool__(self):
        return not self.is_zero

    # ------------------------------------------------------------------
    # rendering

    def render(self, ascii_only: bool = False, digits: int = 17) -> str:
        """Human form: "3π/4", "π", "42", "7/2", "1/(2π)", "180/π".

        Inexact values render through `format_float` with `digits`
        significant digits.  With `ascii_only` the π glyph becomes "pi".
        """
        if not self.is_exact:
            return format_float(self.inexact_value, digits)
        pi_text = "pi" if ascii_only else "π"
        n, d, e = self.numerator, self.denominator, self.pi_exponent
        if e == 0:
            return str(n) if d == 1 else f"{n}/{d}"
        if e == 1:
            sign = "-" if n < 0 else ""
            coefficient = "" if abs(n) == 1 else str(abs(n))
            head = f"{sign}{coefficient}{pi_text}"
            return head if d == 1 else f"{head}/{d}"
        if d == 1:
            return f"{n}/{pi_text}"
        return f"{n}/({d}{pi_text})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        if self.is_exact:
            return (
                f"ExactScalar({self.numerator}, {self.denominator}, "
                f"pi_exponent={self.pi_exponent})"
            )
        return f"ExactScalar.inexact({self.inexact_value!r})"


# Bound slot setters: __init__ writes each slot once through them, at half object.__setattr__'s cost.
_set_numerator, _set_denominator = ExactScalar.numerator.__set__, ExactScalar.denominator.__set__
_set_pi_exponent, _set_inexact = ExactScalar.pi_exponent.__set__, ExactScalar.inexact_value.__set__
ZERO = ExactScalar(0)
ONE = ExactScalar(1)
PI = ExactScalar(1, 1, 1)
TWO_PI = ExactScalar(2, 1, 1)
