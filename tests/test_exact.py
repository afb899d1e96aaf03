"""Exact scalar arithmetic: representation, contagion, ordering, rendering."""

import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anglekit.errors import ExactOverflowError
from anglekit.exact import (
    PI,
    TWO_PI,
    ZERO,
    ExactScalar,
    format_float,
)


class TestConstruction:
    def test_normalizes_gcd(self):
        v = ExactScalar(2, 4)
        assert (v.numerator, v.denominator) == (1, 2)

    def test_normalizes_denominator_sign(self):
        v = ExactScalar(3, -6)
        assert (v.numerator, v.denominator) == (-1, 2)

    def test_zero_forces_exponent_zero(self):
        assert ExactScalar(0, 5, 1).pi_exponent == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            ExactScalar(1, 0)

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(ValueError):
            ExactScalar(1, 1, 2)

    def test_rejects_non_integer_components(self):
        with pytest.raises(TypeError):
            ExactScalar(1.5)  # type: ignore[arg-type]

    def test_component_bound_is_checked_after_reduction(self):
        v = ExactScalar(2**64, 2**63)
        assert (v.numerator, v.denominator) == (2, 1)
        assert ExactScalar(2**63 - 1).numerator == 2**63 - 1
        with pytest.raises(ExactOverflowError):
            ExactScalar(2**63)
        with pytest.raises(ExactOverflowError):
            ExactScalar(1, 2**63)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PI.numerator = 2  # type: ignore[misc]

    @pytest.mark.parametrize("field", ["numerator", "denominator", "pi_exponent", "inexact_value"])
    @pytest.mark.parametrize(
        "value", [ExactScalar(3, 7, 1), ExactScalar.inexact(0.25)], ids=["exact", "inexact"]
    )
    def test_every_field_refuses_assignment_and_deletion(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError, match="^ExactScalar is immutable$"):
            setattr(value, field, 1)
        with pytest.raises(AttributeError, match="^ExactScalar is immutable$"):
            delattr(value, field)
        assert getattr(value, field) is before

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((1.5,), TypeError, "exact components must be integers"),
            ((1, 2.0), TypeError, "exact components must be integers"),
            ((1, 1, 1.0), TypeError, "pi_exponent must be an integer"),
            ((1, 0), ZeroDivisionError, "denominator must be nonzero"),
            ((1, 1, 2), ValueError, "pi_exponent must be -1, 0, or 1"),
            ((2**63,), ExactOverflowError, "normalized component exceeds 64-bit bound: 9223372036854775808/1"),
            ((3, -(2**64)), ExactOverflowError, "normalized component exceeds 64-bit bound: -3/18446744073709551616"),
        ],
    )
    def test_constructor_errors_keep_their_class_and_message(self, args, error, message):
        with pytest.raises(error) as caught:
            ExactScalar(*args)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestToFloat:
    def test_half_pi(self):
        v = PI / ExactScalar(2)
        assert v.to_float() == 1.5707963267948966
        assert v.to_float() == math.pi / 2

    def test_plain_rational_is_correctly_rounded(self):
        assert ExactScalar(1, 3).to_float() == 0.3333333333333333
        assert ExactScalar(1, 3).to_float() == 1 / 3

    def test_reciprocal_pi(self):
        v = ExactScalar(180) / PI
        assert v.pi_exponent == -1
        assert v.to_float() == 180 / math.pi

    def test_inexact_passthrough(self):
        assert ExactScalar.inexact(2.5).to_float() == 2.5


class TestArithmetic:
    def test_mul_exact(self):
        assert ExactScalar(3, 4) * ExactScalar(2, 5) == ExactScalar(3, 10)

    def test_mul_pi_by_pi_degrades(self):
        product = PI * PI
        assert not product.is_exact
        # Oracle: direct float evaluation of the square.
        assert product.inexact_value == math.pi * math.pi
        assert product.inexact_value == 9.869604401089358

    def test_mul_zero_by_pi_stays_exact(self):
        assert (ZERO * PI).is_zero
        assert (ZERO * PI).is_exact

    def test_mul_overflow_raises(self):
        with pytest.raises(ExactOverflowError):
            ExactScalar(2**62) * ExactScalar(3)

    def test_add_same_exponent(self):
        total = ExactScalar(1, 2, 1) + ExactScalar(1, 3, 1)
        assert total == ExactScalar(5, 6, 1)
        assert total.is_exact

    def test_add_mixed_exponent_degrades(self):
        total = ExactScalar(1, 2) + PI / ExactScalar(2)
        assert not total.is_exact
        # Oracle: float sum of the two float conversions.
        assert total.inexact_value == 0.5 + math.pi / 2
        assert total.inexact_value == 2.0707963267948966

    def test_add_exact_zero_preserves_exactness(self):
        assert (PI + ZERO) == PI
        assert (PI + ZERO).is_exact
        assert (ZERO + ExactScalar(1, 3, -1)).is_exact

    def test_add_inexact_zero_is_contagious(self):
        total = PI + ExactScalar.inexact(0.0)
        assert not total.is_exact
        assert total.inexact_value == math.pi

    def test_sub(self):
        assert TWO_PI - PI == PI
        assert ExactScalar(1, 2) - ExactScalar(1, 3) == ExactScalar(1, 6)

    def test_div_cancels_pi(self):
        assert PI / PI == ExactScalar(1)
        assert (ExactScalar(1) / PI).pi_exponent == -1
        assert (ExactScalar(1) / PI) * PI == ExactScalar(1)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PI / ZERO
        with pytest.raises(ZeroDivisionError):
            PI / ExactScalar.inexact(0.0)

    def test_div_exponent_out_of_range_degrades(self):
        quotient = (ExactScalar(1) / PI) / PI
        assert not quotient.is_exact
        assert quotient.inexact_value == pytest.approx(1 / math.pi**2, rel=1e-15)

    def test_int_coercion(self):
        assert PI * 2 == TWO_PI
        assert 2 * PI == TWO_PI
        assert ExactScalar(5) - 2 == ExactScalar(3)
        assert (1 + ExactScalar(1, 2)) == ExactScalar(3, 2)

    def test_inexact_contagion_through_mul(self):
        assert not (ExactScalar.inexact(2.0) * PI).is_exact


class TestCompare:
    def test_same_exponent(self):
        assert ExactScalar(1, 3).compare(ExactScalar(1, 2)) == -1
        assert ExactScalar(1, 2, 1).compare(ExactScalar(1, 2, 1)) == 0

    def test_mixed_exponent_brackets_pi_to_18_digits(self):
        below = ExactScalar(3141592653589793238, 10**18)
        above = ExactScalar(3141592653589793239, 10**18)
        assert below < PI < above

    def test_mixed_exponent_brackets_reciprocal_pi(self):
        below = ExactScalar(318309886183790671, 10**18)
        above = ExactScalar(318309886183790672, 10**18)
        assert below < ExactScalar(1) / PI < above

    @pytest.mark.parametrize(
        "smaller, larger",
        [
            # a·π − b ≈ 1.7e-70 (2.0e-64 of the values): decided at 256 bits of π
            (
                ExactScalar(6939564217479, 7935464626840660372, 0),
                ExactScalar(1669851594316, 5998848711170624207, 1),
            ),
            # b/π − a·π ≈ 6.5e-67 (1.9e-60 of the values)
            (
                ExactScalar(41344104451, 370644896122507743, 1),
                ExactScalar(5250756711139, 4769431170697166201, -1),
            ),
        ],
    )
    def test_near_ties_against_mpmath(self, smaller, larger):
        assert _order_oracle(smaller, larger) == -1
        assert smaller.compare(larger) == -1
        assert larger.compare(smaller) == 1
        assert smaller < larger and larger > smaller
        assert smaller != larger and larger != smaller

    def test_type_error_names_the_operand_type(self):
        with pytest.raises(TypeError, match="^cannot compare ExactScalar with str$"):
            ExactScalar(1).compare("x")
        with pytest.raises(TypeError, match="with NoneType$"):
            PI.compare(None)

    def test_float_operand_is_its_exact_binary_value(self):
        assert ExactScalar(1) == 1.0 and 1.0 == ExactScalar(1)
        assert ExactScalar(-3, 4) == -0.75 and ZERO == -0.0
        assert ExactScalar(1, 3) != 1 / 3 and 1 / 3 != ExactScalar(1, 3)
        assert ExactScalar(1, 3).compare(1 / 3) == 1  # the float 1/3 lies below 1/3
        assert PI != math.pi and PI > math.pi and math.pi < PI and ExactScalar(1) / PI < 1.0
        assert ExactScalar(1, 2, 1) < math.inf and ExactScalar(-5) > -math.inf
        with pytest.raises(ValueError):
            PI.compare(math.nan)
        assert not (PI == math.nan)

    def test_arithmetic_still_refuses_floats(self):
        with pytest.raises(TypeError):
            ExactScalar(1) + 1.0
        with pytest.raises(TypeError):
            0.5 * PI

    def test_exact_vs_inexact(self):
        assert ExactScalar(1, 2) == ExactScalar.inexact(0.5)
        assert PI != ExactScalar.inexact(math.pi)
        assert PI > ExactScalar.inexact(math.pi)

    def test_infinities(self):
        assert ExactScalar.inexact(math.inf) > PI
        assert ExactScalar.inexact(-math.inf) < ZERO

    def test_nan_refuses_order_and_never_equals(self):
        nan = ExactScalar.inexact(math.nan)
        with pytest.raises(ValueError):
            nan.compare(ZERO)
        assert not (nan == nan)

    def test_hash_consistency_with_equality(self):
        assert hash(ExactScalar(1, 2)) == hash(ExactScalar.inexact(0.5))
        assert hash(ExactScalar(3)) == hash(3)
        assert hash(PI) == hash(PI * ExactScalar(1))

    def test_other_number_types_never_equal(self):
        # README: only ExactScalar, int, Fraction and float compare by value.
        one = ExactScalar(1)
        assert one == ExactScalar(1) and one == 1 and one == Fraction(1) and one == 1.0
        assert not (Decimal(1) == one) and not (one == Decimal(1))
        assert not (one == complex(1)) and not (complex(1) == one)


_COMPONENT = 2**63 - 1
_MODULUS = sys.hash_info.modulus


@settings(max_examples=500)
@given(st.integers(-_COMPONENT, _COMPONENT), st.integers(1, _COMPONENT))
@example(0, 1)
@example(-1, 1)  # hash(-1) is -2
@example(-_COMPONENT, 1)
@example(1, _MODULUS)  # no inverse modulo the modulus: the hash of infinity
@example(-3, 3 * _MODULUS)
def test_hash_and_equality_match_fraction_over_the_component_range(n, d):
    value, fraction = ExactScalar(n, d), Fraction(n, d)
    assert value == fraction and fraction == value
    assert hash(value) == hash(fraction)


class TestRender:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (PI, "π"),
            (PI / ExactScalar(2), "π/2"),
            (ExactScalar(3, 4) * PI, "3π/4"),
            (ExactScalar(4) * PI, "4π"),
            (ExactScalar(-1, 3) * PI, "-π/3"),
            (ExactScalar(42), "42"),
            (ExactScalar(7, 2), "7/2"),
            (ExactScalar(-5), "-5"),
            (ExactScalar(1) / (ExactScalar(2) * PI), "1/(2π)"),
            (ExactScalar(180) / PI, "180/π"),
            (ExactScalar(-3) / PI, "-3/π"),
            (ZERO, "0"),
        ],
    )
    def test_exact_forms(self, value, expected):
        assert value.render() == expected
        assert str(value) == expected

    def test_ascii_fallback(self):
        assert PI.render(ascii_only=True) == "pi"
        assert (ExactScalar(3, 4) * PI).render(ascii_only=True) == "3pi/4"
        assert (ExactScalar(1) / (ExactScalar(2) * PI)).render(ascii_only=True) == "1/(2pi)"

    def test_inexact_renders_shortest_float(self):
        assert ExactScalar.inexact(0.1).render() == "0.1"
        assert ExactScalar.inexact(90.0).render() == "90"

    def test_format_float_digit_control(self):
        assert format_float(math.pi, 17) == "3.141592653589793"
        assert format_float(math.pi, 5) == "3.1416"
        assert format_float(1.0) == "1"
        assert float(format_float(0.1)) == 0.1

    @pytest.mark.parametrize("digits", [1, 5, 16])
    def test_format_float_of_non_finite_values_at_few_digits(self, digits):
        assert [format_float(v, digits) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]


# ----------------------------------------------------------------------
# properties

# Bounded so products and sums cannot hit the 64-bit component bound
# (overflow behavior has its own test).
rationals = st.fractions(
    min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=10**4
)


@given(rationals, rationals)
def test_rational_product_matches_fraction_oracle(a, b):
    result = ExactScalar(a.numerator, a.denominator) * ExactScalar(
        b.numerator, b.denominator
    )
    expected = a * b
    assert result.is_exact
    assert (result.numerator, result.denominator) == (
        expected.numerator,
        expected.denominator,
    )


@given(rationals, rationals)
def test_rational_sum_matches_fraction_oracle(a, b):
    result = ExactScalar(a.numerator, a.denominator) + ExactScalar(
        b.numerator, b.denominator
    )
    expected = a + b
    assert result.is_exact
    assert (result.numerator, result.denominator) == (
        expected.numerator,
        expected.denominator,
    )


@given(rationals, rationals)
def test_compare_matches_fraction_order(a, b):
    left = ExactScalar(a.numerator, a.denominator)
    right = ExactScalar(b.numerator, b.denominator)
    assert left.compare(right) == (a > b) - (a < b)


_components = st.one_of(
    st.just(0), st.integers(-50, 50), st.integers(-(2**63 - 1), 2**63 - 1)
)
exact_scalars = st.builds(
    ExactScalar,
    _components,
    st.one_of(st.integers(1, 50), st.integers(1, 2**63 - 1)),
    st.sampled_from((-1, 0, 1)),
)


def _order_oracle(a: ExactScalar, b: ExactScalar) -> int:
    """Sign of a − b: exact in Fraction for one exponent, else mpmath at 300 digits."""
    qa = Fraction(a.numerator, a.denominator)
    qb = Fraction(b.numerator, b.denominator)
    if a.pi_exponent == b.pi_exponent:
        return (qa > qb) - (qa < qb)
    with mpmath.workdps(300):
        va = mpmath.mpf(qa.numerator) / qa.denominator * mpmath.pi**a.pi_exponent
        vb = mpmath.mpf(qb.numerator) / qb.denominator * mpmath.pi**b.pi_exponent
        return (va > vb) - (va < vb)


@given(exact_scalars, exact_scalars, st.integers(1, 1000))
def test_equality_and_compare_match_oracle(a, b, scale):
    expected = _order_oracle(a, b)
    assert a.compare(b) == expected
    assert b.compare(a) == -expected
    assert (a == b) == (expected == 0)
    # The same value spelt with a common factor, and a zero of any exponent.
    same = ExactScalar(a.numerator * scale, a.denominator * scale, b.pi_exponent)
    assert (a == same) == (_order_oracle(a, same) == 0)
    assert a.compare(same) == _order_oracle(a, same)
    zero = ExactScalar(0, scale, b.pi_exponent)
    assert zero == ZERO
    assert a.compare(zero) == (a.numerator > 0) - (a.numerator < 0)


def _ulp_distance(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _mp(value: ExactScalar):
    """An exact value in mpmath at the working precision."""
    return mpmath.mpf(value.numerator) / value.denominator * mpmath.pi**value.pi_exponent


def test_float_conversion_of_products_and_sums_within_one_ulp():
    # 10_000 randomized cases.  Exact results must convert to within 1 ulp
    # of the correctly rounded true value (oracle: mpmath at 100 digits,
    # rounded once); degraded results are defined as the float evaluation
    # itself, bit for bit.
    rng = random.Random(20260814)
    for _ in range(10_000):
        a = ExactScalar(
            rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.choice((-1, 0, 1))
        )
        b = ExactScalar(
            rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.choice((-1, 0, 1))
        )
        with mpmath.workdps(100):
            product, total = _mp(a) * _mp(b), _mp(a) + _mp(b)
        for result, oracle, float_eval in (
            (a * b, product, a.to_float() * b.to_float()),
            (a + b, total, a.to_float() + b.to_float()),
        ):
            if result.is_exact:
                assert _ulp_distance(result.to_float(), float(oracle)) <= 1.0
            else:
                assert result.inexact_value == float_eval


_nonzero_components = st.integers(-(2**63 - 1), 2**63 - 1).filter(bool)
pi_scalars = st.builds(
    ExactScalar, _nonzero_components, st.integers(1, 2**63 - 1), st.sampled_from((-1, 1))
)


# The examples are values that 64 bits of π leave on both sides of a
# rounding boundary, so the bracket must widen: for the first four the
# second end of the 64-bit bracket rounds right, for the last two the first.
@given(pi_scalars)
@example(ExactScalar(3901242862198422174, 8286847579478614171, 1))
@example(ExactScalar(-4929197797069096038, 2144578812509419031, 1))
@example(ExactScalar(3280321289383236220, 4091002146080833297, -1))
@example(ExactScalar(-1319533793699424527, 1772463329779680441, -1))
@example(ExactScalar(756409533793269826, 427059052930400129, 1))
@example(ExactScalar(758713878774415508, 656988272969852899, -1))
def test_to_float_is_correctly_rounded(value):
    with mpmath.workdps(100):
        assert value.to_float() == float(_mp(value))


with mpmath.workprec(2100):
    _PI_FRACTION = Fraction(int(mpmath.pi * 2**2048), 2**2048)


@given(exact_scalars)
def test_compare_with_float_neighbours_matches_fraction_oracle(value):
    exact = Fraction(value.numerator, value.denominator) * _PI_FRACTION**value.pi_exponent
    nearest = value.to_float()
    for f in (nearest, math.nextafter(nearest, -math.inf), math.nextafter(nearest, math.inf)):
        expected = (exact > Fraction(f)) - (exact < Fraction(f))
        assert value.compare(f) == expected
        assert value.compare(ExactScalar.inexact(f)) == expected
        assert ExactScalar.inexact(f).compare(value) == -expected
        assert (value == f) == (f == value) == (expected == 0)


def _number(kind: str, value: tuple):
    """n/d·π^e spelt as `kind`; ints, Fractions and floats drop or round the π."""
    n, d, e = value
    if kind == "exact":
        return ExactScalar(n, d, e)
    if kind == "int":
        return n
    if kind == "fraction":
        return Fraction(n, d)
    number = n / d * math.pi**e
    return number if kind == "float" else ExactScalar.inexact(number)


_values = st.tuples(st.integers(-4, 4), st.sampled_from((1, 2, 4)), st.sampled_from((0, 0, -1, 1)))
_kinds = st.sampled_from(("exact", "inexact", "int", "fraction", "float"))
_specials = st.sampled_from((math.inf, -math.inf, math.nan, -0.0)).flatmap(
    lambda f: st.sampled_from((f, ExactScalar.inexact(f)))
)


@st.composite
def _number_triples(draw):
    """Three numbers of mixed types that often spell one shared value."""
    shared = draw(_values)
    same = st.builds(_number, _kinds, st.just(shared))
    other = st.builds(_number, _kinds, _values)
    return [draw(st.one_of(same, same, same, other, _specials)) for _ in range(3)]


@settings(max_examples=300)
@given(_number_triples())
def test_equality_is_symmetric_transitive_and_hash_consistent(numbers):
    for a, b, c in itertools.permutations(numbers):
        assert (a == b) == (b == a)
        assert (a != b) == (not a == b)
        if a == b:
            assert hash(a) == hash(b)
            assert (b == c) <= (a == c)


def _operand_forms(n: int, d: int):
    """The value n/d as an int (when whole), a Fraction and an ExactScalar."""
    forms = [Fraction(n, d), ExactScalar(n, d)]
    return [n // d, *forms] if d == 1 else forms


class TestReflectedOperatorsAndOrdering:
    """`__rsub__`, `__rtruediv__`, `__le__` and `__ge__`, with int, Fraction
    and ExactScalar operands, against Fraction and mpmath."""

    def test_quoted_examples(self):
        assert 1 - ExactScalar(1, 3) == ExactScalar(2, 3)
        assert 2 / ExactScalar(3, 4) == ExactScalar(8, 3)
        assert Fraction(1, 2) - ExactScalar(1, 3) == ExactScalar(1, 6)
        assert Fraction(3, 2) / ExactScalar(3, 4) == ExactScalar(2)
        assert 2 / PI == ExactScalar(2, 1, -1)
        assert ExactScalar(3, 4, 1).__rsub__(ExactScalar(1, 2, 1)) == ExactScalar(-1, 4, 1)
        assert ExactScalar(3, 4).__rtruediv__(ExactScalar(2)) == ExactScalar(8, 3)

    def test_rsub_and_rtruediv_match_fraction(self):
        rng = random.Random(2401)
        for _ in range(500):
            a = (rng.randint(-10**6, 10**6), rng.choice((1, rng.randint(1, 10**6))))
            b = (rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            expected_difference = Fraction(*a) - Fraction(*b)
            for left in _operand_forms(*a):
                right = ExactScalar(*b)
                difference = right.__rsub__(left)
                quotient = right.__rtruediv__(left)
                assert difference.is_exact and quotient.is_exact
                assert Fraction(difference.numerator, difference.denominator) == expected_difference
                assert Fraction(quotient.numerator, quotient.denominator) == Fraction(*a) / Fraction(*b)
                if not isinstance(left, ExactScalar):
                    assert left - right == difference and left / right == quotient

    def test_reflected_operators_refuse_floats_and_zero(self):
        with pytest.raises(TypeError):
            1.5 - ExactScalar(1)
        with pytest.raises(TypeError):
            1.5 / ExactScalar(1)
        assert ExactScalar(1).__rsub__(1.5) is NotImplemented
        assert ExactScalar(1).__rtruediv__(1.5) is NotImplemented
        with pytest.raises(TypeError):
            ExactScalar(1) - "x"
        with pytest.raises(TypeError):
            ExactScalar(1) / "x"
        with pytest.raises(ZeroDivisionError):
            1 / ZERO

    def test_mixed_exponent_reflected_results_are_flagged(self):
        difference = 1 - PI
        assert not difference.is_exact
        with mpmath.workdps(50):
            assert abs(difference.inexact_value - float(1 - mpmath.pi)) <= math.ulp(2.0)

    def test_le_and_ge_match_the_oracle(self):
        rng = random.Random(2402)
        for _ in range(500):
            n, d = rng.randint(-10**6, 10**6), rng.choice((1, rng.randint(1, 10**6)))
            scalar = ExactScalar(rng.randint(-10**6, 10**6), rng.randint(1, 10**6), rng.choice((-1, 0, 1)))
            with mpmath.workdps(60):
                sign = mpmath.sign(_mp(scalar) - mpmath.mpf(n) / d)
            for other in _operand_forms(n, d):
                assert (scalar <= other) == (sign <= 0), (scalar, other)
                assert (scalar >= other) == (sign >= 0), (scalar, other)
                assert (other <= scalar) == (sign >= 0), (scalar, other)
                assert (other >= scalar) == (sign <= 0), (scalar, other)

    def test_le_and_ge_at_equality_and_near_pi(self):
        assert ExactScalar(1, 3) <= Fraction(1, 3) and ExactScalar(1, 3) >= Fraction(1, 3)
        assert ExactScalar(2) <= 2 and 2 >= ExactScalar(2) and PI <= PI and PI >= PI
        assert ExactScalar(355, 113) >= PI and not ExactScalar(355, 113) <= PI
        assert Fraction(22, 7) >= PI and 3 <= PI and not 4 <= PI
        assert ExactScalar(355, 113, -1) >= ExactScalar(1) and not ExactScalar(355, 113, -1) <= 1


@pytest.mark.parametrize("e", [1, -1])
def test_pi_multiple_is_correctly_rounded_for_integers_of_any_size(e):
    from anglekit.exact import _pi_multiple

    rng = random.Random(2403 + e)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 2000)) * rng.choice((-1, 1))
        d = rng.getrandbits(rng.randint(1, 2000)) + 1
        if not 2.0**-1000 < abs(Fraction(n, d)) < 2.0**1000:
            continue
        with mpmath.workprec(4200):
            expected = float(mpmath.mpf(n) / d * mpmath.pi**e)
        assert _pi_multiple(n, d, e) == expected, (n, d)
