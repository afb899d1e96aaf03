"""Exact scalar arithmetic: representation, contagion, ordering, rendering."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.errors import ExactOverflowError
from anglekit.exact import (
    PI,
    PI_HIGH_PRECISION,
    TWO_PI,
    ZERO,
    ExactScalar,
    format_float,
)


def test_high_precision_pi_against_machin_series():
    # Independent oracle: Machin's formula via integer arctan series.
    scale = 10**80

    def arctan_inverse(k: int) -> int:
        total = 0
        term = scale // k
        k2 = k * k
        n = 1
        while term:
            total += term // (2 * n - 1) if n % 2 else -(term // (2 * n - 1))
            term //= k2
            n += 1
        return total

    pi_scaled = 4 * (4 * arctan_inverse(5) - arctan_inverse(239))
    machin = Fraction(pi_scaled, scale)
    assert abs(machin - PI_HIGH_PRECISION) < Fraction(1, 10**74)


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


def test_float_conversion_of_products_and_sums_within_one_ulp():
    # 10_000 randomized cases.  Exact results must convert to within 1 ulp
    # of the correctly rounded true value (oracle: rounding the
    # high-precision evaluation); degraded results are defined as the
    # float evaluation itself, bit for bit.
    rng = random.Random(20260814)
    for _ in range(10_000):
        a = ExactScalar(
            rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.choice((-1, 0, 1))
        )
        b = ExactScalar(
            rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.choice((-1, 0, 1))
        )
        for result, oracle, float_eval in (
            (a * b, a._precise() * b._precise(), a.to_float() * b.to_float()),
            (a + b, a._precise() + b._precise(), a.to_float() + b.to_float()),
        ):
            if result.is_exact:
                assert _ulp_distance(result.to_float(), float(oracle)) <= 1.0
            else:
                assert result.inexact_value == float_eval
