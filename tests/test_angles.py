"""References, conversions, measures, magnitudes, classification, addition."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.angles import (
    ARCMINUTE,
    ARCSECOND,
    BUILTIN_REFERENCES,
    DEGREE,
    GON,
    RADIAN,
    TURN,
    AngleClass,
    AngleValue,
    Magnitude,
    Measure,
    ReferenceAngle,
    ascii_symbol,
    classify,
    convert,
    find_reference,
    measure_of,
    reduce_principal,
    semigroup_add,
)
from anglekit.errors import DomainError, RangeError
from anglekit.exact import PI, TWO_PI, ExactScalar
from anglekit.trig import reference_for_period


def _deg(n, d=1):
    return AngleValue(ExactScalar(n, d), DEGREE)


def _value_from_measure(measure, reference):
    """The angle in `reference` whose measure is `measure`: a radian value converted."""
    return convert(AngleValue(measure.value, RADIAN), reference)


class TestReferences:
    def test_full_circles(self):
        assert RADIAN.full_circle == TWO_PI
        assert DEGREE.full_circle == ExactScalar(360)
        assert GON.full_circle == ExactScalar(400)
        assert TURN.full_circle == ExactScalar(1)
        assert ARCMINUTE.full_circle == ExactScalar(21600)
        assert ARCSECOND.full_circle == ExactScalar(1296000)

    def test_all_builtin_circles_are_exact(self):
        for ref in BUILTIN_REFERENCES:
            assert ref.full_circle.is_exact

    @pytest.mark.parametrize(
        "token, ref",
        [
            ("rad", RADIAN),
            ("radian", RADIAN),
            ("°", DEGREE),
            ("deg", DEGREE),
            ("degree", DEGREE),
            ("gon", GON),
            ("turn", TURN),
            ("′", ARCMINUTE),
            ("arcmin", ARCMINUTE),
            ("″", ARCSECOND),
            ("arcsecond", ARCSECOND),
            ("arcminute", ARCMINUTE),
            ("arcsec", ARCSECOND),
        ],
    )
    def test_find_reference(self, token, ref):
        assert find_reference(token) is ref

    def test_find_reference_unknown(self):
        assert find_reference("furlong") is None

    def test_ascii_symbols(self):
        assert ascii_symbol(DEGREE) == "deg"
        assert ascii_symbol(ARCMINUTE) == "arcmin"
        assert ascii_symbol(ARCSECOND) == "arcsec"
        assert ascii_symbol(RADIAN) == "rad"

    def test_str_is_the_symbol_after_the_value(self):
        assert str(DEGREE) == "°"
        assert str(AngleValue(ExactScalar(1, 2), DEGREE)) == "1/2 °"
        assert str(Magnitude(Measure(ExactScalar(1, 4, 1)))) == "π/4"

    def test_custom_reference_validation(self):
        with pytest.raises(DomainError):
            ReferenceAngle("bad", "b", ExactScalar(0))
        with pytest.raises(DomainError):
            ReferenceAngle("bad", "b", ExactScalar.inexact(6.28))


class TestConvert:
    def test_degrees_to_radians_exact(self):
        result = convert(_deg(180), RADIAN)
        assert result.value == PI
        assert result.value.is_exact
        assert result.reference is RADIAN

    def test_gon_to_radians(self):
        assert convert(AngleValue(ExactScalar(200), GON), RADIAN).value == PI

    def test_turn_to_gon(self):
        assert convert(AngleValue(ExactScalar(1), TURN), GON).value == ExactScalar(400)

    def test_degree_to_gon(self):
        assert convert(_deg(90), GON).value == ExactScalar(100)

    def test_arcminutes_to_degrees(self):
        result = convert(AngleValue(ExactScalar(10800), ARCMINUTE), DEGREE)
        assert result.value == ExactScalar(180)

    def test_degree_to_arcsecond(self):
        assert convert(_deg(1), ARCSECOND).value == ExactScalar(3600)

    def test_radian_to_turn_needs_reciprocal_pi(self):
        result = convert(AngleValue(ExactScalar(1), RADIAN), TURN)
        assert result.value == ExactScalar(1) / (ExactScalar(2) * PI)
        assert result.value.pi_exponent == -1

    def test_identity_conversion(self):
        angle = _deg(45)
        assert convert(angle, DEGREE) is angle

    def test_inexact_input_stays_inexact(self):
        angle = AngleValue(ExactScalar.inexact(180.0), DEGREE)
        result = convert(angle, RADIAN)
        assert not result.value.is_exact
        assert result.value.inexact_value == pytest.approx(math.pi, rel=1e-15)


class TestMeasure:
    def test_degrees_180(self):
        assert measure_of(_deg(180)).value == PI

    def test_gon_100(self):
        assert measure_of(AngleValue(ExactScalar(100), GON)).value == PI / ExactScalar(2)

    def test_radian_measure_is_the_value_itself(self):
        for value in (ExactScalar(1), PI, ExactScalar(7, 3), ExactScalar(5, 2, -1)):
            assert measure_of(AngleValue(value, RADIAN)).value == value

    def test_turn_measure(self):
        assert measure_of(AngleValue(ExactScalar(1, 4), TURN)).value == PI / ExactScalar(2)

    def test_measure_never_prints_a_unit(self):
        text = str(measure_of(_deg(180)))
        assert text == "π"
        for symbol in ("rad", "°", "gon", "turn"):
            assert symbol not in text

    def test_value_from_measure_round_trip(self):
        measure = Measure(PI / ExactScalar(2))
        assert _value_from_measure(measure, DEGREE).value == ExactScalar(90)
        assert _value_from_measure(measure, GON).value == ExactScalar(100)
        assert _value_from_measure(measure, RADIAN).value == PI / ExactScalar(2)


class TestMagnitude:
    def test_zero_is_not_a_magnitude(self):
        with pytest.raises(DomainError):
            Magnitude(Measure(ExactScalar(0)))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Magnitude(Measure(ExactScalar(-1)))

    def test_full_circle_is_a_magnitude(self):
        assert Magnitude(Measure(TWO_PI)).measure.value == TWO_PI

    def test_beyond_full_circle_rejected(self):
        with pytest.raises(DomainError):
            Magnitude(Measure(TWO_PI + ExactScalar(1, 10**6, 1)))

    def test_tiny_positive_accepted(self):
        assert Magnitude(Measure(ExactScalar(1, 10**6))).measure.value.is_exact


class TestSemigroupAdd:
    def _mag(self, n, d):
        return Magnitude(Measure(ExactScalar(n, d, 1)))

    def test_right_plus_right_is_straight(self):
        total = semigroup_add(self._mag(1, 2), self._mag(1, 2))
        assert total.measure.value == PI

    def test_straight_plus_straight_is_straight(self):
        total = semigroup_add(self._mag(1, 1), self._mag(1, 1))
        assert total.measure.value == PI

    def test_wraps_past_straight(self):
        total = semigroup_add(self._mag(1, 2), self._mag(3, 4))
        assert total.measure.value == PI / ExactScalar(4)

    def test_no_wrap_below_straight(self):
        total = semigroup_add(self._mag(1, 8), self._mag(1, 4))
        assert total.measure.value == ExactScalar(3, 8, 1)

    def test_reflex_operand_rejected(self):
        with pytest.raises(DomainError):
            semigroup_add(self._mag(3, 2), self._mag(1, 2))

    def test_result_is_always_a_magnitude_in_range(self):
        total = semigroup_add(self._mag(999, 1000), self._mag(1, 1000))
        assert total.measure.value == PI

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
    )
    def test_commutative(self, a, b):
        ma = Magnitude(Measure(ExactScalar(a.numerator, a.denominator, 1)))
        mb = Magnitude(Measure(ExactScalar(b.numerator, b.denominator, 1)))
        assert semigroup_add(ma, mb).measure.value == semigroup_add(mb, ma).measure.value

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
    )
    def test_associative(self, a, b, c):
        ma, mb, mc = (
            Magnitude(Measure(ExactScalar(x.numerator, x.denominator, 1)))
            for x in (a, b, c)
        )
        left = semigroup_add(semigroup_add(ma, mb), mc)
        right = semigroup_add(ma, semigroup_add(mb, mc))
        assert left.measure.value == right.measure.value

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
        st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
    )
    def test_cancellative(self, a, x, y):
        ma, mx, my = (
            Magnitude(Measure(ExactScalar(v.numerator, v.denominator, 1)))
            for v in (a, x, y)
        )
        if x == y:
            assert (
                semigroup_add(ma, mx).measure.value
                == semigroup_add(ma, my).measure.value
            )
        else:
            assert (
                semigroup_add(ma, mx).measure.value
                != semigroup_add(ma, my).measure.value
            )


class TestReducePrincipal:
    def test_overshoot_in_degrees(self):
        assert reduce_principal(_deg(450)).value == ExactScalar(90)

    def test_negative_in_degrees(self):
        assert reduce_principal(_deg(-90)).value == ExactScalar(270)

    def test_exact_radian_multiple_of_pi(self):
        angle = AngleValue(ExactScalar(5, 2, 1), RADIAN)
        assert reduce_principal(angle).value == PI / ExactScalar(2)

    def test_negative_pi_radians(self):
        angle = AngleValue(-PI, RADIAN)
        assert reduce_principal(angle).value == PI

    def test_exact_multiple_reduces_to_zero(self):
        assert reduce_principal(AngleValue(ExactScalar(800), GON)).value == ExactScalar(0)

    def test_in_range_value_is_untouched_even_with_mixed_exponents(self):
        angle = AngleValue(ExactScalar(1), RADIAN)
        reduced = reduce_principal(angle)
        assert reduced.value == ExactScalar(1)
        assert reduced.value.is_exact

    def test_rational_radians_out_of_range_degrade(self):
        angle = AngleValue(ExactScalar(7), RADIAN)
        reduced = reduce_principal(angle)
        assert not reduced.value.is_exact
        # Oracle: float remainder.
        assert reduced.value.inexact_value == math.fmod(7.0, 2 * math.pi)

    def test_inexact_input(self):
        angle = AngleValue(ExactScalar.inexact(-90.0), DEGREE)
        assert reduce_principal(angle).value.inexact_value == 270.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_have_no_principal_value(self, value):
        with pytest.raises(DomainError, match="finite"):
            reduce_principal(AngleValue(ExactScalar.inexact(value), DEGREE))

    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(1, 1000))
    def test_reduction_lands_in_principal_range(self, n, d):
        for ref in (DEGREE, RADIAN, GON):
            value = ExactScalar(n, d, ref.full_circle.pi_exponent)
            reduced = reduce_principal(AngleValue(value, ref)).value
            assert reduced.compare(ExactScalar(0)) >= 0
            assert reduced.compare(ref.full_circle) < 0
            assert reduced.is_exact


class TestClassify:
    @pytest.mark.parametrize(
        "degrees, expected",
        [
            (0, AngleClass.ZERO),
            (45, AngleClass.ACUTE),
            (90, AngleClass.RIGHT),
            (135, AngleClass.OBTUSE),
            (180, AngleClass.STRAIGHT),
            (270, AngleClass.REFLEX),
            (360, AngleClass.PERIGON),
        ],
    )
    def test_degree_grid(self, degrees, expected):
        assert classify(_deg(degrees)) is expected

    def test_exact_boundaries_for_every_builtin(self):
        for ref in BUILTIN_REFERENCES:
            p = ref.full_circle
            assert classify(AngleValue(p / ExactScalar(4), ref)) is AngleClass.RIGHT
            assert classify(AngleValue(p / ExactScalar(2), ref)) is AngleClass.STRAIGHT
            assert classify(AngleValue(p, ref)) is AngleClass.PERIGON

    def test_exact_near_boundary_is_not_snapped(self):
        just_under = ExactScalar(90) - ExactScalar(1, 10**9)
        assert classify(AngleValue(just_under, DEGREE)) is AngleClass.ACUTE

    def test_inexact_snaps_within_relative_tolerance(self):
        # tolerance is 1e-12 of the full circle: 3.6e-10 degrees
        assert classify(
            AngleValue(ExactScalar.inexact(90.0 + 1e-10), DEGREE)
        ) is AngleClass.RIGHT
        assert classify(
            AngleValue(ExactScalar.inexact(90.0 + 1e-8), DEGREE)
        ) is AngleClass.OBTUSE
        assert classify(
            AngleValue(ExactScalar.inexact(360.0 - 1e-10), DEGREE)
        ) is AngleClass.PERIGON

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            classify(_deg(-1))
        with pytest.raises(DomainError):
            classify(_deg(361))
        with pytest.raises(DomainError):
            classify(AngleValue(ExactScalar.inexact(360.1), DEGREE))

    @pytest.mark.parametrize(
        "value, reference",
        [
            # Past the full circle by more than the tolerance, where the
            # float sum circle + tolerance rounds up to the value itself.
            (400.0000000004, GON),
            (1.000000000001, TURN),
            (math.nan, DEGREE),
            (math.inf, RADIAN),
            (-math.inf, DEGREE),
        ],
        ids=["gon band", "turn band", "nan", "inf", "-inf"],
    )
    def test_inexact_values_outside_the_circle_are_range_errors(self, value, reference):
        with pytest.raises(RangeError):
            classify(AngleValue(ExactScalar.inexact(value), reference))

    def test_class_is_invariant_under_conversion(self):
        for degrees in (0, 30, 90, 100, 180, 200, 360):
            expected = classify(_deg(degrees))
            for target in BUILTIN_REFERENCES:
                assert classify(convert(_deg(degrees), target)) is expected

    def test_labels(self):
        assert str(AngleClass.RIGHT) == "right angle"
        assert str(AngleClass.PERIGON) == "perigon"


@given(
    st.fractions(
        min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
    ),
    st.sampled_from(BUILTIN_REFERENCES),
    st.sampled_from(BUILTIN_REFERENCES),
)
def test_conversion_round_trip_is_exact(value, source, target):
    angle = AngleValue(ExactScalar(value.numerator, value.denominator), source)
    back = convert(convert(angle, target), source)
    assert back.value == angle.value
    assert back.value.is_exact


@given(
    st.fractions(
        min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
    ),
    st.sampled_from(BUILTIN_REFERENCES),
)
def test_measure_inverts_exactly(value, ref):
    angle = AngleValue(ExactScalar(value.numerator, value.denominator), ref)
    measure = measure_of(angle)
    assert _value_from_measure(measure, ref).value == angle.value


@given(
    st.fractions(
        min_value=Fraction(0), max_value=Fraction(1), max_denominator=10**4
    ).filter(lambda f: f > 0),
    st.sampled_from(BUILTIN_REFERENCES),
    st.sampled_from(BUILTIN_REFERENCES),
)
def test_measure_is_reference_independent(fraction_of_circle, a, b):
    # The same geometric angle expressed against two references has the
    # same measure, exactly.
    in_a = AngleValue(a.full_circle * ExactScalar(fraction_of_circle.numerator, fraction_of_circle.denominator), a)
    in_b = convert(in_a, b)
    assert measure_of(in_a).value == measure_of(in_b).value


# ----------------------------------------------------------------------
# The angle layer against an oracle: Fraction arithmetic on q·π^e, and
# mpmath at 50 digits wherever two π exponents differ.

_ORACLE_REFERENCES = BUILTIN_REFERENCES + (reference_for_period(ExactScalar(2, 3, 1)),)
_CLASS_BOUNDS = (
    (Fraction(1, 4), AngleClass.ACUTE, AngleClass.RIGHT),
    (Fraction(1, 2), AngleClass.OBTUSE, AngleClass.STRAIGHT),
    (Fraction(1), AngleClass.REFLEX, AngleClass.PERIGON),
)
# Operands of semigroup_add: exact π, plain and reciprocal-π exponents.
# None sums to within 0.3 of π with a measure in (0, π] that lies near a
# quarter-circle boundary, so no float decision in the fold is close.
_PARTNERS = (ExactScalar(1, 3, 1), ExactScalar(1), ExactScalar(2, 1, -1))


def _fraction(x):
    return Fraction(x.numerator, x.denominator)


def _real(q, e):
    return mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**e


def _real_of(x):
    return _real(_fraction(x), x.pi_exponent) if x.is_exact else mpmath.mpf(x.inexact_value)


def _circle(reference):
    return _fraction(reference.full_circle), reference.full_circle.pi_exponent


def _oracle_values(reference):
    """Every quarter boundary of the circle hit exactly where the exponent
    allows, and the nearest exact values on either side of it: a step of
    2^-40 of its denominator, or the two neighbours of denominator 10^12
    when the exponent differs from the circle's."""
    c, ce = _circle(reference)
    values = []
    for quarters in (0, 1, 2, 4):
        boundary = c * quarters / 4
        for e in (-1, 0, 1):
            if e == ce:
                step = Fraction(1, boundary.denominator * 2**40)
                coefficients = [boundary - step, boundary, boundary + step]
            else:
                scaled = _real(boundary, ce - e) * 10**12
                coefficients = [
                    Fraction(int(mpmath.ceil(scaled)) - 1, 10**12),
                    Fraction(int(mpmath.floor(scaled)) + 1, 10**12),
                ]
            values += [ExactScalar(q.numerator, q.denominator, e) for q in coefficients]
    return values


def _expected_class(q, e, c, ce):
    """The class of q·π^e against the circle c·π^ce, or RangeError."""
    share = q / c if e == ce or q == 0 else _real(q, e) / _real(c, ce)
    if share < 0 or share > 1:
        return RangeError
    if share == 0:
        return AngleClass.ZERO
    for bound, below, at in _CLASS_BOUNDS:
        if not isinstance(share, Fraction):  # irrational, so never on a bound
            bound = _real(bound, 0)
        if share == bound:
            return at
        if share < bound:
            return below


def _expected_product(q, e, ratio, ratio_exponent):
    """q·π^e times ratio·π^ratio_exponent: a triple while the exponent
    stays in −1..1, else the float the product rounds to."""
    exponent = e + ratio_exponent
    if q == 0:
        return (0, 1, 0)
    if -1 <= exponent <= 1:
        p = q * ratio
        return (p.numerator, p.denominator, exponent)
    return float(_real(q * ratio, exponent))


def _expected_sum(a, b):
    """semigroup_add of a and b, both in (0, π]: exact while both are
    exact with one exponent and the fold (if any) keeps it, else a float."""
    if a.is_exact and b.is_exact and a.pi_exponent == b.pi_exponent:
        total, e = _fraction(a) + _fraction(b), a.pi_exponent
        if _real(total, e) <= mpmath.pi:
            return (total.numerator, total.denominator, e)
        if e == 1:
            return ((total - 1).numerator, (total - 1).denominator, 1)
    total = _real_of(a) + _real_of(b)
    return float(total - mpmath.pi if total > mpmath.pi else total)


def _assert_scalar(result, expected):
    if isinstance(expected, tuple):
        assert result.is_exact
        assert (result.numerator, result.denominator, result.pi_exponent) == expected
    else:
        assert not result.is_exact
        assert result.inexact_value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("reference", _ORACLE_REFERENCES, ids=[r.name for r in _ORACLE_REFERENCES])
def test_angle_layer_against_the_oracle(reference):
    c, ce = _circle(reference)
    with mpmath.workdps(50):
        for value in _oracle_values(reference):
            q, e = _fraction(value), value.pi_exponent
            angle = AngleValue(value, reference)

            expected = _expected_class(q, e, c, ce)
            if expected is RangeError:
                with pytest.raises(RangeError):
                    classify(angle)
            else:
                assert classify(angle) is expected, value

            folded = reduce_principal(angle)
            assert folded.reference is reference
            real, circle = _real(q, e), _real(c, ce)
            if 0 <= real < circle:
                assert folded is angle
            elif e == ce:
                rest = q - c * math.floor(q / c)
                _assert_scalar(folded.value, (rest.numerator, rest.denominator, e if rest else 0))
            else:
                assert not folded.value.is_exact
                gap = abs(folded.value.inexact_value - float(real % circle))
                assert min(gap, float(circle) - gap) <= 1e-12 * float(circle)

            measure = measure_of(angle).value
            _assert_scalar(measure, _expected_product(q, e, 2 / c, 1 - ce))
            for target in _ORACLE_REFERENCES:
                tc, tce = _circle(target)
                _assert_scalar(convert(angle, target).value, _expected_product(q, e, tc / c, tce - ce))

            if 0 < _real_of(measure) <= mpmath.pi:
                partners = _PARTNERS
                if measure.pi_exponent == 1 and measure != PI:  # and its complement: π exactly
                    partners += (PI - measure,)
                for partner in partners:
                    total = semigroup_add(Magnitude(Measure(measure)), Magnitude(Measure(partner)))
                    _assert_scalar(total.measure.value, _expected_sum(measure, partner))


# ----------------------------------------------------------------------
# Exact decisions build no scalar, and an exact result builds one.


def test_exact_results_are_built_once(monkeypatch):
    built = []
    init = ExactScalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    def constructions(call):
        built.clear()
        call()
        return len(built)

    angle = AngleValue(ExactScalar(123, 7), DEGREE)
    monkeypatch.setattr(ExactScalar, "__init__", counting)
    for value, reference in [
        (ExactScalar(90), DEGREE),
        (ExactScalar(5, 7), DEGREE),
        (ExactScalar(3, 4, 1), RADIAN),
        (ExactScalar(300), GON),
        (ExactScalar(3, 2), RADIAN),
        (ExactScalar(100, 1, -1), DEGREE),
        (ExactScalar(0), TURN),
        (ExactScalar(1), TURN),
    ]:
        assert constructions(lambda: classify(AngleValue(value, reference))) == 0
    assert constructions(lambda: convert(angle, RADIAN)) == 1
    assert constructions(lambda: convert(angle, ARCSECOND)) == 1
    assert constructions(lambda: measure_of(angle)) == 1
