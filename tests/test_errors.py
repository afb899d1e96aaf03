"""The error contract: exit codes on the classes, and who raises which class."""

import math

import pytest

from anglekit import errors
from anglekit.angles import (
    DEGREE,
    AngleValue,
    Magnitude,
    Measure,
    ReferenceAngle,
    check_full_circle,
    classify,
    semigroup_add,
)
from anglekit.exact import PI, TWO_PI, ZERO, ExactScalar
from anglekit.geometry import ArcSpec, chord_length
from anglekit.trig import PeriodizedFunction, eval_inverse


@pytest.mark.parametrize(
    "cls, code",
    [
        (errors.AngleKitError, 6),
        (errors.ExactOverflowError, 6),
        (errors.DomainError, 6),
        (errors.RangeError, 5),
        (errors.RadiusError, 4),
        (errors.PoleError, 6),
        (errors.DegenerateVertexError, 6),
        (errors.ZeroAngleError, 6),
        (errors.ParseError, 2),
        (errors.UnknownUnitError, 3),
        (errors.MissingUnitError, 3),
        (errors.UnsupportedFormError, 6),
    ],
)
def test_exit_codes(cls, code):
    assert cls.exit_code == code


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (errors.ParseError, ("radius 'wide' is not a number",), "radius 'wide' is not a number"),
        (errors.ParseError, ("expected a number", 3), "expected a number (at position 3)"),
        (errors.UnknownUnitError, ("unknown unit 'furlong'",), "unknown unit 'furlong'"),
    ],
)
def test_parse_error_shows_a_position_only_when_it_has_one(cls, args, text):
    error = cls(*args)
    assert str(error) == text
    assert error.position == (args[1] if len(args) > 1 else None)


def test_range_error_is_a_domain_error():
    assert issubclass(errors.RangeError, errors.DomainError)


def test_radius_error_is_a_domain_error():
    assert issubclass(errors.RadiusError, errors.DomainError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ArcSpec(0.0, Measure(PI)),
        lambda: chord_length(AngleValue(ExactScalar(60), DEGREE), math.nan),
    ],
    ids=["ArcSpec", "chord_length"],
)
def test_every_radius_goes_through_one_check(call):
    with pytest.raises(errors.RadiusError) as excinfo:
        call()
    assert str(excinfo.value) == "radius must be positive and finite"


@pytest.mark.parametrize(
    "call",
    [
        lambda: ArcSpec(1.0, Measure(ZERO)),
        lambda: chord_length(AngleValue(ExactScalar(370), DEGREE), 1.0),
        lambda: classify(AngleValue(ExactScalar(-1), DEGREE)),
        lambda: classify(AngleValue(ExactScalar.inexact(361.0), DEGREE)),
    ],
)
def test_measure_range_checks_raise_range_error(call):
    with pytest.raises(errors.RangeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Magnitude(Measure(ZERO)),
        lambda: semigroup_add(Magnitude(Measure(TWO_PI)), Magnitude(Measure(PI))),
    ],
)
def test_magnitude_checks_stay_domain_errors(call):
    with pytest.raises(errors.DomainError) as excinfo:
        call()
    assert type(excinfo.value) is errors.DomainError


@pytest.mark.parametrize(
    "circle, message",
    [
        (360.0, "period must be an exact number"),
        (ExactScalar.inexact(6.28), "period must be an exact number"),
        (ZERO, "period must be positive"),
        (-TWO_PI, "period must be positive"),
    ],
)
@pytest.mark.parametrize(
    "use",
    [
        check_full_circle,
        lambda circle: ReferenceAngle("x", "x", circle),
        lambda circle: PeriodizedFunction("sin", circle),
        lambda circle: eval_inverse("arcsin", circle, 0.5),
    ],
    ids=["check_full_circle", "ReferenceAngle", "PeriodizedFunction", "eval_inverse"],
)
def test_every_period_goes_through_one_check(use, circle, message):
    with pytest.raises(errors.DomainError) as excinfo:
        use(circle)
    assert str(excinfo.value) == message
