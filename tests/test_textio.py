"""Angle literal parsing, formatting, round trips, and the expression parser."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit.angles import (
    _ALIASES,
    ARCMINUTE,
    ARCSECOND,
    BUILTIN_REFERENCES,
    DEGREE,
    GON,
    RADIAN,
    TURN,
    AngleValue,
    ReferenceAngle,
)
from anglekit.errors import (
    ExactOverflowError,
    MissingUnitError,
    ParseError,
    UnknownUnitError,
    UnsupportedFormError,
)
from anglekit import lint, textio
from anglekit.exact import PI, ExactScalar, overflow_error
from anglekit.textio import (
    _MAX_NESTING,
    FUNCTION_NAMES,
    BinaryOperation,
    ExpressionNode,
    FunctionApplication,
    Identifier,
    NumberLiteral,
    QuantityLiteral,
    _keep_digits,
    _new,
    _set_number,
    _set_position,
    _set_quantity,
    _set_reference,
    _set_unit_text,
    format_angle,
    parse_angle,
    parse_expression,
    parse_number,
    walk,
)


class TestParseAngleDecimal:
    def test_integer_degrees(self):
        lit = parse_angle("180°")
        assert lit.parsed.value == ExactScalar(180)
        assert lit.parsed.reference is DEGREE
        assert lit.parsed.value.is_exact

    @pytest.mark.parametrize("spelling", sorted(_ALIASES))
    def test_every_unit_spelling(self, spelling):
        lit = parse_angle(f"1 {spelling}")
        assert lit.parsed == AngleValue(ExactScalar(1), _ALIASES[spelling])

    def test_decimal_is_exact(self):
        lit = parse_angle("0.5 rad")
        assert lit.parsed.value == ExactScalar(1, 2)
        assert lit.form == "decimal"

    def test_fifteen_significant_digits_stay_exact(self):
        lit = parse_angle("0.123456789012345 rad")
        assert lit.parsed.value == ExactScalar(123456789012345, 10**15)
        assert lit.parsed.value.is_exact

    def test_sixteen_significant_digits_degrade(self):
        lit = parse_angle("0.1234567890123456 rad")
        assert not lit.parsed.value.is_exact
        assert lit.parsed.value.inexact_value == 0.1234567890123456

    def test_trailing_fractional_zeros_do_not_count(self):
        lit = parse_angle("1.500000000000000000 rad")
        assert lit.parsed.value == ExactScalar(3, 2)
        assert lit.parsed.value.is_exact

    def test_long_zero_runs_scan_exactly(self):
        assert parse_number("0" * 5000 + "1.5") == ExactScalar(3, 2)
        assert parse_number("1.5" + "0" * 5000) == ExactScalar(3, 2)
        assert parse_number("25e-" + "0" * 5000 + "3") == ExactScalar(1, 40)
        assert parse_number("0.0" + "0" * 5000) == ExactScalar(0)

    def test_exponent_notation(self):
        assert parse_angle("1e2 °").parsed.value == ExactScalar(100)
        assert parse_angle("2.5e-3 rad").parsed.value == ExactScalar(1, 400)

    def test_huge_exponent_degrades_instead_of_exploding(self):
        lit = parse_angle("1e300 rad")
        assert not lit.parsed.value.is_exact
        assert lit.parsed.value.inexact_value == 1e300

    def test_value_beyond_float_range_is_an_error(self):
        with pytest.raises(ParseError):
            parse_angle("1e999 rad")

    def test_negative(self):
        assert parse_angle("-90°").parsed.value == ExactScalar(-90)

    def test_rational(self):
        lit = parse_angle("1/4 turn")
        assert lit.parsed.value == ExactScalar(1, 4)
        assert lit.parsed.reference is TURN

    def test_unit_spellings(self):
        assert parse_angle("1 rad").parsed.reference is RADIAN
        assert parse_angle("1 radian").parsed.reference is RADIAN
        assert parse_angle("90 deg").parsed.reference is DEGREE
        assert parse_angle("90 degree").parsed.reference is DEGREE
        assert parse_angle("100 gon").parsed.reference is GON
        assert parse_angle("30′").parsed.reference is ARCMINUTE
        assert parse_angle("30 arcmin").parsed.reference is ARCMINUTE
        assert parse_angle("30″").parsed.reference is ARCSECOND
        assert parse_angle("30 arcsec").parsed.reference is ARCSECOND

    def test_glued_unit(self):
        assert parse_angle("1rad").parsed.reference is RADIAN

    def test_surrounding_whitespace(self):
        assert parse_angle("  90 °  ").parsed.value == ExactScalar(90)


class TestParseAngleSymbolic:
    def test_bare_pi(self):
        lit = parse_angle("π rad")
        assert lit.parsed.value == PI
        assert lit.form == "symbolic_pi"

    def test_ascii_pi(self):
        assert parse_angle("pi rad").parsed.value == PI

    def test_pi_fraction(self):
        assert parse_angle("π/6 rad").parsed.value == PI / ExactScalar(6)
        assert parse_angle("pi/6 rad").parsed.value == PI / ExactScalar(6)

    def test_coefficient_pi(self):
        assert parse_angle("2π rad").parsed.value == ExactScalar(2, 1, 1)
        assert parse_angle("2pi rad").parsed.value == ExactScalar(2, 1, 1)

    def test_numerator_and_denominator(self):
        assert parse_angle("3π/4 rad").parsed.value == ExactScalar(3, 4, 1)

    def test_slash_form_binds_pi_to_numerator(self):
        assert parse_angle("3/2π rad").parsed.value == ExactScalar(3, 2, 1)

    def test_reciprocal_pi(self):
        assert parse_angle("180/π °").parsed.value == ExactScalar(180, 1, -1)
        assert parse_angle("1/(2π) turn").parsed.value == ExactScalar(1, 2, -1)
        assert parse_angle("3/(2pi) rad").parsed.value == ExactScalar(3, 2, -1)

    def test_negative_pi(self):
        assert parse_angle("-π/3 rad").parsed.value == ExactScalar(-1, 3, 1)

    def test_decimal_coefficient(self):
        assert parse_angle("0.5π rad").parsed.value == ExactScalar(1, 2, 1)


class TestParseAngleDms:
    def test_full_form_is_exact(self):
        lit = parse_angle("12°34′56.7″")
        # Oracle: 12 + 34/60 + 56.7/3600 = 45296.7/3600 = 150989/12000.
        assert lit.parsed.value == ExactScalar(150989, 12000)
        assert lit.parsed.reference is DEGREE
        assert lit.form == "dms"

    def test_ascii_form(self):
        assert parse_angle("12d34m56.7s").parsed.value == ExactScalar(150989, 12000)

    def test_negative(self):
        assert parse_angle("-12°30′").parsed.value == ExactScalar(-25, 2)

    def test_degree_only(self):
        lit = parse_angle("12°")
        assert lit.parsed.value == ExactScalar(12)
        assert lit.form == "dms"

    def test_degree_minute(self):
        assert parse_angle("12°30′").parsed.value == ExactScalar(25, 2)

    def test_oversized_minutes_are_syntax_not_semantics(self):
        assert parse_angle("12°75′").parsed.value == ExactScalar(53, 4)

    def test_denominator_near_the_64_bit_bound(self):
        # 3600·10**15 is within a factor of 3 of 2**63.
        lit = parse_angle("2°0′0.000000000000001″")
        assert lit.parsed.value == ExactScalar(7200 * 10**15 + 1, 3600 * 10**15)
        assert format_angle(lit.parsed, "dms") == "2°0′0.000000000000001″"

    def test_numerator_past_the_64_bit_bound_degrades(self):
        lit = parse_angle("359°59′59.999999999999999″")
        assert not lit.parsed.value.is_exact
        assert lit.parsed.value.inexact_value == 360.0

    def test_long_seconds_degrade(self):
        lit = parse_angle("0°0′0.1234567890123456″")
        assert not lit.parsed.value.is_exact


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, position, kind",
        [
            ("", 0, ParseError),
            ("   ", 3, ParseError),
            ("90", 2, MissingUnitError),
            ("90 furlong", 3, UnknownUnitError),
            ("x rad", 0, ParseError),
            ("90 rad extra", 7, ParseError),
            ("1/0 rad", 2, ParseError),
            ("1/ rad", 2, ParseError),
        ],
    )
    def test_positions(self, text, position, kind):
        with pytest.raises(kind) as excinfo:
            parse_angle(text)
        assert excinfo.value.position == position

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("1" * 5000 + "/3 rad", 0, "integer has too many digits"),
            ("3/" + "7" * 5000 + " rad", 2, "integer has too many digits"),
            ("1/(" + "7" * 5000 + "π) rad", 0, "integer has too many digits"),
            ("1" * 5000 + "d30m", 0, "integer has too many digits"),
            ("1d" + "3" * 5000 + "m", 2, "integer has too many digits"),
            ("-" + "1" * 400 + "°", 1, "number is outside float range"),
        ],
    )
    def test_overlong_integers(self, text, position, message):
        with pytest.raises(ParseError) as excinfo:
            parse_angle(text)
        assert (excinfo.value.message, excinfo.value.position) == (message, position)

    def test_unknown_unit_message_names_the_token(self):
        with pytest.raises(UnknownUnitError, match="furlong"):
            parse_angle("90 furlong")

    def test_error_str_mentions_position(self):
        with pytest.raises(ParseError, match="position 0"):
            parse_angle("bogus°")


class TestParseNumber:
    def test_plain(self):
        assert parse_number("42") == ExactScalar(42)
        assert parse_number("2pi") == ExactScalar(2, 1, 1)
        assert parse_number("-0.25") == ExactScalar(-1, 4)

    def test_no_unit_allowed(self):
        with pytest.raises(ParseError):
            parse_number("1 rad")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_number("")


class TestFormatAngle:
    def test_symbolic_pi(self):
        angle = AngleValue(PI, RADIAN)
        assert format_angle(angle) == "π rad"
        assert format_angle(angle, "symbolic_pi", ascii_only=True) == "pi rad"

    def test_symbolic_composite(self):
        angle = AngleValue(ExactScalar(3, 4, 1), RADIAN)
        assert format_angle(angle, "symbolic_pi") == "3π/4 rad"

    def test_decimal_exact(self):
        assert format_angle(AngleValue(ExactScalar(1, 2), TURN), "decimal") == "0.5 turn"
        assert format_angle(AngleValue(ExactScalar(90), DEGREE), "decimal") == "90 °"
        assert (
            format_angle(AngleValue(ExactScalar(90), DEGREE), "decimal", ascii_only=True)
            == "90 deg"
        )

    def test_decimal_falls_back_when_expansion_does_not_terminate(self):
        assert format_angle(AngleValue(ExactScalar(1, 3), RADIAN), "decimal") == "1/3 rad"

    def test_decimal_falls_back_for_pi_values(self):
        assert format_angle(AngleValue(PI, RADIAN), "decimal") == "π rad"

    def test_decimal_inexact_uses_digits(self):
        angle = AngleValue(ExactScalar.inexact(math.pi), RADIAN)
        assert format_angle(angle, "decimal") == "3.141592653589793 rad"
        assert format_angle(angle, "decimal", digits=4) == "3.142 rad"

    def test_dms_exact(self):
        angle = AngleValue(ExactScalar(150989, 12000), DEGREE)
        assert format_angle(angle, "dms") == "12°34′56.7″"
        assert format_angle(angle, "dms", ascii_only=True) == "12d34m56.7s"

    def test_dms_whole_degrees(self):
        assert format_angle(AngleValue(ExactScalar(90), DEGREE), "dms") == "90°"

    def test_dms_degree_minute(self):
        angle = AngleValue(ExactScalar(181, 2), DEGREE)
        assert format_angle(angle, "dms") == "90°30′"

    def test_dms_normalizes_carry(self):
        # 12.5 degrees exactly: never "12°60′" style output.
        angle = AngleValue(ExactScalar(25, 2), DEGREE)
        assert format_angle(angle, "dms") == "12°30′"

    def test_dms_requires_degrees(self):
        with pytest.raises(UnsupportedFormError):
            format_angle(AngleValue(PI, RADIAN), "dms")

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_dms_rejects_an_infinite_inexact_value(self, value):
        with pytest.raises(UnsupportedFormError, match="non-finite"):
            format_angle(AngleValue(ExactScalar.inexact(value), DEGREE), "dms")

    def test_dms_rejects_non_terminating_seconds(self):
        with pytest.raises(UnsupportedFormError):
            format_angle(AngleValue(ExactScalar(1, 7), DEGREE), "dms")

    def test_dms_seconds_of_64_bit_values(self):
        # 60·rest/d can pass 2^63 when d is near it: the seconds are
        # printed or refused, never an overflow.
        found = AngleValue(ExactScalar(2293098567889552312, 6934970691769139526), DEGREE)
        with pytest.raises(UnsupportedFormError):
            format_angle(found, "dms")
        rng = random.Random(20261018)
        printed = 0
        for _ in range(3000):
            n = rng.randint(-(2**63) + 1, 2**63 - 1)
            if rng.random() < 0.5:
                d = rng.randint(1, 2**63 - 1)
            else:  # seconds that terminate: d = 2^a·3^b·5^c with b ≤ 1, below 2^63
                d = 2 ** rng.randint(0, 40) * 3 ** rng.randint(0, 1) * 5 ** rng.randint(0, 9)
            value = ExactScalar(n, d)
            try:
                text = format_angle(AngleValue(value, DEGREE), "dms")
            except UnsupportedFormError:
                continue
            fields = re.fullmatch(r"(-?)(\d+)°(?:(\d+)′)?(?:([\d.]+)″)?", text)
            sign, degrees, minutes, seconds = fields.groups()
            total = int(degrees) + Fraction(minutes or 0) / 60 + Fraction(seconds or 0) / 3600
            assert (-total if sign else total) == Fraction(value.numerator, value.denominator)
            printed += 1
        assert printed > 200

    def test_dms_rejects_pi_valued_degrees(self):
        with pytest.raises(UnsupportedFormError):
            format_angle(AngleValue(PI, DEGREE), "dms")

    def test_dms_inexact(self):
        angle = AngleValue(ExactScalar.inexact(12.25), DEGREE)
        assert format_angle(angle, "dms") == "12°15′0″"

    @pytest.mark.parametrize(
        "degrees, digits, expected",
        [
            (0.9999999999999, 3, "1°0′0″"),
            (59.99999999999, 4, "60°0′0″"),
            (-0.99999999999, 2, "-1°0′0″"),
            (12.999999999999, 5, "13°0′0″"),
            (12.49999999999, 3, "12°30′0″"),
            (12.9999, 3, "12°59′59.6″"),
        ],
    )
    def test_dms_inexact_seconds_that_round_to_sixty_carry(self, degrees, digits, expected):
        angle = AngleValue(ExactScalar.inexact(degrees), DEGREE)
        assert format_angle(angle, "dms", digits=digits) == expected

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            format_angle(AngleValue(PI, RADIAN), "roman")

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            format_angle(AngleValue(PI, RADIAN), digits=0)
        with pytest.raises(ValueError):
            format_angle(AngleValue(PI, RADIAN), digits=18)


exact_scalars = st.one_of(
    st.builds(
        ExactScalar,
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    ),
    st.builds(
        lambda n, d: ExactScalar(n, d, 1),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    ),
    st.builds(
        lambda n, d: ExactScalar(n, d, -1),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    ),
)


@given(exact_scalars, st.sampled_from(BUILTIN_REFERENCES), st.sampled_from(["decimal", "symbolic_pi"]))
def test_exact_round_trip_decimal_and_symbolic(value, ref, form):
    angle = AngleValue(value, ref)
    text = format_angle(angle, form)
    back = parse_angle(text)
    assert back.parsed.value == value
    assert back.parsed.value.is_exact
    assert back.parsed.reference is ref


@given(exact_scalars, st.sampled_from(BUILTIN_REFERENCES))
def test_exact_round_trip_ascii(value, ref):
    angle = AngleValue(value, ref)
    text = format_angle(angle, "symbolic_pi", ascii_only=True)
    assert text.isascii()
    back = parse_angle(text)
    assert back.parsed.value == value
    assert back.parsed.reference is ref


@given(
    st.integers(min_value=-10**7, max_value=10**7),
    st.integers(min_value=1, max_value=10**4),
)
def test_dms_round_trip(n, d):
    value = ExactScalar(n, d)
    angle = AngleValue(value, DEGREE)
    try:
        text = format_angle(angle, "dms")
    except UnsupportedFormError:
        return
    back = parse_angle(text)
    assert back.parsed.value == value
    assert back.parsed.value.is_exact


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_inexact_decimal_round_trip_preserves_the_float(x):
    # The shortest repr may be under 15 digits, in which case reading it
    # back legitimately produces the equal exact rational; the numeric
    # value survives bit for bit either way.
    angle = AngleValue(ExactScalar.inexact(x), RADIAN)
    text = format_angle(angle, "decimal")
    back = parse_angle(text)
    assert back.parsed.value.to_float() == x


class TestExpressionParsing:
    def test_quantity_inside_trig_call(self):
        node = parse_expression("x = sin(0.5 rad)")
        assert isinstance(node, BinaryOperation) and node.operator == "="
        assert isinstance(node.left, Identifier) and node.left.name == "x"
        call = node.right
        assert isinstance(call, FunctionApplication) and call.name == "sin"
        quantity = call.argument
        assert isinstance(quantity, QuantityLiteral)
        assert quantity.value == ExactScalar(1, 2)
        assert quantity.reference is RADIAN
        assert quantity.position == 8

    def test_unit_symbol_quantity(self):
        node = parse_expression("90° + 1")
        assert isinstance(node, BinaryOperation) and node.operator == "+"
        assert isinstance(node.left, QuantityLiteral)
        assert node.left.reference is DEGREE

    def test_precedence(self):
        node = parse_expression("1 + 2 * 3")
        assert isinstance(node, BinaryOperation) and node.operator == "+"
        assert isinstance(node.right, BinaryOperation)
        assert node.right.operator == "*"

    def test_parentheses(self):
        node = parse_expression("(1 + 2) * 3")
        assert node.operator == "*"
        assert node.left.operator == "+"

    def test_pi_literal(self):
        node = parse_expression("pi")
        assert isinstance(node, NumberLiteral)
        assert node.value == PI

    def test_signed_literal(self):
        node = parse_expression("a = -0.5")
        assert node.right.value == ExactScalar(-1, 2)

    def test_slash_is_an_operator(self):
        node = parse_expression("s / r")
        assert isinstance(node, BinaryOperation) and node.operator == "/"
        assert node.left.name == "s"
        assert node.right.name == "r"

    def test_offset_shifts_positions(self):
        node = parse_expression("a + b", offset=10)
        assert node.position == 12
        assert node.left.position == 10

    def test_walk_visits_all_nodes(self):
        node = parse_expression("x = sin(1 + 2)")
        kinds = [type(n).__name__ for n in walk(node)]
        assert kinds.count("NumberLiteral") == 2
        assert "FunctionApplication" in kinds
        node = parse_expression("x = sin(2 * 30°) + y / 4")
        assert [(type(n).__name__, n.position) for n in walk(node)] == [
            ("BinaryOperation", 2),
            ("Identifier", 0),
            ("BinaryOperation", 17),
            ("FunctionApplication", 4),
            ("BinaryOperation", 10),
            ("NumberLiteral", 8),
            ("QuantityLiteral", 12),
            ("BinaryOperation", 21),
            ("Identifier", 19),
            ("NumberLiteral", 23),
        ]

    @pytest.mark.parametrize(
        "text, position",
        [
            ("sin(", 4),
            ("", 0),
            ("sin(1", 5),
            ("1 +", 3),
            ("foo(1)", 0),
            ("1 - 2", 2),
            ("° + 1", 0),
            ("(1))", 3),
            ("a = b = c", 6),
        ],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_expression(text)
        assert excinfo.value.position == position

    def test_deep_nesting_is_an_error_not_a_crash(self):
        with pytest.raises(ParseError):
            parse_expression("(" * 5000 + "1" + ")" * 5000)
        with pytest.raises(ParseError):
            parse_expression("sin(" * 5000 + "1" + ")" * 5000)

    @pytest.mark.parametrize("openers", [("(",), ("sin(",), ("(", "exp(", "arccos(")], ids=["(", "sin(", "mix"])
    def test_the_nesting_limit(self, openers):
        assert _MAX_NESTING == 100
        chain = [openers[i % len(openers)] for i in range(101)]
        for depth in (100, 101):
            group = "".join(chain[:depth]) + "x" + ")" * depth
            for left, right in (("", " = 1"), ("y = ", ""), ("", "")):
                text = left + group + right
                if depth == 100:
                    node = parse_expression(text)
                    calls = sum(isinstance(n, FunctionApplication) for n in walk(node))
                    assert calls == sum(opener != "(" for opener in chain[:depth])
                    continue
                with pytest.raises(ParseError) as excinfo:
                    parse_expression(text)
                assert excinfo.value.message == "expression nests too deeply"
                assert excinfo.value.position == len(left) + len("".join(chain[:100]))  # the 101st opener
        for opener in openers:
            line = "x = " + opener * 50_000 + "1" + ")" * 50_000
            finding = lint.LintFinding(None, 1, 5 + 100 * len(opener), "expression nests too deeply", line)
            assert lint.lint_text(line) == [finding]

    def test_juxtaposition_is_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("2 3")
        with pytest.raises(ParseError):
            parse_expression("2 x")


# ----------------------------------------------------------------------
# pinned front-end behaviour

_GOLDEN_NUMBERS = (
    "0", "7", "12", "0.5", "3.25", "000123", "12.500", "1e5", "2E-3", "1.5e-3",
    "12.", "0.000000000000001", "٣", "５", "²", "π", "2π", "pi",
    "π/4", "1/(2π)", "3/π", "1/3",
)
_GOLDEN_UNITS = (
    "°", "′", "″", "d", "m", "s", "deg", "degree", "rad", "radian", "gon",
    "turn", "arcmin", "arcsec", "furlong", "",
)
_GOLDEN_PIECES = _GOLDEN_NUMBERS + _GOLDEN_UNITS + (
    "e", "E", ".", "p", "α", "\u2028", "\f", " ", " ", "+", "-", "*", "/",
    "=", "(", ")", "sin", "cos", "tan", "arcsin", "exp", "foo", "x", "_a1",
)


def _golden_number(rng):
    if rng.random() < 0.15:
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(13, 20)))
    return rng.choice(("", "", "+", "-")) + rng.choice(_GOLDEN_NUMBERS)


def _golden_term(rng, depth=0):
    roll = rng.random()
    if roll < 0.5:
        return _golden_number(rng) + rng.choice(("", " ")) + rng.choice(_GOLDEN_UNITS)
    if roll < 0.7 or depth > 2:
        return rng.choice(("x", "_a1", "foo", "pi", "e"))
    name = rng.choice(("sin", "cos", "tan", "arcsin", "exp", "foo", "("))
    return name + ("" if name == "(" else "(") + _golden_term(rng, depth + 1) + ")"


def _golden_corpus(count=20_000, seed=14):
    """Seeded strings: random pieces, angle literals and expressions."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        mode = rng.random()
        if mode < 0.4:
            parts = [
                _golden_number(rng) if rng.random() < 0.1 else rng.choice(_GOLDEN_PIECES)
                for _ in range(rng.randint(1, 8))
            ]
            text = "".join(parts)
        elif mode < 0.7:
            text = _golden_term(rng) + rng.choice(("", "", " ", "\u2028", "\f", "x", "."))
        else:
            terms = [_golden_term(rng) for _ in range(rng.randint(1, 5))]
            text = terms[0]
            for term in terms[1:]:
                text += rng.choice((" + ", "*", " / ", " = ", "+", " - ", " ")) + term
        corpus.append(text)
    return corpus


def _golden_scalar(value):
    if value.is_exact:
        return (value.numerator, value.denominator, value.pi_exponent)
    return value.inexact_value.hex()


def _golden_field(value):
    if isinstance(value, ExactScalar):
        return _golden_scalar(value)
    if isinstance(value, AngleValue):
        return (_golden_scalar(value.value), value.reference.name)
    if isinstance(value, ReferenceAngle):
        return value.name
    return value


def _golden_outcome(parse, text):
    """A parse result as plain data; an error as (class, message, position)."""
    try:
        result = parse(text)
    except ParseError as exc:
        return (type(exc).__name__, exc.message, exc.position)
    if isinstance(result, ExactScalar):
        return _golden_scalar(result)
    if isinstance(result, textio.AngleLiteral):
        return (result.form, _golden_field(result.parsed))
    return [
        (type(node).__name__,)
        + tuple(
            _golden_field(getattr(node, name))
            for name in node._fields
            if not isinstance(getattr(node, name), ExpressionNode)
        )
        for node in walk(result)
    ]


def _is_error(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], str) and outcome[0].endswith("Error")


# sha256 of every outcome of parse_number, parse_angle and parse_expression
# on the corpus.  A faster scanner or parser must leave it unchanged;
# change it only with a deliberate change of what the front end accepts.
_GOLDEN_DIGEST = "c3248f3b3da1d17971e6be499cd6fa69e36ed656c0318d598a366d1d4a77cc75"


def test_front_end_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _golden_corpus():
        for parse in (parse_number, parse_angle, parse_expression):
            digest.update(repr(_golden_outcome(parse, text)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_DIGEST


# Plain decimals at and just past the 15 digits that stay exact; each
# follower below either ends the number or extends it.
_PLAIN_LITERALS = (
    "123456789012345",
    "1234567890123456",
    "1234567890.12345",
    "1234567890.123456",
    "000123",
    "12.500",
    "0.000000000000001",
)
_FOLLOWERS = (".", "e", "E", "p", "π", "/", "²", " ", "")


def _assert_decimal(value, literal, pi_exponent=0):
    """value is literal·π^pi_exponent, exact iff at most 15 significant digits."""
    if len(literal.replace(".", "").strip("0")) > 15:
        assert not value.is_exact
        expected = float(literal) * math.pi**pi_exponent
        assert value.inexact_value == pytest.approx(expected, rel=1e-15)
        return
    assert value.is_exact and value.pi_exponent == pi_exponent
    assert Fraction(value.numerator, value.denominator) == Fraction(literal)


@pytest.mark.parametrize("literal", _PLAIN_LITERALS)
@pytest.mark.parametrize("follower", _FOLLOWERS, ids=repr)
class TestPlainDecimalBoundary:
    def text(self, literal, follower):
        return literal + follower + ("4" if follower == "/" else "")

    def test_parse_number(self, literal, follower):
        text = self.text(literal, follower)
        if follower in ("", " ", "π"):
            _assert_decimal(parse_number(text), literal, int(follower == "π"))
        elif follower == "/" and literal.isdigit():  # a fraction is exact at any length
            assert parse_number(text) == ExactScalar(int(literal), 4)
        else:
            position = 0 if follower == "/" else len(literal)
            with pytest.raises(ParseError) as excinfo:
                parse_number(text)
            assert excinfo.value.position == position

    def test_parse_angle(self, literal, follower):
        text = self.text(literal, follower) + " rad"
        if follower == "/" and literal.isdigit():
            assert parse_angle(text).parsed == AngleValue(ExactScalar(int(literal), 4), RADIAN)
        elif follower in ("", " ", "π"):
            lit = parse_angle(text)
            assert lit.parsed.reference is RADIAN
            assert lit.form == ("symbolic_pi" if follower == "π" else "decimal")
            _assert_decimal(lit.parsed.value, literal, int(follower == "π"))
        else:
            position = 0 if follower == "/" else len(literal)
            with pytest.raises(ParseError) as excinfo:
                parse_angle(text)
            assert excinfo.value.position == position

    def test_parse_expression(self, literal, follower):
        node = None
        text = self.text(literal, follower)
        if follower == "/":
            node = parse_expression(text)
            assert isinstance(node, BinaryOperation) and node.operator == "/"
            assert node.position == len(literal)
            assert node.right == NumberLiteral(len(literal) + 1, ExactScalar(4))
            node = node.left
        elif follower in ("", " ", "π"):
            node = parse_expression(text)
        if node is None:
            with pytest.raises(ParseError) as excinfo:
                parse_expression(text)
            assert excinfo.value.position == len(literal)
            return
        assert isinstance(node, NumberLiteral) and node.position == 0
        _assert_decimal(node.value, literal, int(follower == "π"))


# Edges of the literal scanner where the order of its checks shows: a
# coefficient past float range fails before the denominator is read, an
# overlong denominator after a written coefficient is named as the scalar
# it would make, a coefficient past 64 bits degrades to a float before
# the denominator can reduce it, and a unit word is a whole run of
# letters.  Each outcome is (numerator, denominator, π exponent) or a
# float, with the reference name; or the error's class, message and
# position.
_BOUND = "normalized component exceeds 64-bit bound: "
_SCANNER_EDGES = [
    ("1e400π/", (ParseError, "number is outside float range", 0)),
    ("1e400pi/turn", (ParseError, "number is outside float range", 0)),
    ("1e400pi/″radianx", (ParseError, "number is outside float range", 0)),
    ("2π/99999999999999999999′", (ParseError, _BOUND + "99999999999999999999/1", 0)),
    (
        "99999999999999999999pi/999999999999999999991′",
        (ParseError, _BOUND + "999999999999999999991/1", 0),
    ),
    ("π/99999999999999999999′", (ParseError, _BOUND + "1/99999999999999999999", 0)),
    ("1π/9223372036854775808 rad", (ParseError, _BOUND + "9223372036854775808/1", 0)),
    ("-π/0 rad", (ParseError, "denominator must be positive", 3)),
    ("2π/ rad", (ParseError, "expected a positive integer", 3)),
    ("-12.5 °", ((-25, 2, 0), "degree")),
    ("+3 rad", ((3, 1, 0), "radian")),
    ("-0 rad", ((0, 1, 0), "radian")),
    ("+0.25turn", ((1, 4, 0), "turn")),
    ("-2.5π/4 rad", ((-5, 8, 1), "radian")),
    ("+π/2 rad", ((1, 2, 1), "radian")),
    ("-7/2π rad", ((-7, 2, 1), "radian")),
    ("5e-19π rad", ((1, 2 * 10**18, 1), "radian")),
    ("1e30π/1000000000000000 rad", (1e30 * math.pi / 1e15, "radian")),
    ("99999999999999999999pi/7 rad", (1e20 * math.pi / 7, "radian")),
    ("0.000000000000000000001π/3 rad", (1e-21 * math.pi / 3, "radian")),
    ("-1e-400π rad", (-0.0, "radian")),
    ("1e308π rad", (math.inf, "radian")),
    ("-1e308pi/3 rad", (-math.inf, "radian")),
    ("90 arcminute", ((90, 1, 0), "arcminute")),
    ("90 radé", (UnknownUnitError, "unknown unit 'radé'", 3)),
    ("90 rad_", (UnknownUnitError, "unknown unit 'rad_'", 3)),
    ("90 degrees", (UnknownUnitError, "unknown unit 'degrees'", 3)),
    ("90 rad²", (ParseError, "unexpected trailing text", 6)),
    ("90°x", (ParseError, "unexpected trailing text", 3)),
]


@pytest.mark.parametrize("text, outcome", _SCANNER_EDGES, ids=[text for text, _ in _SCANNER_EDGES])
def test_scanner_edges(text, outcome):
    if isinstance(outcome[0], type):
        with pytest.raises(ParseError) as excinfo:
            parse_angle(text)
        assert (type(excinfo.value), excinfo.value.message, excinfo.value.position) == outcome
        return
    value = parse_angle(text).parsed
    expected, reference = outcome
    assert value.reference.name == reference
    if isinstance(expected, tuple):
        assert value.value == ExactScalar(*expected)
        assert (value.value.numerator, value.value.denominator, value.value.pi_exponent) == expected
    else:
        assert not value.value.is_exact
        assert math.copysign(1, value.value.inexact_value) == math.copysign(1, expected)
        assert value.value.inexact_value == expected


@pytest.mark.parametrize(
    "text",
    [
        "3π/4 rad", "-π/2 rad", "2.5π/3 turn", "180/π °", "1/(2π) turn", "7/2 °", "-12.5 °",
        "1.5e2 gon", "12°34′56″", "π/4 rad", "1/3π rad", "-180/π gon", "12d34m56.5s", "0.283turn",
    ],
)
def test_a_literal_builds_one_scalar(monkeypatch, text):
    built = []
    init = ExactScalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting)
    parse_angle(text)
    assert len(built) == 1


# ----------------------------------------------------------------------
# the number grammar against the character scanner it replaced

# The character scanner that _NUMBER_RE and _number replaced, kept as the
# reference: _scan_number read a number a character at a time, with
# _DECIMAL_RE for a decimal, _match_pi for π and _scan_posint for a
# denominator, and parse_angle read any literal but a sexagesimal one
# with it alone.
_DECIMAL_RE = re.compile(r"\d+(?:\.(\d+))?(?:[eE][+-]?\d+)?")
_DIGITS_RE = re.compile(r"\d+")
_DMS_RE = re.compile(r"\s*(?P<sign>[+-])?(?P<deg>\d+)[°d](?:(?P<min>\d+)[′m](?:(?P<sec>\d+(?:\.\d+)?)[″s])?)?\s*\Z")


def _skip_space(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _match_pi(text, i):
    """End offset of a π token at i, or None."""
    if text.startswith("π", i):
        return i + 1
    if text.startswith("pi", i):
        end = i + 2
        if end < len(text) and (text[end].isalpha() or text[end] == "_"):
            return None
        return end
    return None


def _digits_to_int(digits, position):
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer has too many digits", position) from None


def _decimal_ratio(text, position):
    """A decimal literal as an exact (numerator, denominator), or a float."""
    mantissa, _, exponent_text = text.replace("E", "e").partition("e")
    int_part, _, frac_part = mantissa.partition(".")
    frac_part = frac_part.rstrip("0")
    digits = (int_part + frac_part).lstrip("0")
    significant = digits.rstrip("0")
    exponent_digits = exponent_text.lstrip("+-").lstrip("0")
    if len(significant) <= 15 and len(exponent_digits) <= 2:
        shift = int(exponent_digits or "0")
        if exponent_text.startswith("-"):
            shift = -shift
        power = shift + len(digits) - len(significant) - len(frac_part)
        if abs(shift) <= 30 and abs(power) <= 40:
            coefficient = int(significant or "0")
            ratio = (coefficient * 10**power, 1) if power >= 0 else (coefficient, 10**-power)
            if overflow_error(*ratio) is None:
                return ratio
    approx = float(text)
    if not math.isfinite(approx):
        raise ParseError(textio.OUTSIDE_FLOAT_RANGE, position)
    return approx


def _scan_number(text, i, allow_slash=True):
    """Scan one number at offset i: (value, saw_pi, end)."""
    start = i
    sign = 1
    if i < len(text) and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    pi_end = _match_pi(text, i)
    if pi_end is not None:
        denominator, i = 1, pi_end
        if allow_slash and text.startswith("/", i):
            denominator, i = _scan_posint(text, i + 1)
        return _exact_or_error(sign, denominator, 1, start), True, i
    m = _DECIMAL_RE.match(text, i)
    if m is None:
        raise ParseError("expected a number", start)
    coefficient_text = m.group()
    i = m.end()
    plain_integer = coefficient_text.isdigit()
    pi_end = _match_pi(text, i)
    if pi_end is not None:
        coefficient = _decimal_ratio(coefficient_text, start)
        denominator, i = 1, pi_end
        if allow_slash and text.startswith("/", i):
            denominator, i = _scan_posint(text, i + 1)
            error = overflow_error(denominator, 1)
            if error is not None:
                raise ParseError(str(error), start)
        if isinstance(coefficient, float):
            return ExactScalar.inexact(sign * coefficient * math.pi / denominator), True, i
        numerator, scale = coefficient
        return _exact_or_error(sign * numerator, scale * denominator, 1, start), True, i
    if allow_slash and text.startswith("/", i):
        after = i + 1
        if not plain_integer:
            raise ParseError("fraction numerator must be an integer", start)
        numerator = sign * _digits_to_int(coefficient_text, start)
        pi_end = _match_pi(text, after)
        if pi_end is not None:
            return _exact_or_error(numerator, 1, -1, start), True, pi_end
        if text.startswith("(", after):
            j = after + 1
            dm = _DIGITS_RE.match(text, j)
            denominator = 1
            if dm is not None:
                denominator = _digits_to_int(dm.group(), start)
                j = dm.end()
            pi_end = _match_pi(text, j)
            if pi_end is None:
                raise ParseError("expected π in parenthesized denominator", j)
            j = pi_end
            if not text.startswith(")", j):
                raise ParseError("expected ')'", j)
            return _exact_or_error(numerator, denominator, -1, start), True, j + 1
        if after < len(text) and text[after].isdigit():
            denominator, j = _scan_posint(text, after)
            pi_end = _match_pi(text, j)
            if pi_end is not None:
                return _exact_or_error(numerator, denominator, 1, start), True, pi_end
            return _exact_or_error(numerator, denominator, 0, start), False, j
        raise ParseError("expected a denominator", after)
    value = _decimal_ratio(coefficient_text, start)
    if isinstance(value, float):
        return ExactScalar.inexact(sign * value), False, i
    return ExactScalar(sign * value[0], value[1]), False, i


def _scan_posint(text, i):
    m = _DIGITS_RE.match(text, i)
    if m is None:
        raise ParseError("expected a positive integer", i)
    value = _digits_to_int(m.group(), i)
    if value == 0:
        raise ParseError("denominator must be positive", i)
    return value, m.end()


def _exact_or_error(numerator, denominator, exponent, position):
    if denominator == 0:
        raise ParseError("denominator must be positive", position)
    try:
        return ExactScalar(numerator, denominator, exponent)
    except ExactOverflowError as exc:
        raise ParseError(str(exc), position) from None


def _scanned_number(text):
    """parse_number as the character scanner read it."""
    i = _skip_space(text, 0)
    if i == len(text):
        raise ParseError("empty input", i)
    value, _, i = _scan_number(text, i)
    if _skip_space(text, i) != len(text):
        raise ParseError("unexpected trailing text", _skip_space(text, i))
    return value


def _scanned_angle(text):
    """parse_angle as the character scanner read every literal but a sexagesimal one."""
    m = _DMS_RE.match(text)
    if m is not None:
        return textio.AngleLiteral(text, textio._dms_value(m), "dms")
    i = _skip_space(text, 0)
    if i == len(text):
        raise ParseError("empty input", i)
    value, saw_pi, i = _scan_number(text, i)
    reference, i = textio._scan_unit(text, _skip_space(text, i))
    if _skip_space(text, i) != len(text):
        raise ParseError("unexpected trailing text", _skip_space(text, i))
    return textio.AngleLiteral(text, AngleValue(value, reference), "symbolic_pi" if saw_pi else "decimal")


_NEVER = re.compile(r"(?!)")  # with this as _FLAT_RE, no line is flat
_SPACES = ("", " ", "\u2003", "\x1c", "\t")


def _digit_run(rng):
    """Digits of a length around the reader's limits (15 in a coefficient, 18 in a denominator)."""
    length = rng.choice((1, 1, 2, 3, 6, 14, 15, 16, 18, 19, 20))
    return "".join(rng.choice("0123456789") for _ in range(length))


def _shaped_literal(rng):
    """A literal in one of the README's non-sexagesimal spellings, some past the reader's limits."""
    pi = rng.choice(("π", "pi"))
    n, d = _digit_run(rng), _digit_run(rng)
    decimal = n + "." + _digit_run(rng)
    body = rng.choice((
        n, decimal, n + pi, decimal + pi, n + pi + "/" + d, decimal + pi + "/" + d, pi, pi + "/" + d,
        n + "/" + d, n + "/" + d + pi, n + "/" + pi, n + "/(" + d + pi + ")", n + "/(" + pi + ")",
    ))
    unit, space = rng.choice(sorted(_ALIASES)), rng.choice(_SPACES)
    if unit == "°" and body.isdigit():
        space = space or " "  # an integer glued to ° is sexagesimal
    return rng.choice(_SPACES) + rng.choice(("", "", "+", "-")) + body + space + unit + rng.choice(_SPACES)


_READER_TRAPS = (
    "12 °", "12.5°", "12deg", "12 d", "2pirad", "2pi_x", "2pi rad", "2 pi rad", "2πrad", "pirad",
    "1.5/2 rad", "π/2π rad", "2π/3π rad", "1/2pirad", "1/pirad", "2π/π rad", "π/(2π) rad",
    "5/0 rad", "5/00 rad", "π/0 rad", "1/(0π) rad", "1/(π) rad", "1/(2) rad", "1/(2π rad", "1/ rad",
    "1 radians", "1 rad_x", "1 radé", "1 rad x", "1 °°", ".5 rad", "5. rad", "- 5 rad", "rad", "-rad",
    "1" * 15 + " rad", "1" * 16 + " rad", "1" * 5000 + " rad", "1" * 5000 + "/3 rad",
    "3/" + "7" * 5000 + " rad", "1/(" + "7" * 5000 + "π) rad", "π/" + "9" * 18 + " rad",
    "π/" + "9" * 19 + " rad", "2π/" + "9" * 19 + " rad", "9" * 15 + "/" + "1" * 18 + "π rad",
    "9" * 15 + "π/" + "1" * 18 + " rad", "0.00000000000001π/999999999999999999 rad",
    "١٢/٣ rad", "١٢.٥ rad", "٣π rad", "1²/2 rad", "1/²2 rad", "-0 rad", "-0/5 rad", "0π/7 rad",
    "2piα rad", "piα rad", "1/piα rad", "1/(2piα) rad", "1/2piα rad", "2pi² rad", "1/(2pi rad", "π/ rad",
    "1e999π/0 rad", "1e999π/ rad", "1e5/2 rad", "1e5/ rad", "/2 rad", "+/2 rad", "1/(π rad", "1/( rad",
)


def test_one_match_reader_agrees_with_the_scanner(monkeypatch):
    rng = random.Random(18)
    texts = [_shaped_literal(rng) for _ in range(6_000)] + list(_READER_TRAPS)
    scanned = []
    scan = textio._scan_number

    def counted_scan(text, *args, **kwargs):
        scanned.append(text)
        return scan(text, *args, **kwargs)

    monkeypatch.setattr(textio, "_scan_number", counted_scan)
    read = [_golden_outcome(parse_angle, text) for text in texts]
    assert read == [_golden_outcome(_scanned_angle, text) for text in texts]
    # the scanner words errors only: every literal that parses took the one match
    assert len(scanned) > 100
    assert all(_is_error(_golden_outcome(_scanned_angle, text)) for text in scanned)


def _read_by_one_match(monkeypatch, text):
    """parse_angle(text), failing if the general scanner is reached."""

    def scanner(*args, **kwargs):
        raise AssertionError(f"{text!r} reached the scanner")

    monkeypatch.setattr(textio, "_scan_number", scanner)
    return parse_angle(text)


@pytest.mark.parametrize("spelling", sorted(_ALIASES))
def test_every_unit_spelling_is_read_by_one_match(monkeypatch, spelling):
    reference = _ALIASES[spelling]
    long_pi = "12345678901234567π"  # a coefficient past 15 digits: a float times π
    for number, value in (
        ("2.5", ExactScalar(5, 2)), ("3/4", ExactScalar(3, 4)), ("3π", ExactScalar(3, 1, 1)),
        ("1.5e2", ExactScalar(150)), ("-6.50405e0", ExactScalar(-650405, 100000)),
        ("π/4", ExactScalar(1, 4, 1)), ("pi", ExactScalar(1, 1, 1)),
        (long_pi, ExactScalar.inexact(12345678901234567 * math.pi)),
    ):
        for space in ("", " "):
            if number.endswith("pi") and spelling.isalpha() and not space:
                continue  # "pirad" is a word, not π
            literal = _read_by_one_match(monkeypatch, number + space + spelling)
            assert literal.parsed == AngleValue(value, reference)
            assert literal.form == ("symbolic_pi" if "π" in number or "pi" in number else "decimal")


def test_sexagesimal_spellings_against_fractions():
    rng = random.Random(18)
    for _ in range(2_000):
        sign = rng.choice(("", "+", "-"))
        marks = rng.choice((("°", "′", "″"), ("d", "m", "s")))
        degrees, minutes = rng.randint(0, 10**rng.randint(1, 6)), rng.randint(0, 99)
        scaled, places = rng.randint(0, 10**6), rng.randint(0, 5)
        seconds = Fraction(scaled, 10**places)
        seconds_text = f"{scaled // 10**places}.{scaled % 10**places:0{places}d}" if places else str(scaled)
        parts = rng.randint(1, 3)
        text = sign + str(degrees) + marks[0]
        expected = Fraction(degrees)
        if parts > 1:
            text += str(minutes) + marks[1]
            expected += Fraction(minutes, 60)
        if parts > 2:
            text += seconds_text + marks[2]
            expected += seconds / 3600
        if sign == "-":
            expected = -expected
        literal = parse_angle(rng.choice(("", " ")) + text + rng.choice(("", " ")))
        value = literal.parsed.value
        assert literal.form == "dms" and literal.parsed.reference is DEGREE
        assert value.is_exact and value.pi_exponent == 0
        assert Fraction(value.numerator, value.denominator) == expected, text


@pytest.mark.parametrize(
    "text",
    ["1.6449340668482264 rad", "-12.345678901234567 °", " +1.0000000000000000 gon ", "0.1234567890123456789turn",
     "-0." + "0" * 400 + "1234567890123456 rad", "1234567890123456 arcsec", " -" + "9" * 400 + ".5 rad"],
)
def test_a_long_decimal_is_read_by_one_match(monkeypatch, text):
    expected = _golden_outcome(_scanned_angle, text)  # the value, or the error "outside float range"

    def scanner(*args, **kwargs):
        raise AssertionError(f"{text!r} reached the scanner")

    monkeypatch.setattr(textio, "_scan_number", scanner)
    assert _golden_outcome(parse_angle, text) == expected


_NUMBER_BREAKERS = ("π", "pi", "/", "(", ")", ".", "e", "E", "+", "-", "٣", "５", "²", "α", "é", "x", "_", " ", "0")
_NUMBER_ENDS = (*sorted(_ALIASES), "d", "m", "s", "furlong", "x", "²", "/", ")", "")
# c is a decimal, n and d digits
_NUMBER_SHAPES = (
    "{c}", "{c}", "{c}{pi}", "{c}{pi}/{d}", "{pi}", "{pi}/{d}", "{n}/{d}", "{n}/{d}{pi}", "{n}/{pi}", "{n}/({d}{pi})",
    "{n}/({pi})", "{n}/", "{pi}/", "{c}/{d}", "{n}/({d}", "{n}/({d}{pi}", "{n}/(",  # the last six are malformed
)


def _number_text(rng):
    """A number in one of the README's spellings, with an exponent or past a digit limit at times, or broken."""
    n, d, f = (f"{rng.randrange(10**k):0{k}}" for k in rng.choices((1, 1, 2, 3, 6, 14, 15, 16, 18, 19, 20), k=3))
    decimal = rng.choice((n, n, n + "." + f))
    if rng.random() < 0.3:
        exponent = rng.choice(("0", "2", "05", "15", "30", "31", "40", "400", "99999"))
        decimal += rng.choice("eE") + rng.choice(("", "+", "-")) + exponent
    body = rng.choice(_NUMBER_SHAPES).format(c=decimal, n=n, d=d, pi=rng.choice(("π", "pi")))
    if rng.random() < 0.25:
        at = rng.randint(0, len(body))
        body = body[:at] + rng.choice(_NUMBER_BREAKERS) + body[at:]
    return rng.choice(_SPACES) + rng.choice(("", "", "+", "-")) + body


def test_the_number_grammar_agrees_with_the_character_scanner():
    rng = random.Random(29)
    texts = [_number_text(rng) for _ in range(100_000)]
    traps = [*_READER_TRAPS, *_LEXER_TRAPS]
    literals = [text + _NUMBER_ENDS[i % len(_NUMBER_ENDS)] + _SPACES[i % len(_SPACES)] for i, text in enumerate(texts)]
    for parse, reference, inputs in (
        (parse_number, _scanned_number, texts + traps),
        (parse_angle, _scanned_angle, literals + traps),
        # a quarter: the one-findall lexer's differential reads 100,000 expressions with this scanner
        (lambda text: parse_expression(text, 3), lambda text: _lexed_expression(text, 3), texts[::4] + traps),
    ):
        read = [_golden_outcome(parse, text) for text in inputs]
        scanned = [_golden_outcome(reference, text) for text in inputs]
        assert [(t, a, b) for t, a, b in zip(inputs, read, scanned) if a != b][:3] == []
        if parse is parse_number:  # the texts reach every branch: values, and each error
            assert len({outcome[1].partition(":")[0] for outcome in read if _is_error(outcome)}) == 12
            assert sum(not _is_error(outcome) for outcome in read) > 30_000


def test_the_two_public_readers_share_one_number_grammar():
    rng = random.Random(30)
    values = faults = 0
    for _ in range(20_000):
        text = _number_text(rng)
        number = _golden_outcome(parse_number, text)
        if _is_error(number) and number[1] in ("unexpected trailing text", "empty input"):
            continue  # the text around the number is at fault, which " rad" changes
        angle = _golden_outcome(parse_angle, text + " rad")
        if _is_error(number):
            assert angle == number, text
            faults += 1
        else:
            assert not _is_error(angle) and angle[1][0] == number, text  # a triple, or a float's hex
            values += 1
    assert values > 5_000 and faults > 2_000


# ----------------------------------------------------------------------
# the one-findall lexer against the character loop

# The character-by-character lexer that the one findall replaced, kept
# as the reference: it reads a token at a time and decides each sign by
# the token before it.
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UNIT_SYMBOLS = "°′″"


def _lex(text: str, offset: int) -> list[tuple]:
    tokens: list[tuple] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        position = offset + i
        if ch in "+-":
            nxt = i + 1
            sign_opens_number = (
                nxt < n
                and (
                    text[nxt].isdigit()
                    or (text[nxt] in "pπ" and _match_pi(text, nxt) is not None)
                )
                and (not tokens or tokens[-1][0] in "+*/=(")
            )
            if not sign_opens_number:
                if ch == "+":
                    tokens.append(("+", ch, position, None))
                    i += 1
                    continue
                raise ParseError("unexpected character '-'", position)
        elif not (ch.isdigit() or (ch in "pπ" and _match_pi(text, i) is not None)):
            if ch in "*/=()":
                tokens.append((ch, ch, position, None))
                i += 1
                continue
            if ch in _UNIT_SYMBOLS:
                tokens.append(("UNIT", ch, position, None))
                i += 1
                continue
            m = _WORD_RE.match(text, i)
            if m is not None:
                tokens.append(("WORD", m.group(), position, None))
                i = m.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", position)
        try:
            value, _, end = _scan_number(text, i, allow_slash=False)
        except ParseError as exc:
            exc.position += offset  # _scan_number counts from the start of text
            raise
        tokens.append(("NUMBER", text[i:end], position, value))
        i = end
    tokens.append(("END", "", offset + n, None))
    return tokens


def _lexed_expression(text: str, offset: int = 0) -> ExpressionNode:
    """parse_expression as it was with the character loop for a lexer."""
    tokens = _lex(text, offset)
    if tokens[0][0] == "END":
        raise ParseError("empty expression", offset)
    return textio._parse_tokens(tokens)


# Pieces around what the findall's token alternatives leave to the
# scanner or catch alone: a sign (also before a digit that str.isdigit
# knows but \d does not), separators that str.isspace knows, pi as a word
# and as π, and digit runs at, just past and far past the 15 digits of a
# plain decimal.
_LEXER_TRAPS = (
    "+²", "+５", "-²", "٣", "５", "²", "\x1c", "\u2028", "\u3000", "\xa0", "pi_", "pi2", "pi", "π", "piα", "pix",
    "+ ", "+", "-", "1+2", "*-", "/+", "=-", "(+", "(-", "++", "+\t", "+\u2028", "+π", "+pi", "+.5", ".",
    "e", "E", "1e5", "2E-3", "p", "α", "$", "1" * 15, "1" * 16, "1" * 30, "1" * 14 + ".5", "1" * 15 + ".5",
    "0" * 16, "12.", ".5", "1/2", "3/π", "2π", "2pi", "°°", "1.2.3",
)
_LEXER_COMMON = (
    " ", " ", "  ", "\t", "x", "_a1", "foo", "sin(", "cos(", "arcsin(", "exp(", "(", ")", ")", " * ", " / ",
    " = ", " + ", "*", "/", "=", "°", "′", "″", " deg", "deg", " rad", "gon", " turn", "arcmin",
)


def _lexer_number(rng):
    whole = "".join(rng.choice("0123456789") for _ in range(rng.choice((1, 1, 2, 3, 7, 14, 15, 16))))
    if rng.random() < 0.5:
        return whole
    return whole + "." + "".join(rng.choice("0123456789") for _ in range(rng.choice((1, 2, 3, 13, 14, 15))))


def _lexer_text(rng):
    parts = []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(rng.choice(_LEXER_COMMON))
        elif roll < 0.85:
            parts.append(_lexer_number(rng))
        else:
            parts.append(rng.choice(_LEXER_TRAPS))
    return "".join(parts)


def _expression_outcomes(parse, texts):
    return [_golden_outcome(lambda t: parse(t, index % 4), text) for index, text in enumerate(texts)]


def _tokens_alone(text):
    """Whether the findall reads text with token alternatives alone: no number to scan, no caught character."""
    return all(part for part, _ in textio._LINE_RE.findall(text))


def test_one_findall_lexer_agrees_with_the_character_loop():
    rng = random.Random(19)
    texts = _golden_corpus() + [_lexer_text(rng) for _ in range(100_000)]
    # the comparison means something only if many texts took the token alternatives alone, and many did not
    alone = len([text for text in texts if _tokens_alone(text)])
    assert len(texts) // 4 < alone < len(texts) - len(texts) // 4
    assert _expression_outcomes(parse_expression, texts) == _expression_outcomes(_lexed_expression, texts)


@pytest.mark.parametrize(
    "text,outcome",
    [
        pytest.param("1 +5", [("BinaryOperation", 2, "+"), ("NumberLiteral", 0, (1, 1, 0)),
                              ("NumberLiteral", 3, (5, 1, 0))], id="a sign after an operand is the operator"),
        pytest.param("1 -5", ("ParseError", "unexpected character '-'", 2), id="minus is no operator"),
        pytest.param("(-π", ("ParseError", "expected ')'", 3), id="a sign after ( opens a number"),
        pytest.param("+²", ("ParseError", "expected a number", 0), id="a sign before any digit opens a number"),
        pytest.param("pi2", ("ParseError", "unexpected trailing text", 2), id="pi before a digit is π"),
        pytest.param("piα", ("ParseError", "unexpected character 'α'", 2), id="pi before any letter is a word"),
        pytest.param("pi²", ("ParseError", "expected a number", 2), id="pi before a numeral that is no letter is π"),
        pytest.param("3.25٣′", [("QuantityLiteral", 0, (3253, 1000, 0), "arcminute", "′")],
                     id="a decimal goes on through any decimal digit"),
        pytest.param("1e5x", ("ParseError", "unexpected trailing text", 3), id="a word starts where an exponent ends"),
        pytest.param("x\u2028+\u2028y", [("BinaryOperation", 2, "+"), ("Identifier", 0, "x"), ("Identifier", 4, "y")],
                     id="plus before any space is the operator"),
    ],
)
def test_the_lexer_reads_signs_and_pi_as_the_character_loop_did(text, outcome):
    assert _golden_outcome(parse_expression, text) == outcome
    assert _golden_outcome(_lexed_expression, text) == outcome


def _lint_statement(rng, index):
    """One line of a statement file: mostly sums, products, quantities and calls."""
    roll = rng.random()
    numbers = [str(rng.randint(0, 999)), f"{rng.randint(0, 99)}.{rng.randint(0, 99)}", str(rng.randint(0, 10**15 - 1))]
    terms = [
        rng.choice((*numbers, rng.choice(numbers) + rng.choice((" deg", "°", " rad", "′")), "a1", "s2"))
        for _ in range(rng.randint(1, 12))
    ]
    body = "".join(term + rng.choice((" + ", " * ", " / ")) for term in terms[:-1]) + terms[-1]
    if roll < 0.2:
        return f"{rng.choice(('angle', 'length'))} {rng.choice(('a', 's'))}{index}"
    if roll < 0.3:
        return f"y{index} = {rng.choice(('sin', 'cos', 'tan', 'exp'))}({body}) + arccos({terms[0]})"
    if roll < 0.96:
        return f"{rng.choice(('angle a', 'a', 'y'))}{index} = {body}"
    # a sign, π, an exponent or a stray character: the character loop reads these
    return f"y{index} = {terms[0]} + {rng.choice(('-3', 'π/4 rad', '1e3', '? 2', '+5', '2pi'))}"


def test_most_statement_lines_take_the_one_findall(monkeypatch):
    rng = random.Random(19)
    files = ["\n".join(_lint_statement(rng, i) for i in range(rng.randint(5, 60))) for _ in range(50)]
    calls = []
    parse = lint.parse_expression
    monkeypatch.setattr(lint, "parse_expression", lambda *args: calls.append(args[0]) or parse(*args))
    monkeypatch.setattr(textio, "_FLAT_RE", _NEVER)  # count over every line, as if none were flat
    fast = [lint.lint_text(text) for text in files]
    looped = [text for text in calls if not _tokens_alone(text)]
    assert len(calls) > 1_000 and len(looped) < len(calls) // 10
    monkeypatch.undo()
    monkeypatch.setattr(lint, "parse_expression", _lexed_expression)
    assert [lint.lint_text(text) for text in files] == fast


_FLAT_OPERANDS = (
    "x", "a1", "_b", "s2", "rad", "7", "42", "3.25", "7 deg", "7°", "3.5rad", "12 arcsec", "9′", "1 turn",
    "sin(3 rad)", "arccos(a1 * 2)", "exp(2 °)", "tan (4°+1)",
)
_FLAT_OPERATORS = (" + ", " * ", " / ", "+", "*", "/", " +", "\t*\t", " = ")
_FLAT_TRAPS = (
    "-", "+", "-3", "+5", "pi", "π", " pi", "2pi", "pi2", "1e3", "2E-3", "1" * 16, "1" * 15 + ".5", "9" * 15,
    "degx", "radian_", "3gonx", "°x", " x", "x", "2", "\x1c", "\u2028", "\u3000", "=", " = ", "5.", ".5", "$",
    "?", ")", "1/2", " ", "", "(", "sin()", "sin(3 rad", "sin(sin(3 rad))", "sin(x = 3)", "foo(3 rad)", "xsin(3)",
    "sinx(3)", "(2 rad)", "sin(3 radx)", "sin(1e3 rad)", "sin(-3 rad)", "sin(π rad)", "sin(3 +)", "cos(x /\t)",
)


def _flat_text(rng):
    """Operands joined by operators, and often a trap put in or in place of a piece."""
    parts = [rng.choice(_FLAT_OPERANDS)]
    for _ in range(rng.randint(0, 6)):
        parts += [rng.choice(_FLAT_OPERATORS), rng.choice(_FLAT_OPERANDS)]
    for _ in range(rng.choice((0, 1, 1, 2))):
        at = rng.randrange(len(parts) + 1)
        parts[at : at + rng.randint(0, 1)] = [rng.choice(_FLAT_TRAPS)]
    return "".join(parts)


def test_the_flat_recognizer_accepts_only_what_parses(monkeypatch):
    rng = random.Random(23)
    statements = [_lint_statement(rng, index) for index in range(10_000)]
    texts = _golden_corpus() + [_lexer_text(rng) for _ in range(10_000)] + [_flat_text(rng) for _ in range(20_000)]
    texts += statements + [line.partition("=")[2] for line in statements]
    accepted = [text for text in texts if textio._is_flat(text)]
    assert len(accepted) > len(texts) // 5
    for text in accepted:
        parse_expression(text)  # raises if the recognizer took text the parser refuses
    # Python 3.10 has no possessive "++": the greedy "+" it reads instead, for the operands and for
    # the operands of a call, accepts the same texts
    greedy = re.compile(textio._FLAT_RE.pattern.replace(")++", ")+"))
    assert [text for text in texts if text.count("=") < 2 and greedy.fullmatch(text)] == accepted
    # Whatever the recognizer does, lint finds what the trees show: the files declare
    # some names as angles and some as lengths, and flat lines assign to both.
    heads = ["angle x", "angle a1", "length _b", "length s2", "angle rad"]
    files = ["\n".join(heads + [rng.choice((f"{name} = ", "length q = ", "")) + _flat_text(rng)
                                 for name in rng.choices(("x", "a1", "_b", "s2", "y"), k=20)])
             for _ in range(300)]
    files += ["\n".join(heads + statements[k : k + 40]) for k in range(0, len(statements), 40)]
    found = [lint.lint_text(text) for text in files]
    monkeypatch.setattr(textio, "_FLAT_RE", _NEVER)
    assert [lint.lint_text(text) for text in files] == found


# ----------------------------------------------------------------------
# the one-loop parser against recursive descent

# The recursive-descent parser that _parse_tokens replaced, kept as the
# reference: equality := sum ["=" sum], sum := term {"+" term},
# term := primary {("*" | "/") primary}, and a group holds a sum, not an equality.
class _ExpressionParser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def parse(self) -> ExpressionNode:
        node = self.equality()
        kind, _, position, _ = self.tokens[self.index]
        if kind != "END":
            raise ParseError("unexpected trailing text", position)
        return node

    def equality(self) -> ExpressionNode:
        left = self.sum_()
        kind, _, position, _ = self.tokens[self.index]
        if kind != "=":
            return left
        self.index += 1
        right = self.sum_()
        kind, _, after, _ = self.tokens[self.index]
        if kind == "=":
            raise ParseError("chained '=' is not allowed", after)
        return BinaryOperation(position, "=", left, right)

    def sum_(self) -> ExpressionNode:
        node = self.term()
        tokens = self.tokens
        while True:
            kind, _, position, _ = tokens[self.index]
            if kind != "+":
                return node
            self.index += 1
            node = BinaryOperation(position, "+", node, self.term())

    def term(self) -> ExpressionNode:
        node = self.primary()
        tokens = self.tokens
        while True:
            kind, _, position, _ = tokens[self.index]
            if kind != "*" and kind != "/":
                return node
            self.index += 1
            node = BinaryOperation(position, kind, node, self.primary())

    def primary(self) -> ExpressionNode:
        """A number (with the unit after it, if any), a name, a call or a group."""
        tokens = self.tokens
        kind, text, position, value = tokens[self.index]
        self.index += 1
        if kind == "NUMBER":
            unit_kind, unit_text, _, _ = tokens[self.index]
            if unit_kind == "UNIT" or (unit_kind == "WORD" and unit_text in _ALIASES):
                self.index += 1
                node, store = _new(QuantityLiteral), _set_quantity
                _set_reference(node, _ALIASES[unit_text])
                _set_unit_text(node, unit_text)
            else:
                node, store = _new(NumberLiteral), _set_number
            _set_position(node, position)
            if value is None:  # a plain decimal: .value is built on its first read
                _keep_digits(node, text)
            else:
                store(node, value)
            return node
        if kind == "WORD":
            if tokens[self.index][0] != "(":
                return Identifier(position, text)
            if text not in FUNCTION_NAMES:
                raise ParseError(f"unknown function '{text}'", position)
            self.index += 1
            return FunctionApplication(position, text, self.group(position))
        if kind == "(":
            return self.group(position)
        if kind == "UNIT":
            raise ParseError("unit symbol needs a number before it", position)
        raise ParseError("expected a value", position)

    def group(self, position: int) -> ExpressionNode:
        """An expression and its ")", after the "("; `position` reports deep nesting."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError("expression nests too deeply", position)
        node = self.sum_()
        kind, _, closing, _ = self.tokens[self.index]
        if kind == "=":
            raise ParseError("'=' is allowed only at the top level", closing)
        if kind != ")":
            raise ParseError("expected ')'", closing)
        self.index += 1
        self.depth -= 1
        return node



_CALL_WORDS = ("sin", "cos", "tan", "arcsin", "arccos", "exp")
_UNIT_WORDS = ("deg", "rad", "gon", "turn", "arcmin", "degree")
_PLAIN_WORDS = ("x", "a1", "s2", "foo", "e", "pi_")
_NUMBER_TOKENS = (("12", None), ("0.5", None), ("7", None), ("π", PI), ("1e3", ExactScalar(1000)), ("2.5", ExactScalar(5, 2)))
_ANY_TOKEN = (
    [("NUMBER", "3", ExactScalar(3))]
    + [("WORD", word, None) for word in _CALL_WORDS + _UNIT_WORDS + _PLAIN_WORDS]
    + [("UNIT", symbol, None) for symbol in "°′″"]
    + [(c, c, None) for c in "+*/=()"]
    + [("END", "", None)]
)


def _token_list(rng):
    """Tokens as a lexer hands them over: mostly well formed, some stray, nesting up to 102."""
    random = rng.random

    def pick(items):
        return items[int(random() * len(items))]

    diving = random() < 0.03  # opens groups up to the limit before its first operand
    limit = pick((99, 100, 101, 102)) if diving else pick(range(5))
    operands = pick(range(1, 13))
    raw, depth, expect_operand = [], 0, True
    while operands:
        if not diving and random() < 0.03:
            raw.append(pick(_ANY_TOKEN))
        elif expect_operand:
            if depth < limit and (diving or random() < 0.3):
                if random() < 0.5:
                    raw.append(("WORD", pick(_CALL_WORDS), None))
                raw.append(("(", "(", None))
                depth += 1
                continue
            if random() < 0.6:
                text, value = pick(_NUMBER_TOKENS)
                raw.append(("NUMBER", text, value))
                if random() < 0.4:
                    raw.append(("UNIT", pick("°′″"), None) if random() < 0.5 else ("WORD", pick(_UNIT_WORDS), None))
            else:
                raw.append(("WORD", pick(_PLAIN_WORDS + _UNIT_WORDS), None))
            operands -= 1
            diving = expect_operand = False
        elif depth and random() < 0.3:
            raw.append((")", ")", None))
            depth -= 1
        else:
            kind = pick("++++***//==")
            raw.append((kind, kind, None))
            expect_operand = True
    raw += [(")", ")", None)] * (depth if random() < 0.9 else pick(range(depth + 1)))
    raw.append(("END", "", None))
    tokens, position = [], pick(range(4))
    for kind, text, value in raw:
        tokens.append((kind, text, position, value))
        position += len(text) + 1
    return tokens


def _parsed(parse, tokens):
    try:
        return parse(tokens)
    except ParseError as exc:
        return (type(exc), exc.message, exc.position)


def test_one_loop_parser_agrees_with_recursive_descent(monkeypatch):
    lexed = []
    parse = textio._parse_tokens
    monkeypatch.setattr(textio, "_parse_tokens", lambda tokens: lexed.append(tokens) or parse(tokens))
    for text in _golden_corpus():
        _golden_outcome(parse_expression, text)
    rng = random.Random(20)
    token_lists = lexed + [_token_list(rng) for _ in range(100_000)]
    errors, trees = set(), 0
    for tokens in token_lists:
        expected = _parsed(lambda tokens: _ExpressionParser(tokens).parse(), tokens)
        assert _parsed(parse, tokens) == expected, tokens
        if isinstance(expected, tuple):
            errors.add(re.sub(r"'\w+'", "'name'", expected[1]))
        else:
            trees += 1
    # every error the parser raises was met, and many lists parsed
    assert trees > len(token_lists) // 3
    assert errors == {
        "expected a value", "expected ')'", "unexpected trailing text", "chained '=' is not allowed",
        "'=' is allowed only at the top level", "unknown function 'name'", "unit symbol needs a number before it",
        "expression nests too deeply",
    }


def test_re_and_str_agree_on_whitespace():
    # A findall part carries the spaces after its token, and str.rstrip
    # takes them off again: right only while the two agree on what a space is.
    space = re.compile(r"\s")
    assert [hex(c) for c in range(0x110000) if bool(space.fullmatch(chr(c))) != chr(c).isspace()] == []


@pytest.mark.parametrize("space", ["\x1c", "\x85", "\u2028", "\u3000"], ids=repr)
def test_unicode_spaces_after_tokens_take_the_one_findall(space):
    pieces = ("12", "°", "+", "x", "*", "sin", "(", "0.5", "rad", ")", "/", "3", "′", "=", "y")
    texts = [space.join(pieces), space + space.join(pieces) + space * 2, "a" + space + "=" + space + "7" + space]
    assert all(_tokens_alone(text) for text in texts)
    assert [parse_expression(text, 3) for text in texts] == [_lexed_expression(text, 3) for text in texts]
