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
    MissingUnitError,
    ParseError,
    UnknownUnitError,
    UnsupportedFormError,
)
from anglekit.exact import PI, ExactScalar
from anglekit.textio import (
    BinaryOperation,
    ExpressionNode,
    FunctionApplication,
    Identifier,
    NumberLiteral,
    QuantityLiteral,
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
    if parse is parse_angle:
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


# sha256 of every outcome of parse_number, parse_angle and parse_expression
# on the corpus.  A faster scanner or parser must leave it unchanged;
# change it only with a deliberate change of what the front end accepts.
_GOLDEN_DIGEST = "778558072a61b6f059e08f2ff799e5b1e8e68e795d3a9afa70a1e2fff0bf0574"


def test_front_end_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _golden_corpus():
        for parse in (parse_number, parse_angle, parse_expression):
            digest.update(repr(_golden_outcome(parse, text)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _GOLDEN_DIGEST


# A plain decimal of at most 15 digits takes a shortcut in the scanner;
# each follower below either ends the number or must send it down the
# full scan.
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
    ["3π/4 rad", "-π/2 rad", "2.5π/3 turn", "180/π °", "1/(2π) turn", "7/2 °", "-12.5 °", "1.5e2 gon", "12°34′56″"],
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
