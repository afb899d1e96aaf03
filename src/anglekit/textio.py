"""Text input and output for angles, plus a small expression language.

Accepted angle literals (leading/trailing whitespace allowed):

    number    := decimal | fraction | pi-form
    decimal   := [sign] digits ["." digits] [("e"|"E") [sign] digits]
    fraction  := [sign] integer "/" posint
    pi-form   := [sign] [decimal] ("π"|"pi") ["/" posint]
               | [sign] integer "/" posint ("π"|"pi")
               | [sign] integer "/" "(" [posint] ("π"|"pi") ")"
               | [sign] integer "/" ("π"|"pi")
    angle     := number unit | dms
    dms       := [sign] digits ("°"|"d") [digits ("′"|"m") [decimal ("″"|"s")]]

One pattern, _NUMBER, reads every number, and one builder, _number,
gives its value or words its error: parse_number, the one match of
parse_angle and the expression lexer all read numbers with them.

Units answer to their symbol or name: rad/radian, °/deg/degree, gon,
turn, ′/arcmin/arcminute, ″/arcsec/arcsecond.

Decimal literals with at most 15 significant digits (trailing fractional
zeros ignored) become exact rationals; longer ones become flagged
inexact floats.  Formatting an exact value and parsing the result always
recovers the identical value.

The expression language used by the linter shares the number syntax but
treats "/" strictly as an operator; it adds identifiers, "+", "*", "="
(once, outside any group), parentheses, function application (sin, cos,
tan, arcsin, arccos, exp) and quantities (a number followed by a unit).
A sign opens a number only at the start or after + * / = (; "-" is no operator.
"""

from __future__ import annotations

import math
import re
import sys

from .angles import (
    _ALIASES,
    DEGREE,
    AngleValue,
    ReferenceAngle,
    ascii_symbol,
)
from .errors import (
    ExactOverflowError,
    MissingUnitError,
    ParseError,
    UnknownUnitError,
    UnsupportedFormError,
)
from .exact import ExactScalar, Record, format_float, overflow_error
from .trig import FORWARD_KINDS, INVERSE_KINDS

__all__ = [
    "AngleLiteral",
    "parse_angle",
    "parse_number",
    "format_angle",
    "ANGLE_FORMS",
    "ExpressionNode",
    "NumberLiteral",
    "QuantityLiteral",
    "Identifier",
    "FunctionApplication",
    "BinaryOperation",
    "FUNCTION_NAMES",
    "OUTSIDE_FLOAT_RANGE",
    "parse_expression",
    "walk",
]

ANGLE_FORMS = ("decimal", "symbolic_pi", "dms")

FUNCTION_NAMES = frozenset(FORWARD_KINDS + INVERSE_KINDS + ("exp",))

OUTSIDE_FLOAT_RANGE = "number is outside float range"

_EXACT_DIGIT_LIMIT = 15
_MAX_NESTING = 100


class _Deferred:
    """A pattern compiled on first use into the global that held it: import compiles none of them."""

    def __init__(self, namespace: dict, name: str, pattern: str):
        self.namespace, self.name, self.pattern = namespace, name, pattern

    def __getattr__(self, attribute: str):
        compiled = self.namespace[self.name] = re.compile(self.pattern)
        return getattr(compiled, attribute)


# The number grammar, one piece each.  A decimal is n[.f][e±x].  π is "π", or
# "pi" before no ASCII letter or "_"; re has no class for str.isalpha, so
# _match_number re-reads a number whose "pi" runs into any other letter.  An
# optional part is spelled (?:x|), not (?:x)?: re runs the empty branch faster.
_DECIMAL = r"\d+(?:\.\d+|)(?:[eE][+-]?\d+|)"
_PI = r"(?:π|pi(?![A-Za-z_]))"
# A sign, then n[.f][e±x]π[/d], π[/d], n/d[π], n/π, n/([d]π) or n[.f][e±x].  The
# malformed tails n/, π/ and n/(d without π or ")" match too, as does nothing
# at all, so that _number words each error.  Groups: 1 sign, 2 decimal, 3 π and
# 4 its d, 5 d after "/" and 6 its π, 7 anything else after "/", 8 and 9 the
# d and π of "(dπ)".
_NUMBER = (
    rf"([+-]?)(?:({_DECIMAL})|)(?:({_PI})(?:/(\d*)|)"
    rf"|/(?:(\d+)(?:({_PI})|)|(\((\d*)(?:({_PI}(?:\)|))|)|{_PI}|))|)"
)
_NUMBER_RE = _Deferred(globals(), "_NUMBER_RE", r"\s*" + _NUMBER)

# One match reads a whole literal: sexagesimal, with the groups _dms_value
# reads, or a number and a unit.
_LITERAL_RE = _Deferred(
    globals(), "_LITERAL_RE",
    r"\s*(?:(?:(?P<sign>[+-])|)(?P<deg>\d+)[°d](?:(?P<min>\d+)[′m](?:(?P<sec>\d+(?:\.\d+|))[″s]|)|)"
    rf"|{_NUMBER}\s*([A-Za-z]+|[°′″]))\s*\Z"
)

_UNIT_SYMBOLS = tuple(token for token in _ALIASES if not token.isalpha())  # °′″


class AngleLiteral(Record):
    """A parsed angle: the raw text, its value, and the form it used."""

    __slots__ = ("raw", "parsed", "form")

    def __init__(self, raw: str, parsed: AngleValue, form: str):
        _set_raw(self, raw)
        _set_parsed(self, parsed)
        _set_form(self, form)


# ----------------------------------------------------------------------
# number scanning (shared by angle literals and the expression lexer)


def _skip_space(text: str, i: int) -> int:
    return len(text) - len(text[i:].lstrip())


def _digits_to_int(digits: str, m: re.Match, group: int | str) -> int:
    """int(digits), with a digit run past int's conversion limit rejected at the group."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer has too many digits", m.start(group)) from None


def _decimal_ratio(text: str, position: int) -> tuple[int, int] | tuple[float, int]:
    """A decimal literal as an exact (numerator, denominator), or as (a float, 1).

    At most 15 significant digits (trailing fractional zeros stripped
    first) guarantee an exact in-range rational; anything longer, or
    anything whose reduced form overflows the 64-bit components, degrades
    to a float.  Values outside float range are errors.
    """
    mantissa, _, exponent_text = text.replace("E", "e").partition("e")
    int_part, _, frac_part = mantissa.partition(".")
    frac_part = frac_part.rstrip("0")
    digits = (int_part + frac_part).lstrip("0")
    significant = digits.rstrip("0")
    # Only the significant digits and an exponent of at most two digits
    # are converted to int, so a literal of any length scans.  Past
    # 10**±40 a coefficient of at most 15 digits leaves the 64-bit
    # components, so that power is never built.
    exponent_digits = exponent_text.lstrip("+-").lstrip("0")
    if len(significant) <= _EXACT_DIGIT_LIMIT and len(exponent_digits) <= 2:
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
        raise ParseError(OUTSIDE_FLOAT_RANGE, position)
    return approx, 1


def _match_number(text: str, i: int, allow_slash: bool = True) -> re.Match:
    """_NUMBER_RE's match at i, ended before a "pi" that runs into a letter past ASCII.

    With allow_slash false it also ends before a "/", so the match reads
    what it would if "/" were no part of the grammar.
    """
    m = _NUMBER_RE.match(text, i)
    if not allow_slash:
        slash = text.find("/", i, m.end())
        if slash >= 0:
            m = _NUMBER_RE.match(text, i, slash)
    pi_at = text.find("pi", i, m.end())
    if pi_at >= 0 and text[pi_at + 2:pi_at + 3].isalpha():
        m = _NUMBER_RE.match(text, i, pi_at)
    return m


def _scan_number(
    text: str, i: int, allow_slash: bool = True
) -> tuple[ExactScalar, bool, int]:
    """Read one number at offset i, after any spaces: (value, saw_pi, end).

    With allow_slash false the "/" forms are left untouched for an
    enclosing expression parser.
    """
    m = _match_number(text, i, allow_slash)
    value, saw_pi = _number(m.groups(), m, 1)
    return value, saw_pi, m.end()


def _number(groups: tuple, m: re.Match, first: int) -> tuple[ExactScalar, bool]:
    """The value of a number match and whether it holds π, or the ParseError of a malformed one.

    groups are _NUMBER's nine, the sign being m's group `first`.  A
    position is looked up only to raise.
    """
    sign, decimal, pi, pi_den, den, den_pi, inverse, paren_den, paren_pi = groups
    if decimal is None and pi is None:
        start = m.start(first)
        raise ParseError("expected a number" if start < len(m.string) else "empty input", start)
    if den is None and inverse is None:  # n[.f][e±x], π, or both; π may take a "/d"
        power = 0 if pi is None else 1
        if decimal is None:
            numerator = denominator = 1
        else:
            whole, _, frac = decimal.partition(".")
            digits = whole + frac
            if len(digits) <= _EXACT_DIGIT_LIMIT and digits.isdigit():  # no exponent: exact
                numerator, denominator = int(digits), 10 ** len(frac)
            else:
                numerator, denominator = _decimal_ratio(decimal, m.start(first))
        if pi_den is not None:
            divisor = _positive(pi_den, m, first + 3)
            if decimal is not None:  # after a coefficient, d past 64 bits is worded alone
                error = overflow_error(divisor, 1)
                if error is not None:
                    raise ParseError(str(error), m.start(first))
            denominator *= divisor
        if isinstance(numerator, float):
            if sign == "-":
                numerator = -numerator
            return ExactScalar.inexact(numerator * math.pi / denominator if power else numerator), power != 0
    else:  # n/d[π], n/π, n/([d]π), or n/ and no denominator
        if not decimal.isdigit():
            raise ParseError("fraction numerator must be an integer", m.start(first))
        numerator, denominator, power = _digits_to_int(decimal, m, first), 1, -1
        if den is not None:
            denominator, power = _positive(den, m, first + 4), 0 if den_pi is None else 1
        elif not inverse:
            after = m.end(first + 6)
            digit = m.string[after:after + 1].isdigit()  # a numeral \d does not match
            raise ParseError("expected a positive integer" if digit else "expected a denominator", after)
        elif paren_den is not None:  # the d of "(dπ)" is worded at the number's start, as the numerator is
            if paren_den:
                denominator = _digits_to_int(paren_den, m, first)
            if paren_pi is None or paren_pi[-1] != ")":
                message = "expected ')'" if paren_pi else "expected π in parenthesized denominator"
                raise ParseError(message, m.end(first + 6))
    if sign == "-":
        numerator = -numerator
    if denominator:
        try:
            return ExactScalar(numerator, denominator, power), power != 0
        except ExactOverflowError as exc:
            raise ParseError(str(exc), m.start(first)) from None
    raise ParseError("denominator must be positive", m.start(first))


def _positive(digits: str, m: re.Match, group: int) -> int:
    """A denominator's digits as a positive int, or the ParseError at the group."""
    if not digits:
        raise ParseError("expected a positive integer", m.start(group))
    value = _digits_to_int(digits, m, group)
    if value:
        return value
    raise ParseError("denominator must be positive", m.start(group))


# ----------------------------------------------------------------------
# angle literals


def parse_number(text: str) -> ExactScalar:
    """Parse a bare number (no unit)."""
    value, _, i = _scan_number(text, 0)
    i = _skip_space(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing text", i)
    return value


def parse_angle(text: str) -> AngleLiteral:
    """Parse an angle literal: a number with a unit, or a sexagesimal form.

    One match of _LITERAL_RE reads a literal, and _number gives its
    value; text the match does not read is scanned again to word the error.
    """
    m = _LITERAL_RE.match(text)
    if m is not None:
        groups = m.groups()  # 0-3 sexagesimal, 4-12 a number (group 5 its sign), 13 a unit
        if groups[1] is not None:
            return AngleLiteral(text, _dms_value(m), "dms")
        reference = _ALIASES.get(groups[13])
        if reference is not None:
            value, saw_pi = _number(groups[4:13], m, 5)
            return AngleLiteral(text, AngleValue(value, reference), "symbolic_pi" if saw_pi else "decimal")
    value, saw_pi, i = _scan_number(text, 0)
    reference, i = _scan_unit(text, _skip_space(text, i))
    i = _skip_space(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing text", i)
    return AngleLiteral(text, AngleValue(value, reference), "symbolic_pi" if saw_pi else "decimal")


def _scan_unit(text: str, i: int) -> tuple[ReferenceAngle, int]:
    end = i
    while end < len(text) and (text[end].isalpha() or text[end] == "_"):
        end += 1
    token = text[i:end] or text[i:i + 1]  # a whole run of letters and "_", or one symbol
    if token in _ALIASES:
        return _ALIASES[token], i + len(token)
    if i >= len(text):
        raise MissingUnitError("angle needs a unit symbol", i)
    chunk = re.match(r"\S+", text[i:]).group()
    raise UnknownUnitError(f"unknown unit {chunk!r}", i)


def _dms_value(m: re.Match) -> AngleValue:
    sign = -1 if m.group("sign") == "-" else 1
    degrees = _digits_to_int(m.group("deg"), m, "deg")
    minutes = _digits_to_int(m.group("min") or "0", m, "min")
    seconds_text = m.group("sec")
    sn, sd = _decimal_ratio(seconds_text, m.start("sec")) if seconds_text else (0, 1)
    if not isinstance(sn, float):
        try:
            value = ExactScalar(sign * ((degrees * 60 + minutes) * 60 * sd + sn), 3600 * sd)
            return AngleValue(value, DEGREE)
        except ExactOverflowError:
            pass
    seconds = sn / sd
    try:
        approx = sign * (degrees + minutes / 60.0 + seconds / 3600.0)
    except OverflowError:  # degrees past float range
        approx = math.inf
    if not math.isfinite(approx):
        raise ParseError(OUTSIDE_FLOAT_RANGE, m.start("deg"))
    return AngleValue(ExactScalar.inexact(approx), DEGREE)


# ----------------------------------------------------------------------
# formatting


def format_angle(
    angle: AngleValue,
    form: str = "symbolic_pi",
    digits: int = 17,
    ascii_only: bool = False,
) -> str:
    """Render an angle in one of the forms in ANGLE_FORMS.

    Exact values always round-trip: parse_angle(format_angle(v, form))
    recovers v bit for bit, falling back to the symbolic spelling when a
    value has no finite rendering in the requested form.
    """
    if form not in ANGLE_FORMS:
        raise ValueError(f"form must be one of {ANGLE_FORMS}")
    if not 1 <= digits <= 17:
        raise ValueError("digits must be between 1 and 17")
    if form == "dms":
        return _format_dms(angle, digits, ascii_only)
    unit = ascii_symbol(angle.reference) if ascii_only else angle.reference.symbol
    value = angle.value
    body = None
    if form == "decimal" and value.pi_exponent == 0:
        body = _exact_decimal_text(value.numerator, value.denominator)
    if body is None:
        body = value.render(ascii_only, digits)
    return f"{body} {unit}"


def _exact_decimal_text(numerator: int, denominator: int) -> str | None:
    """Terminating decimal for the reduced fraction numerator/denominator, or None.

    None when the expansion does not terminate, or it would take more
    significant digits than parse guarantees to read back exactly.
    """
    twos = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    fives = 0
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return None
    places = max(twos, fives)
    scaled = abs(numerator) * 2 ** (places - twos) * 5 ** (places - fives)
    digits_text = str(scaled)
    if len(digits_text.strip("0")) > _EXACT_DIGIT_LIMIT:
        return None
    sign = "-" if numerator < 0 else ""
    if places == 0:
        return sign + digits_text
    digits_text = digits_text.rjust(places + 1, "0")
    fractional = digits_text[-places:].rstrip("0")
    body = digits_text[:-places]
    return sign + body + ("." + fractional if fractional else "")


def _format_dms(angle: AngleValue, digits: int, ascii_only: bool) -> str:
    if angle.reference != DEGREE:
        raise UnsupportedFormError("sexagesimal output needs a degree angle")
    deg_mark, min_mark, sec_mark = ("d", "m", "s") if ascii_only else ("°", "′", "″")
    value = angle.value
    if value.is_exact:
        if value.pi_exponent != 0:
            raise UnsupportedFormError("value carries a π factor; no sexagesimal form")
        sign = "-" if value.numerator < 0 else ""
        d = value.denominator
        degrees, rest = divmod(abs(value.numerator), d)
        minutes, rest = divmod(rest * 60, d)
        if rest == 0:
            if minutes == 0:
                return f"{sign}{degrees}{deg_mark}"
            return f"{sign}{degrees}{deg_mark}{minutes}{min_mark}"
        g = math.gcd(rest * 60, d)
        seconds_text = _exact_decimal_text(rest * 60 // g, d // g)
        if seconds_text is None:
            raise UnsupportedFormError("seconds do not terminate in this base")
        return (
            f"{sign}{degrees}{deg_mark}{minutes}{min_mark}{seconds_text}{sec_mark}"
        )
    f = value.inexact_value
    if not math.isfinite(f):
        raise UnsupportedFormError("non-finite value has no sexagesimal form")
    sign = "-" if f < 0 else ""
    magnitude = abs(f)
    degrees = int(magnitude)
    rest = (magnitude - degrees) * 60.0
    minutes = int(rest)
    seconds = (rest - minutes) * 60.0
    seconds_text = format_float(seconds, min(digits, 17))
    if float(seconds_text) >= 60.0:
        seconds_text = "0"
        minutes += 1
        if minutes >= 60:
            minutes = 0
            degrees += 1
    return f"{sign}{degrees}{deg_mark}{minutes}{min_mark}{seconds_text}{sec_mark}"


# ----------------------------------------------------------------------
# expression language


class _Pending:
    __slots__ = ("_digits",)  # a plain decimal's digits, while its literal's value slot is unset


def _value_from_digits(node, name):
    """First read of an unset `.value`: ExactScalar(int(whole + frac), 10**len(frac)), stored."""
    if name != "value":
        raise AttributeError(f"{type(node).__name__!r} object has no attribute {name!r}")
    whole, _, frac = _get_digits(node).partition(".")
    value = ExactScalar(int(whole + frac), 10 ** len(frac))
    type(node).value.__set__(node, value)
    return value


class ExpressionNode(Record, _Pending):
    """A node of an expression tree.

    Sums and products parse left-deep, so a long line is a deep tree.
    ==, hash, repr and pickling therefore walk the tree with an explicit
    stack, and give what `Record`'s field-by-field recursion would.
    """

    __slots__ = ("position",)

    def __init__(self, position: int):
        _set_position(self, position)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self):
        # A stack of results pops each node's children in field order.
        hashes = []
        pop = hashes.pop
        for node in _postorder(self):
            values = [_Hashed(pop()) if isinstance(v, ExpressionNode) else v for v in node._values(node)]
            hashes.append(hash(tuple(values)))
        return hashes[0]

    def __repr__(self):
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            parts.append(type(node).__qualname__ + "(")
            stack.append(")")
            names, values = node._fields, node._values(node)
            for index in range(len(names) - 1, -1, -1):
                value = values[index]
                stack.append(value if isinstance(value, ExpressionNode) else repr(value))
                stack.append((", " if index else "") + names[index] + "=")
        return "".join(parts)

    def __reduce__(self):
        # One flat list in _postorder: per node its class, a bit mask of
        # the fields that hold a child, then its other fields.  It decides
        # the tree, so __eq__ compares these lists.
        postfix = []
        for node in _postorder(self):
            values = node._values(node)
            mask = sum(1 << i for i, v in enumerate(values) if isinstance(v, ExpressionNode))
            postfix += (type(node), mask, *[v for v in values if not isinstance(v, ExpressionNode)])
        return _build_tree, (postfix,)


class NumberLiteral(ExpressionNode):
    __slots__ = ("value",)

    def __init__(self, position: int, value: ExactScalar):
        _set_position(self, position)
        _set_number(self, value)


class QuantityLiteral(ExpressionNode):
    __slots__ = ("value", "reference", "unit_text")

    def __init__(self, position: int, value: ExactScalar, reference: ReferenceAngle, unit_text: str):
        _set_position(self, position)
        _set_quantity(self, value)
        _set_reference(self, reference)
        _set_unit_text(self, unit_text)


class Identifier(ExpressionNode):
    __slots__ = ("name",)

    def __init__(self, position: int, name: str):
        _set_position(self, position)
        _set_identifier(self, name)


class FunctionApplication(ExpressionNode):
    __slots__ = ("name", "argument")

    def __init__(self, position: int, name: str, argument: ExpressionNode):
        _set_position(self, position)
        _set_function(self, name)
        _set_argument(self, argument)


class BinaryOperation(ExpressionNode):
    __slots__ = ("operator", "left", "right")

    def __init__(self, position: int, operator: str, left: ExpressionNode, right: ExpressionNode):
        _set_position(self, position)
        _set_operator(self, operator)  # one of + * / =
        _set_left(self, left)
        _set_right(self, right)


_set_raw, _set_parsed = AngleLiteral.raw.__set__, AngleLiteral.parsed.__set__
_set_form, _set_position = AngleLiteral.form.__set__, ExpressionNode.position.__set__
_set_number, _set_quantity = NumberLiteral.value.__set__, QuantityLiteral.value.__set__
_set_reference, _set_unit_text = QuantityLiteral.reference.__set__, QuantityLiteral.unit_text.__set__
_set_identifier, _set_function = Identifier.name.__set__, FunctionApplication.name.__set__
_set_argument, _set_operator = FunctionApplication.argument.__set__, BinaryOperation.operator.__set__
_set_left, _set_right = BinaryOperation.left.__set__, BinaryOperation.right.__set__
_get_digits, _keep_digits, _new = _Pending._digits.__get__, _Pending._digits.__set__, object.__new__
NumberLiteral.__getattr__ = QuantityLiteral.__getattr__ = _value_from_digits  # only here: it slows each read


class _Hashed:
    """Stands in for a subtree in a tuple: hashes as the subtree does."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _postorder(root: ExpressionNode) -> list:
    """root and its subtrees, each node after its children, last child first.

    A child is any field that holds an `ExpressionNode`, the test that
    ==, hash, repr and pickling share.
    """
    preorder, stack = [], [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack += [v for v in node._values(node)[::-1] if isinstance(v, ExpressionNode)]
    return preorder[::-1]


def _build_tree(postfix: list) -> ExpressionNode:
    """The tree that `ExpressionNode.__reduce__` flattened into postfix."""
    built, items = [], iter(postfix)
    for cls in items:
        mask = next(items)
        values = [built.pop() if mask >> i & 1 else next(items) for i in range(len(cls._fields))]
        built.append(cls(*values))
    return built[0]


def walk(node: ExpressionNode):
    """Yield node and every descendant, preorder.

    An explicit stack keeps the cost linear in the node count and the
    depth unbounded: sums and products parse left-deep, so a long line
    is a deep tree.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinaryOperation):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, FunctionApplication):
            stack.append(node.argument)


# A token is a tuple (kind, text, position, value).  kind is the
# operator itself for + * / = ( ), else NUMBER, WORD, UNIT or END;
# value is the ExactScalar of a NUMBER the scanner read, else None.

# Plain decimals of at most 15 digits and words other than pi, as _FLAT_RE reads them.
_PLAIN = r"(?=[0-9.]{1,16}(?![0-9.]))[0-9]{1,15}(?:\.[0-9]{1,14})?(?![0-9.eEp])(?!π)"
_NAME = rf"(?!{_PI})[A-Za-z_][A-Za-z0-9_]*"
# Where a word ends: at π, or at pi before no letter, "_" or numeral.  A number's _PI also takes pi
# before a numeral that is no letter (², ½): parse_expression then skips the word "pi" read here,
# and refuses the numeral.
_WORD_PI = r"(?:π|pi(?![^\W\d]))"
# One findall reads a line.  Group 1: spaces, or a token and the spaces after it: a plain decimal
# (no \d goes on), a word, * / = ( ), a unit symbol (a class of its own compiles faster) or "+"
# before a space.  Group 2: any other number, as _scan_number reads it.  Neither: one character.
_LINE_RE = _Deferred(globals(), "_LINE_RE", rf"(\s+|(?:{_PLAIN}(?!\d)|(?!{_WORD_PI})[A-Za-z_][A-Za-z0-9_]*|[*/=()]"
                     rf"|[°′″]|\+(?=\s))\s*)|({_DECIMAL}{_WORD_PI}?|{_WORD_PI})|.")
# Operands (a _PLAIN with an optional unit, a _NAME, or a call of such operands joined by + * /), each
# before + * / = and another, or the end.  An operand ends in one place only, so the possessive "++"
# of Python 3.11 matches the same texts and keeps no backtracking state: a 100,000-term line needs a
# few kB, not 79 MB.
_ONCE = "+" * (sys.version_info >= (3, 11))
_OPERAND = rf"\s*(?:{_PLAIN}(?:\s*(?:{'|'.join(sorted(_ALIASES, key=len, reverse=True))}))?|{_NAME})\s*"
_CALL = rf"\s*(?:{'|'.join(sorted(FUNCTION_NAMES))})\s*\((?:{_OPERAND}(?:[+*/](?=\s*[^\s)])|(?=\))))+{_ONCE}\)\s*"
_FLAT_RE = _Deferred(globals(), "_FLAT_RE", rf"(?:(?:{_OPERAND}|{_CALL})(?:[+*/=](?=\s*\S)|\Z))+{_ONCE}")
_KINDS = dict.fromkeys(_UNIT_SYMBOLS, "UNIT") | {  # a part's kind by its first character; None for spaces
    c: "NUMBER" if c.isdigit() else "WORD" if c.isidentifier() else c for c in map(chr, range(33, 127))}


def _parse_tokens(tokens: list[tuple]) -> ExpressionNode:
    """The tree of one token list: precedence climbing in one loop.

    Each open group is a frame on an explicit list: the call word that
    opened it, if any, and the enclosing sum and product, each with its
    operator's position.  An operand folds into the product, "+" closes
    the product into the sum, a top-level "=" closes the sum into the left
    side, and ")" or END closes the frame; "=" inside a group is refused.
    """
    frames: list[tuple] = []
    left = total = product = op = None
    i = eq_at = plus_at = op_at = 0
    while True:
        kind, text, position, value = tokens[i]  # an operand, or an opener
        i += 1
        if kind == "NUMBER":
            unit_kind, unit_text, _, _ = tokens[i]
            if unit_kind == "UNIT" or (unit_kind == "WORD" and unit_text in _ALIASES):
                i += 1
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
        elif kind == "WORD" and tokens[i][0] != "(":
            node = _new(Identifier)
            _set_position(node, position)
            _set_identifier(node, text)
        elif kind == "WORD" or kind == "(":
            if kind == "WORD":
                if text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function '{text}'", position)
                i += 1
            frames.append((kind, text, position, total, plus_at, product, op, op_at))
            if len(frames) > _MAX_NESTING:  # reported at the opener: the word of a call
                raise ParseError("expression nests too deeply", position)
            total = op = None
            continue
        elif kind == "UNIT":
            raise ParseError("unit symbol needs a number before it", position)
        else:
            raise ParseError("expected a value", position)
        while True:  # node is a whole factor: fold it, then read the operator after it
            if op is not None:
                folded = _new(BinaryOperation)
                _set_position(folded, op_at)
                _set_operator(folded, op)
                _set_left(folded, product)
                _set_right(folded, node)
                node = folded
            kind, _, position, _ = tokens[i]
            i += 1
            if kind == "*" or kind == "/":
                product, op, op_at = node, kind, position
                break
            op = None
            if total is not None:
                folded = _new(BinaryOperation)
                _set_position(folded, plus_at)
                _set_operator(folded, "+")
                _set_left(folded, total)
                _set_right(folded, node)
                node = folded
            if kind == "+":
                total, plus_at = node, position
                break
            total = None
            if kind == "=":
                if frames:
                    raise ParseError("'=' is allowed only at the top level", position)
                if left is not None:
                    raise ParseError("chained '=' is not allowed", position)
                left, eq_at = node, position
                break
            if kind == "END" and not frames:
                return node if left is None else BinaryOperation(eq_at, "=", left, node)
            if kind != ")" or not frames:
                raise ParseError("expected ')'" if frames else "unexpected trailing text", position)
            opener, name, at, total, plus_at, product, op, op_at = frames.pop()
            if opener == "WORD":
                node = FunctionApplication(at, name, node)


def parse_expression(text: str, offset: int = 0) -> ExpressionNode:
    """Parse one expression; positions are absolute (offset + local).

    "=" is allowed only at the top level, once: "(a = 2)" is a ParseError.

    _scan_number reads every number but a plain decimal, so its errors
    and positions are the literal reader's.
    """
    tokens, position, kind_of = [], offset, _KINDS.get
    parts = iter(_LINE_RE.findall(text))
    for part, number in parts:
        if part:
            kind = kind_of(part[0])
            if kind is not None:
                tokens.append((kind, part.rstrip(), position, None))
            position += len(part)
            continue
        i = position - offset
        if not number:  # a caught character: a sign, the operator "+", or an error
            ch = text[i]
            j = i + (ch in "+-")  # where a number would start: at a digit, or at π as a number reads it
            opens = text[j:j + 1].isdigit() or _match_number(text, j, allow_slash=False).start(3) == j
            if not opens or (j > i and tokens and tokens[-1][0] not in "+*/=("):
                if ch != "+":
                    raise ParseError(f"unexpected character {ch!r}", position)
                tokens.append(("+", ch, position, None))
                position += 1
                continue
        try:
            value, _, end = _scan_number(text, i, allow_slash=False)
        except ParseError as exc:
            exc.position += offset  # _scan_number counts from the start of text
            raise
        tokens.append(("NUMBER", text[i:end], position, value))
        position += len(number) or 1
        while position < offset + end:  # past a sign: the digits, and a "pi" read as a word
            part, number = next(parts)
            position += len(part or number) or 1
    if not tokens:
        raise ParseError("empty expression", offset)
    tokens.append(("END", "", position, None))
    return _parse_tokens(tokens)


def _is_flat(text: str) -> bool:
    """Whether one match finds text to be operands joined by + * / and at most one "=", which parse.

    An operand is a plain decimal with an optional unit, a name, or a call of
    such operands joined by + * /: no group nests, and no "=" is inside a call.
    """
    return text.count("=") < 2 and _FLAT_RE.fullmatch(text) is not None
