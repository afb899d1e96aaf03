"""Text input and output for angles, plus a small expression language.

Accepted angle literals (leading/trailing whitespace allowed):

    number    := decimal | fraction | pi-form
    decimal   := digits ["." digits] [("e"|"E") [sign] digits]
    fraction  := [sign] integer "/" posint
    pi-form   := [sign] [coefficient] ("π"|"pi") ["/" posint]
               | [sign] integer "/" "(" [posint] ("π"|"pi") ")"
               | [sign] integer "/" ("π"|"pi")
    angle     := number unit | dms
    dms       := [sign] digits ("°"|"d") [digits ("′"|"m") [decimal ("″"|"s")]]

Units answer to their symbol or name: rad/radian, °/deg/degree, gon,
turn, ′/arcmin/arcminute, ″/arcsec/arcsecond.

Decimal literals with at most 15 significant digits (trailing fractional
zeros ignored) become exact rationals; longer ones become flagged
inexact floats.  Formatting an exact value and parsing the result always
recovers the identical value.

The expression language used by the linter shares the number syntax but
treats "/" strictly as an operator; it adds identifiers, "+", "*", "=",
parentheses, function application (sin, cos, tan, arcsin, arccos, exp),
and quantities (a number immediately followed by a unit).
"""

from __future__ import annotations

import math
import re

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

_DECIMAL_RE = re.compile(r"\d+(?:\.(\d+))?(?:[eE][+-]?\d+)?")
# digits[.digits] that nothing after it extends; exact when it has at
# most 15 digits, so it skips the general scan.
_PLAIN_DECIMAL_RE = re.compile(r"(\d{1,15})(?:\.(\d{1,14}))?(?![\d.eEpπ/])")
_DIGITS_RE = re.compile(r"\d+")

_DMS_RE = re.compile(
    r"\s*(?P<sign>[+-])?(?P<deg>\d+)(?:°|d)"
    r"(?:(?P<min>\d+)(?:′|m)"
    r"(?:(?P<sec>\d+(?:\.\d+)?)(?:″|s))?"
    r")?\s*\Z"
)

_UNIT_SYMBOLS = tuple(token for token in _ALIASES if not token.isalpha())  # °′″


class AngleLiteral(Record):
    """A parsed angle: the raw text, its value, and the form it used."""

    __slots__ = ("raw", "parsed", "form")

    def __init__(self, raw: str, parsed: AngleValue, form: str):
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "parsed", parsed)
        object.__setattr__(self, "form", form)


# ----------------------------------------------------------------------
# number scanning (shared by angle literals and the expression lexer)


def _skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _match_pi(text: str, i: int) -> int | None:
    """End offset of a π token at i, or None."""
    if text.startswith("π", i):
        return i + 1
    if text.startswith("pi", i):
        end = i + 2
        if end < len(text) and (text[end].isalpha() or text[end] == "_"):
            return None
        return end
    return None


def _digits_to_int(digits: str, position: int) -> int:
    """int(digits), with a digit run past int's conversion limit rejected."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer has too many digits", position) from None


def _decimal_ratio(text: str, position: int) -> tuple[int, int] | float:
    """A decimal literal as an exact (numerator, denominator), or a float.

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
    return approx


def _scan_number(
    text: str, i: int, allow_slash: bool = True
) -> tuple[ExactScalar, bool, int]:
    """Scan one number at offset i.

    Returns (value, saw_pi, end).  With allow_slash false the "/" forms
    are left untouched for an enclosing expression parser.
    """
    m = _PLAIN_DECIMAL_RE.match(text, i)
    if m is not None:
        whole, frac = m.groups("")
        if len(whole) + len(frac) <= _EXACT_DIGIT_LIMIT:
            return ExactScalar(int(whole + frac), 10 ** len(frac)), False, m.end()
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
            error = overflow_error(denominator, 1)  # past 64 bits on its own
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
            # n/π
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
                # n/dπ reads as (n/d)·π
                return _exact_or_error(numerator, denominator, 1, start), True, pi_end
            return _exact_or_error(numerator, denominator, 0, start), False, j
        raise ParseError("expected a denominator", after)
    value = _decimal_ratio(coefficient_text, start)
    if isinstance(value, float):
        return ExactScalar.inexact(sign * value), False, i
    return ExactScalar(sign * value[0], value[1]), False, i


def _scan_posint(text: str, i: int) -> tuple[int, int]:
    m = _DIGITS_RE.match(text, i)
    if m is None:
        raise ParseError("expected a positive integer", i)
    value = _digits_to_int(m.group(), i)
    if value == 0:
        raise ParseError("denominator must be positive", i)
    return value, m.end()


def _exact_or_error(
    numerator: int, denominator: int, exponent: int, position: int
) -> ExactScalar:
    if denominator == 0:
        raise ParseError("denominator must be positive", position)
    try:
        return ExactScalar(numerator, denominator, exponent)
    except ExactOverflowError as exc:
        raise ParseError(str(exc), position) from None


# ----------------------------------------------------------------------
# angle literals


def parse_number(text: str) -> ExactScalar:
    """Parse a bare number (no unit)."""
    i = _skip_space(text, 0)
    if i == len(text):
        raise ParseError("empty input", i)
    value, _, i = _scan_number(text, i)
    i = _skip_space(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing text", i)
    return value


def parse_angle(text: str) -> AngleLiteral:
    """Parse an angle literal: a number with a unit, or a sexagesimal form."""
    m = _DMS_RE.match(text)
    if m is not None:
        return AngleLiteral(text, _dms_value(m), "dms")
    i = _skip_space(text, 0)
    if i == len(text):
        raise ParseError("empty input", i)
    value, saw_pi, i = _scan_number(text, i)
    i = _skip_space(text, i)
    reference, i = _scan_unit(text, i)
    i = _skip_space(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing text", i)
    form = "symbolic_pi" if saw_pi else "decimal"
    return AngleLiteral(text, AngleValue(value, reference), form)


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
    degrees = _digits_to_int(m.group("deg"), m.start("deg"))
    minutes = _digits_to_int(m.group("min") or "0", m.start("min"))
    seconds_text = m.group("sec")
    seconds = _decimal_ratio(seconds_text, m.start("sec")) if seconds_text else (0, 1)
    if not isinstance(seconds, float):
        sn, sd = seconds
        try:
            value = ExactScalar(sign * ((degrees * 60 + minutes) * 60 * sd + sn), 3600 * sd)
            return AngleValue(value, DEGREE)
        except ExactOverflowError:
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


class ExpressionNode(Record):
    """A node of an expression tree.

    Sums and products parse left-deep, so a long line is a deep tree.
    ==, hash, repr and pickling therefore walk the tree with an explicit
    stack, and give what `Record`'s field-by-field recursion would.
    """

    __slots__ = ("position",)

    def __init__(self, position: int):
        object.__setattr__(self, "position", position)

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
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "value", value)


class QuantityLiteral(ExpressionNode):
    __slots__ = ("value", "reference", "unit_text")

    def __init__(self, position: int, value: ExactScalar, reference: ReferenceAngle, unit_text: str):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "unit_text", unit_text)


class Identifier(ExpressionNode):
    __slots__ = ("name",)

    def __init__(self, position: int, name: str):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "name", name)


class FunctionApplication(ExpressionNode):
    __slots__ = ("name", "argument")

    def __init__(self, position: int, name: str, argument: ExpressionNode):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "argument", argument)


class BinaryOperation(ExpressionNode):
    __slots__ = ("operator", "left", "right")

    def __init__(self, position: int, operator: str, left: ExpressionNode, right: ExpressionNode):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "operator", operator)  # one of + * / =
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


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
# value is the ExactScalar of a NUMBER and None otherwise.


_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _lex(text: str, offset: int) -> list[tuple]:
    tokens: list[tuple] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        position = offset + i
        if ch in "+-":
            nxt = i + 1
            sign_opens_number = (
                nxt < len(text)
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
    tokens.append(("END", "", offset + len(text), None))
    return tokens


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
                return QuantityLiteral(position, value, _ALIASES[unit_text], unit_text)
            return NumberLiteral(position, value)
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
        node = self.equality()
        kind, _, closing, _ = self.tokens[self.index]
        if kind != ")":
            raise ParseError("expected ')'", closing)
        self.index += 1
        self.depth -= 1
        return node


def parse_expression(text: str, offset: int = 0) -> ExpressionNode:
    """Parse one expression; positions are absolute (offset + local)."""
    tokens = _lex(text, offset)
    if tokens[0][0] == "END":
        raise ParseError("empty expression", offset)
    return _ExpressionParser(tokens).parse()
