"""Notation linter for the little angle expression language.

Statements, one per line:

    angle <name> [= expression]
    length <name> [= expression]
    expression

Three closed rules:

    RAD-IN-TRIG-ARG          a trig function is applied to a quantity
                             carrying a unit symbol instead of a measure
    MISSING-REFERENCE-SYMBOL an angle-typed name is assigned bare numbers
    MAGNITUDE-AS-QUOTIENT    an angle-typed name is assigned a quotient
                             of two length-typed names

Lines that fail to parse produce a finding with rule None instead of an
exception; the linter never raises on input text.
"""

from __future__ import annotations

from .errors import ParseError
from .exact import Record
from .textio import (
    BinaryOperation,
    ExpressionNode,
    FunctionApplication,
    Identifier,
    NumberLiteral,
    QuantityLiteral,
    _NAME,
    _WORD_PI,
    _Deferred,
    _is_flat,
    parse_expression,
)
from .trig import FORWARD_KINDS, INVERSE_KINDS

__all__ = [
    "RULE_RAD_IN_TRIG_ARG",
    "RULE_MISSING_REFERENCE_SYMBOL",
    "RULE_MAGNITUDE_AS_QUOTIENT",
    "ALL_RULES",
    "TRIG_FUNCTIONS",
    "LintFinding",
    "lint_text",
]

RULE_RAD_IN_TRIG_ARG = "RAD-IN-TRIG-ARG"
RULE_MISSING_REFERENCE_SYMBOL = "MISSING-REFERENCE-SYMBOL"
RULE_MAGNITUDE_AS_QUOTIENT = "MAGNITUDE-AS-QUOTIENT"

ALL_RULES = (
    RULE_RAD_IN_TRIG_ARG,
    RULE_MISSING_REFERENCE_SYMBOL,
    RULE_MAGNITUDE_AS_QUOTIENT,
)

TRIG_FUNCTIONS = frozenset(FORWARD_KINDS + INVERSE_KINDS)

# A declared name is one the expressions read as a name; group pi takes a word they read as starting with π.
_STATEMENT_RE = _Deferred(globals(), "_STATEMENT_RE", rf"^\s*(?P<kw>angle|length)\s+(?:(?P<name>{_NAME})"
                          rf"|(?P<pi>{_WORD_PI}\w*))\s*(?:=\s*(?P<expr>.*))?$")
# In a flat side with no call, any other character is a name's, a unit's or an "=" at the root: the side is not bare.
_NAME_OR_UNIT_RE = _Deferred(globals(), "_NAME_OR_UNIT_RE", r"[^0-9.+*/\s]")
# In a flat line, a call opening at its function's name, a call closing, or a quantity: its number and unit.
_CALL_PART_RE = _Deferred(globals(), "_CALL_PART_RE", r"([a-z]+)\s*\(|\)|(?<!\w)(\d[\d.]*)\s*([a-z]+|°|′|″)")


class LintFinding(Record):
    """One diagnostic: rule id (None for syntax), 1-based line/column."""

    __slots__ = ("rule", "line", "column", "message", "excerpt")

    def __init__(self, rule: str | None, line: int, column: int, message: str, excerpt: str):
        _set_rule(self, rule)
        _set_line(self, line)
        _set_column(self, column)
        _set_message(self, message)
        _set_excerpt(self, excerpt)


_set_rule, _set_line = LintFinding.rule.__set__, LintFinding.line.__set__
_set_column, _set_message = LintFinding.column.__set__, LintFinding.message.__set__
_set_excerpt = LintFinding.excerpt.__set__


def lint_text(text: str) -> list[LintFinding]:
    r"""Lint a whole program; findings come back ordered by position.

    Only "\n", "\r\n" and "\r" end a line; other separators that
    str.splitlines honours (form feed, "\u2028"...) stay whitespace.
    """
    declared: dict[str, str] = {}
    findings: list[LintFinding] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        findings.extend(_lint_line(line, line_number, declared))
    return findings


def _lint_line(line: str, line_number: int, declared: dict[str, str]) -> list[LintFinding]:
    excerpt = line.strip()
    m = _STATEMENT_RE.match(line)
    try:
        if m is None:
            text, offset, target = line, 0, line.partition("=")[0].strip()
        else:
            text, offset, target = m.group("expr"), m.start("expr"), m.group("name")
            if target is None:  # a word the expressions read as π
                message = f"{m.group('pi')!r} cannot be declared: π, and 'pi' before a non-letter, read as the number π"
                raise ParseError(message, m.start("pi"))
            declared[target] = m.group("kw")
            if text is None:
                return []
            if not text.strip():
                raise ParseError("missing right-hand side", offset)
        # Two routes give the side's facts: its trig findings, whether it is bare, its name / name pair and its root.
        if _is_flat(text):  # operands, and calls of operands: no group nests, and the text gives the facts
            found, bare, left, right, column = [], False, "", "", 0
            if "(" in text:  # a side with a call is neither bare nor a quotient
                trig = None
                for part in _CALL_PART_RE.finditer(line, offset):
                    name, number, unit = part.groups()
                    if number is None:  # a call opens or closes
                        trig = name if name in TRIG_FUNCTIONS else None
                    elif trig is not None:
                        found.append(_trig_finding(trig, unit, line_number, part.start(2) + 1, excerpt))
            elif declared.get(target) == "angle":  # no other target's assignment facts are read
                if m is None:
                    offset = line.find("=") + 1  # 0 for a lone name, which is neither bare nor a quotient
                side = line[offset:]
                # The side's root: its last "+", else its last "*" or "/", else its operand, which starts first.
                at = side.rfind("+")
                at = at if at >= 0 else max(side.rfind("*"), side.rfind("/"), len(side) - len(side.lstrip()))
                left, _, right = side.partition("/")
                left, right = left.strip(), right.strip()
                bare = _NAME_OR_UNIT_RE.search(side) is None
                column = offset + at + 1
        else:
            side = parse_expression(text, offset)
            if m is None:
                if isinstance(side, BinaryOperation) and side.operator == "=" and isinstance(side.left, Identifier):
                    target, side = side.left.name, side.right  # a lone name holds no trig call
                else:
                    target = None
            found, bare, left, right, column = _rule_walk(side, line_number, excerpt)
    except ParseError as exc:
        return [LintFinding(None, line_number, exc.position + 1, exc.message, excerpt)]
    # The one decision of both assignment rules.  A bare side or a quotient of names holds no call,
    # so an assignment finding comes with no trig finding.
    if declared.get(target) != "angle":
        return found
    if bare:
        message = "angle assignment from bare numbers; attach a reference symbol such as rad or °"
        return [LintFinding(RULE_MISSING_REFERENCE_SYMBOL, line_number, column, message, excerpt)]
    if declared.get(left) == declared.get(right) == "length":
        message = f"'{left}/{right}' is a ratio of lengths, which is a dimensionless measure, not an angle value"
        return [LintFinding(RULE_MAGNITUDE_AS_QUOTIENT, line_number, column, message, excerpt)]
    return found


def _rule_walk(side: ExpressionNode, line_number: int, excerpt: str) -> tuple[list, bool, str, str, int]:
    """The facts of a line's expression tree that _lint_line decides on, in one preorder walk.

    Preorder meets quantities in text order, so the trig findings come
    out by column.
    """
    found = []
    bare = True  # every node so far a number, or + * / of two
    stack = [(side, None)]  # each node with its innermost enclosing trig function
    while stack:
        node, trig = stack.pop()
        if isinstance(node, BinaryOperation):
            stack += ((node.right, trig), (node.left, trig))
            bare = bare and node.operator != "="
        elif isinstance(node, FunctionApplication):
            stack.append((node.argument, node.name if node.name in TRIG_FUNCTIONS else trig))
            bare = False
        elif not isinstance(node, NumberLiteral):
            bare = False
            if trig is not None and isinstance(node, QuantityLiteral):
                found.append(_trig_finding(trig, node.unit_text, line_number, node.position + 1, excerpt))
    left = right = ""
    if isinstance(side, BinaryOperation) and side.operator == "/":
        left, right = (node.name if isinstance(node, Identifier) else "" for node in (side.left, side.right))
    return found, bare, left, right, side.position + 1


def _trig_finding(trig: str, unit_text: str, line_number: int, column: int, excerpt: str) -> LintFinding:
    """The finding of a quantity in unit_text, at column, inside a call of the trig function trig."""
    message = f"argument of {trig}() carries the unit '{unit_text}'; pass the dimensionless measure"
    return LintFinding(RULE_RAD_IN_TRIG_ARG, line_number, column, message, excerpt)
