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
    _Deferred,
    _is_flat,
    parse_expression,
    walk,
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

_STATEMENT_RE = _Deferred(globals(), "_STATEMENT_RE",
                          r"^\s*(?P<kw>angle|length)\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:=\s*(?P<expr>.*))?$")


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
    target = right = full = None
    try:
        m = _STATEMENT_RE.match(line)
        if m is not None:
            declared[m.group("name")] = m.group("kw")
            expr_text = m.group("expr")
            if expr_text is not None:
                offset = m.start("expr")
                if not expr_text.strip():
                    raise ParseError("missing right-hand side", offset)
                if m.group("kw") == "length" and _is_flat(expr_text):
                    return []  # no rule reads a length's value without a call ("(" fails the match)
                right = full = parse_expression(expr_text, offset)
                target = m.group("name")
        elif declared.get(line.partition("=")[0].strip()) != "angle" and _is_flat(line):
            return []  # nor a line with no call and no declared angle before its "="
        else:
            full = parse_expression(line)
            if (
                isinstance(full, BinaryOperation)
                and full.operator == "="
                and isinstance(full.left, Identifier)
            ):
                target = full.left.name
                right = full.right
    except ParseError as exc:
        return [
            LintFinding(None, line_number, exc.position + 1, exc.message, excerpt)
        ]
    found: list[LintFinding] = []
    if full is not None and "(" in line:  # a FunctionApplication is a word and a "("
        found.extend(_check_trig_arguments(full, line_number, excerpt))
    if target is not None and declared.get(target) == "angle" and right is not None:
        found.extend(_check_bare_number(right, line_number, excerpt))
        found.extend(_check_length_quotient(right, line_number, excerpt, declared))
    found.sort(key=lambda finding: finding.column)
    return found


def _check_trig_arguments(
    node: ExpressionNode, line_number: int, excerpt: str
) -> list[LintFinding]:
    """One finding per unit-bearing quantity inside a trig argument,
    blamed on the innermost trig function around it."""
    found = []
    stack = [(node, None)]  # each node with its innermost enclosing trig function
    while stack:
        sub, trig = stack.pop()
        if isinstance(sub, BinaryOperation):
            stack += ((sub.right, trig), (sub.left, trig))
        elif isinstance(sub, FunctionApplication):
            stack.append((sub.argument, sub.name if sub.name in TRIG_FUNCTIONS else trig))
        elif isinstance(sub, QuantityLiteral) and trig is not None:
            found.append(
                LintFinding(
                    RULE_RAD_IN_TRIG_ARG,
                    line_number,
                    sub.position + 1,
                    f"argument of {trig}() carries the unit "
                    f"'{sub.unit_text}'; pass the dimensionless measure",
                    excerpt,
                )
            )
    return found


def _check_bare_number(
    right: ExpressionNode, line_number: int, excerpt: str
) -> list[LintFinding]:
    for sub in walk(right):
        if isinstance(sub, NumberLiteral):
            continue
        if isinstance(sub, BinaryOperation) and sub.operator in ("+", "*", "/"):
            continue
        return []
    return [
        LintFinding(
            RULE_MISSING_REFERENCE_SYMBOL,
            line_number,
            right.position + 1,
            "angle assignment from bare numbers; attach a reference symbol "
            "such as rad or °",
            excerpt,
        )
    ]


def _check_length_quotient(
    right: ExpressionNode,
    line_number: int,
    excerpt: str,
    declared: dict[str, str],
) -> list[LintFinding]:
    if not (isinstance(right, BinaryOperation) and right.operator == "/"):
        return []
    left, divisor = right.left, right.right
    if not (isinstance(left, Identifier) and isinstance(divisor, Identifier)):
        return []
    if declared.get(left.name) != "length" or declared.get(divisor.name) != "length":
        return []
    return [
        LintFinding(
            RULE_MAGNITUDE_AS_QUOTIENT,
            line_number,
            right.position + 1,
            f"'{left.name}/{divisor.name}' is a ratio of lengths, which is a "
            "dimensionless measure, not an angle value",
            excerpt,
        )
    ]
