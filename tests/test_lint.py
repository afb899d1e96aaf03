"""Linter rules, declaration tracking, positions, and totality."""

import hashlib
import random
import re
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import lint, textio
from anglekit.angles import _ALIASES
from anglekit.errors import ParseError
from anglekit.lint import (
    RULE_MAGNITUDE_AS_QUOTIENT,
    RULE_MISSING_REFERENCE_SYMBOL,
    RULE_RAD_IN_TRIG_ARG,
    LintFinding,
    lint_text,
)
from anglekit.textio import (
    BinaryOperation,
    FunctionApplication,
    Identifier,
    NumberLiteral,
    QuantityLiteral,
    parse_expression,
    walk,
)
from anglekit.trig import FORWARD_KINDS, INVERSE_KINDS


def rules_of(text):
    return [(f.rule, f.line) for f in lint_text(text)]


class TestTrigArgumentRule:
    def test_sin_of_radian_quantity(self):
        findings = lint_text("x = sin(0.5 rad)")
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == RULE_RAD_IN_TRIG_ARG
        assert (f.line, f.column) == (1, 9)
        assert "rad" in f.message
        assert f.excerpt == "x = sin(0.5 rad)"

    def test_degree_symbol_quantity(self):
        assert rules_of("y = cos(90°)") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    def test_quantity_nested_deeper_in_the_argument(self):
        assert rules_of("v = sin(2 * 0.5 rad)") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    def test_inverse_trig_counts(self):
        assert rules_of("w = arcsin(1 rad)") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    @pytest.mark.parametrize("name", FORWARD_KINDS + INVERSE_KINDS)
    def test_every_trig_function_is_checked(self, name):
        assert rules_of(f"x = {name}(1 rad)") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    @pytest.mark.parametrize("spelling", sorted(_ALIASES))
    def test_every_unit_spelling_is_a_quantity(self, spelling):
        assert rules_of(f"x = sin(1 {spelling})") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    def test_plain_number_argument_is_fine(self):
        assert rules_of("x = sin(0.5)") == []

    def test_pi_argument_is_fine(self):
        assert rules_of("y = cos(pi)") == []

    def test_exp_is_not_a_trig_function(self):
        assert rules_of("x = exp(1 rad)") == []

    def test_nested_trig_reports_the_quantity_once_under_the_innermost_call(self):
        findings = lint_text("sin(cos(1 rad))")
        assert [(f.column, f.message.split("(")[0]) for f in findings] == [
            (9, "argument of cos")
        ]

    def test_non_trig_call_inside_trig_blames_the_trig_call(self):
        findings = lint_text("sin(exp(1 rad))")
        assert [(f.column, f.message.split("(")[0]) for f in findings] == [
            (9, "argument of sin")
        ]

    def test_each_quantity_under_its_own_trig_call(self):
        findings = lint_text("x = tan(1 rad + cos(2 °))")
        assert [(f.column, f.message.split("(")[0]) for f in findings] == [
            (9, "argument of tan"),
            (21, "argument of cos"),
        ]

    def test_bare_trig_call_without_assignment(self):
        assert rules_of("sin(1 turn)") == [(RULE_RAD_IN_TRIG_ARG, 1)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("y = sin (30 deg)", [(10, "sin", "deg")]),
            ("y = 2 * cos((1 rad)) + tan(a)", [(14, "cos", "rad")]),
            ("y = sin(exp(2 deg))", [(13, "sin", "deg")]),
        ],
    )
    def test_column_and_message_of_calls_spaced_grouped_and_nested(self, text, expected):
        findings = lint_text(text)
        assert [(f.rule, f.line, f.column, f.message) for f in findings] == [
            (
                RULE_RAD_IN_TRIG_ARG,
                1,
                column,
                f"argument of {trig}() carries the unit '{unit}'; pass the dimensionless measure",
            )
            for column, trig, unit in expected
        ]


_CORPUS_NAMES = ("a", "b", "s", "r", "x", "y")
_CORPUS_UNITS = ("rad", "deg", "°", "′", "″", "gon", "turn", "arcmin")
_CORPUS_FUNCTIONS = ("sin", "cos", "tan", "arcsin", "arccos", "exp")


def _corpus_expression(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        leaf = rng.random()
        if leaf < 0.3:
            return rng.choice(("2", "0.5", "pi", "3π/4", "12"))
        if leaf < 0.6:
            unit = rng.choice(_CORPUS_UNITS)
            return f"{rng.randint(1, 90)}{'' if unit in '°′″' else ' '}{unit}"
        return rng.choice(_CORPUS_NAMES)
    if roll < 0.6:
        space = " " if rng.random() < 0.2 else ""
        return f"{rng.choice(_CORPUS_FUNCTIONS)}{space}({_corpus_expression(rng, depth + 1)})"
    if roll < 0.7:
        return f"({_corpus_expression(rng, depth + 1)})"
    operator = rng.choice(("+", "*", "/"))
    return f"{_corpus_expression(rng, depth + 1)} {operator} {_corpus_expression(rng, depth + 1)}"


def _corpus_line(rng):
    roll = rng.random()
    if roll < 0.1:
        return f"{rng.choice(('angle', 'length'))} {rng.choice(_CORPUS_NAMES)}"
    if roll < 0.35:
        return f"angle {rng.choice(_CORPUS_NAMES)} = {_corpus_expression(rng)}"
    if roll < 0.45:
        return rng.choice(("sin(", "x = ", ")", "sin x", "y = tan(1 rad", "", "junk ( junk"))
    if roll < 0.55:
        return _corpus_expression(rng)
    return f"{rng.choice(_CORPUS_NAMES)} = {_corpus_expression(rng)}"


# ----------------------------------------------------------------------
# the one rule walk against the three rule functions it replaced

# The flat pattern as it was before calls of flat operands were flat: the reference
# parses every line with a "(", so it keeps every trig finding without a walk of its own.
_FLAT_WITHOUT_CALLS = re.compile(
    rf"(?:{textio._OPERAND}(?:[+*/=](?=\s*\S)|\Z))+" + "+" * (sys.version_info >= (3, 11)))


def _is_flat(text):
    return text.count("=") < 2 and _FLAT_WITHOUT_CALLS.fullmatch(text) is not None


# _lint_line and its three rule functions as they were before one walk
# decided all three rules, kept as the reference.
def _reference_lint_line(line, line_number, declared):
    excerpt = line.strip()
    target = right = full = None
    try:
        m = lint._STATEMENT_RE.match(line)
        if m is not None and m.group("pi") is not None:  # a word the expressions read as π declares nothing
            message = f"{m.group('pi')!r} cannot be declared: π, and 'pi' before a non-letter, read as the number π"
            raise ParseError(message, m.start("pi"))
        if m is not None:
            declared[m.group("name")] = m.group("kw")
            expr_text = m.group("expr")
            if expr_text is not None:
                offset = m.start("expr")
                if not expr_text.strip():
                    raise ParseError("missing right-hand side", offset)
                if m.group("kw") == "length" and _is_flat(expr_text):
                    return []
                right = full = parse_expression(expr_text, offset)
                target = m.group("name")
        elif declared.get(line.partition("=")[0].strip()) != "angle" and _is_flat(line):
            return []
        else:
            full = parse_expression(line)
            if isinstance(full, BinaryOperation) and full.operator == "=" and isinstance(full.left, Identifier):
                target = full.left.name
                right = full.right
    except ParseError as exc:
        return [LintFinding(None, line_number, exc.position + 1, exc.message, excerpt)]
    found = []
    if full is not None and "(" in line:
        found.extend(_check_trig_arguments(full, line_number, excerpt))
    if target is not None and declared.get(target) == "angle" and right is not None:
        found.extend(_check_bare_number(right, line_number, excerpt))
        found.extend(_check_length_quotient(right, line_number, excerpt, declared))
    found.sort(key=lambda finding: finding.column)
    return found


def _check_trig_arguments(node, line_number, excerpt):
    found = []
    stack = [(node, None)]
    while stack:
        sub, trig = stack.pop()
        if isinstance(sub, BinaryOperation):
            stack += ((sub.right, trig), (sub.left, trig))
        elif isinstance(sub, FunctionApplication):
            stack.append((sub.argument, sub.name if sub.name in lint.TRIG_FUNCTIONS else trig))
        elif isinstance(sub, QuantityLiteral) and trig is not None:
            message = f"argument of {trig}() carries the unit '{sub.unit_text}'; pass the dimensionless measure"
            found.append(LintFinding(RULE_RAD_IN_TRIG_ARG, line_number, sub.position + 1, message, excerpt))
    return found


def _check_bare_number(right, line_number, excerpt):
    for sub in walk(right):
        if isinstance(sub, NumberLiteral):
            continue
        if isinstance(sub, BinaryOperation) and sub.operator in ("+", "*", "/"):
            continue
        return []
    message = "angle assignment from bare numbers; attach a reference symbol such as rad or °"
    return [LintFinding(RULE_MISSING_REFERENCE_SYMBOL, line_number, right.position + 1, message, excerpt)]


def _check_length_quotient(right, line_number, excerpt, declared):
    if not (isinstance(right, BinaryOperation) and right.operator == "/"):
        return []
    left, divisor = right.left, right.right
    if not (isinstance(left, Identifier) and isinstance(divisor, Identifier)):
        return []
    if declared.get(left.name) != "length" or declared.get(divisor.name) != "length":
        return []
    message = (
        f"'{left.name}/{divisor.name}' is a ratio of lengths, which is a dimensionless measure, not an angle value"
    )
    return [LintFinding(RULE_MAGNITUDE_AS_QUOTIENT, line_number, right.position + 1, message, excerpt)]


def _reference_lint_text(text):
    declared, findings = {}, []
    for line_number, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        if line.strip():
            findings += _reference_lint_line(line, line_number, declared)
    return findings


def _lint_with_every_trig_walk(text):
    """The reference's findings, with the trig walk run on every line that parses."""
    whole = _reference_lint_text(text)
    expected = []
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        others = [f for f in whole if f.line == line_number and f.rule != RULE_RAD_IN_TRIG_ARG]
        try:
            m = lint._STATEMENT_RE.match(line)
            if m is None:
                full = parse_expression(line)
            elif m.group("expr") is not None and m.group("expr").strip():
                full = parse_expression(m.group("expr"), m.start("expr"))
            else:
                full = None
        except ParseError:
            full = None
        trig = [] if full is None else _check_trig_arguments(full, line_number, line.strip())
        expected += sorted(trig + others, key=lambda finding: finding.column)
    return expected


def _corpus_files():
    rng = random.Random(20261019)
    return [[_corpus_line(rng) for _ in range(20)] for _ in range(150)]


def test_lines_without_a_call_lose_no_trig_finding():
    lines_without_a_call = trig_findings = 0
    for lines in _corpus_files():
        text = "\n".join(lines)
        findings = lint_text(text)
        assert findings == _lint_with_every_trig_walk(text)
        lines_without_a_call += sum(line.strip() != "" and "(" not in line for line in lines)
        trig_findings += sum(f.rule == RULE_RAD_IN_TRIG_ARG for f in findings)
    assert lines_without_a_call > 1000
    assert trig_findings > 300


def _statement_file(rng):
    """Declarations, quantities, bare chains, length quotients, nested trig
    calls, stray characters and unclosed groups, in the shapes of the
    generated statement files that anglebench lints."""
    angles, lengths, lines = ["a0"], ["s0", "s1"], ["angle a0", "length s0", "length s1"]

    def number():
        return rng.choice(("2", "0.5", "12.25", "3π/4", "pi", "1e3", "7"))

    def chain(operands):
        return " ".join(f"{rng.choice(operands)} {rng.choice('+*/')}" for _ in range(rng.randint(0, 6))) + " 9"

    for k in range(40):
        roll, name = rng.random(), f"n{k}"
        if roll < 0.1:
            kind = rng.choice(("angle", "length"))
            (angles if kind == "angle" else lengths).append(name)
            lines.append(f"{kind} {name}")
        elif roll < 0.2:
            angles.append(name)
            lines.append(f"angle {name} = {number()} {rng.choice(('rad', 'deg', 'gon', 'turn'))}")
        elif roll < 0.35:
            head = rng.choice((f"{rng.choice(angles)} = ", f"angle {name} = ", f"length {name} = ", f"y{k} = "))
            lines.append(head + chain([number()] * 3 + ["12°", rng.choice(angles + lengths)]))
        elif roll < 0.5:
            left, right = rng.choice(lengths + angles[:1]), rng.choice(lengths + ["x"])
            body = rng.choice((f"{left} / {right}", f"({left} / {right})", f"{left} / {right} * 2", f"{left}/{right}"))
            lines.append(rng.choice((f"angle {name} = ", f"{rng.choice(angles)} = ", "y = ")) + body)
        elif roll < 0.75:
            calls = []
            for _ in range(rng.randint(1, 3)):
                inner = rng.choice((f"{number()} {rng.choice(('rad', 'deg'))}", f"{number()}°", number(), angles[-1]))
                for _ in range(rng.randint(1, 3)):
                    inner = f"{rng.choice(('sin', 'cos', 'tan', 'arcsin', 'exp'))}({inner} + {number()})"
                calls.append(inner)
            head = rng.choice((f"y{k} = ", f"{rng.choice(angles)} = ", f"angle {name} = ", ""))
            lines.append(head + " + ".join(calls))
        elif roll < 0.85:
            lines.append(f"y{k} = {number()} + {rng.choice('$?#@')} {number()}")
        else:
            lines.append(rng.choice((
                f"y{k} = ({number()} + {number()}", f"{rng.choice(angles)} = sin({number()} rad",
                f"angle {name} = {number()} = {number()}",  # the statement's "=" is not the expression's
            )))
    return "\n".join(lines)


def test_one_walk_agrees_with_the_three_rule_functions():
    texts = ["\n".join(lines) for lines in _corpus_files()]
    rng = random.Random(25)
    texts += [_statement_file(rng) for _ in range(150)]
    rules = set()
    for text in texts:
        findings = lint_text(text)
        assert findings == _reference_lint_text(text), text
        rules.update(f.rule for f in findings)
    assert rules == {None, RULE_RAD_IN_TRIG_ARG, RULE_MISSING_REFERENCE_SYMBOL, RULE_MAGNITUDE_AS_QUOTIENT}


_ANGLES_AND_LENGTHS = "angle a0\nangle pi\nangle pi2\nangle pi_x\nangle rad\nlength s0\nlength s1\nlength s2\n"


@pytest.mark.parametrize(
    "line",
    [
        # targets spelled like π or a unit ("pi" and "pi2" are π to the parser, so no flat match)
        "pi_x = 2 + 3", "rad = 2 * 3", "pi = 2 + 3", "pi2 = 2 + 3",
        "angle pi_x = 1.5", "angle pi = 1.5", "angle pi2 = 4 / 2", "angle rad = rad",
        # a lone name, and sides whose root is their own "="
        "a0", "  pi_x  ", "angle a = b = 3", "angle a = 3 = 4", "angle a = s0 / s1 = 3", "a0 = b = 3",
        # one operand, and the root of * and / chains
        "a0 = 3", "a0 =    12.25", "angle a = 7  ", "a0 = 2 * 3 * 4", "a0 = 8 / 2 / 2", "a0 = 2 * 3 / 4 * 5",
        "a0 = 1 + 2 * 3 + 4 / 5", "a0 = 1 * 2 + 3",
        # quotients of lengths, and near misses
        "a0 = s0/s1", "a0 = s0 / s1 / s2", "a0 = s0 / x", "a0 = s0 / a0", "angle q = s1 / s0", "a0 = s0 * s1",
        "a0 = 2 * s0 / s1", "a0 = s0 / s1 + 0", "a0 = s0 / s1 * 2",
        # units and names in the side
        "a0 = 3 rad", "a0 = 2 * 3 deg", "a0 = 90°", "a0 = x + 1", "a0 = rad",
        # Unicode spaces around operators
        "a0\xa0=\xa01\xa0+\u20282", "a0 = s0\u2028/\xa0s1", "angle a\u2028=\xa012 *\u20283",
        # decimals at the edges of the flat match
        "a0 = 123456789012345", "a0 = 1234567890123456", "a0 = 0.12345678901234", "a0 = 12.", "a0 = .5",
        "a0 = 12. + .5",
    ],
    ids=repr,
)
def test_flat_lines_assigned_to_angles_agree_with_the_reference(line):
    text = _ANGLES_AND_LENGTHS + line
    assert lint_text(text) == _reference_lint_text(text)


@pytest.mark.parametrize(
    "line",
    [
        # glued and spaced units, every unit spelling, and names that hold digits or a unit's letters
        "a0 = sin(3rad)", "a0 = cos(4°)", "y = tan(2 radian + 1 turn)", "y = cos(3 ″ * 2′ / 5 gon)",
        "y = sin(7 arcsec + 8 arcminute + 9 arcsecond + 1 arcmin + 2 deg + 3 degree)",
        "y = sin(x2rad)", "y = sin(rad * 2 deg)", "y = cos(a1 * 2) + 3 rad", "y = 3 rad + sin(1)",
        # arcsin against sin, and exp, which is no trig function
        "y = arcsin(0.5 rad) + sin(0.5 rad)", "y = arccos(2 deg * s0) / tan(s1 / 3 gon)",
        "y = exp(2 rad) + sin(1 turn)", "angle c = exp(1)", "y = exp(3 ° * 2) * exp(4)",
        # spaces before and inside "(", and Unicode spaces
        "y = tan (4°+1)", "y = sin ( 3 rad )", "y\xa0=\xa0sin\u2028(\xa03\xa0rad)",
        # a call left of "=", and a lone call
        "sin(2 rad) = a0", "angle d = sin(3 rad) = 2", "sin(1.5 rad) = exp(3 °)", "sin(3 rad)",
        # targets that are angles, lengths or undeclared, with sides that would be bare or quotients but for the call
        "a0 = sin(1)", "a0 = 2 * sin(1)", "a0 = s0 / s1 + sin(1)", "a0 = sin(s0 / s1)", "a0 = s0 / sin(s1)",
        "angle b = cos(1 arcsec)", "length s = sin(2 radian) * s0", "s0 = tan(a0 * 12 arcmin)", "q = cos(90°)",
    ],
    ids=repr,
)
def test_calls_of_flat_operands_agree_with_the_reference(monkeypatch, line):
    text = "angle a0\nlength s0\nlength s1\n" + line
    expected = _reference_lint_text(text)
    monkeypatch.setattr(lint, "parse_expression", None)  # every line takes the one match
    assert lint_text(text) == expected


def test_flat_lines_assigned_to_angles_build_no_tree(monkeypatch):
    text = (
        "length s0\nlength s1\nangle a = 1 + 2 * 3\na = s0 / s1\nangle b = 2 rad * x\nb = s0 / x\n"
        "angle a = sin(1)\ny = cos(3 rad) + tan(a * 2)\nlength s = arcsin(2 ° + 1)"
    )
    expected = _reference_lint_text(text)
    assert [(f.rule, f.line) for f in expected] == [
        (RULE_MISSING_REFERENCE_SYMBOL, 3), (RULE_MAGNITUDE_AS_QUOTIENT, 4), (RULE_RAD_IN_TRIG_ARG, 8),
        (RULE_RAD_IN_TRIG_ARG, 9),
    ]

    def refuse(*args):
        raise LookupError("built a tree")

    monkeypatch.setattr(lint, "parse_expression", refuse)
    assert lint_text(text) == expected
    for line in ("angle a = sin(sin(1))", "angle a = (1)", "angle a = sin(x = 1)"):  # a group, no call, "=" inside
        with pytest.raises(LookupError, match="built a tree"):
            lint_text(line)


@pytest.mark.parametrize(
    "line, flat, expected",
    [
        # bare sides, at the root: the last "+", else the last "*" or "/", else the operand
        ("a0 = 1 + 2 * 3", True, [(RULE_MISSING_REFERENCE_SYMBOL, 8)]),
        ("a0 = (1 + 2) * 3", False, [(RULE_MISSING_REFERENCE_SYMBOL, 14)]),
        ("angle b = 2 * 3 / 4", True, [(RULE_MISSING_REFERENCE_SYMBOL, 17)]),
        ("angle b = 2 * pi / 4", False, [(RULE_MISSING_REFERENCE_SYMBOL, 18)]),
        ("a0 =  7", True, [(RULE_MISSING_REFERENCE_SYMBOL, 7)]),
        ("a0 = (7)", False, [(RULE_MISSING_REFERENCE_SYMBOL, 7)]),
        # quotients of two lengths, at the "/", and near misses
        ("a0 = s0 / s1", True, [(RULE_MAGNITUDE_AS_QUOTIENT, 9)]),
        ("a0 = (s0) / s1", False, [(RULE_MAGNITUDE_AS_QUOTIENT, 11)]),
        ("a0 = s0 / x", True, []),
        ("a0 = (s0) / x", False, []),
        ("a0 = s0 * s1", True, []),
        ("a0 = (s0 * s1)", False, []),
        ("a0 = 3 rad", True, []),
        ("a0 = (3 rad)", False, []),
        # targets that are not angles
        ("s0 = 1 + 2", True, []),
        ("s0 = (1 + 2)", False, []),
        ("q = s0 / s1", True, []),
        ("q = (s0 / s1)", False, []),
    ],
    ids=repr,
)
def test_one_decision_reads_the_facts_of_either_route(monkeypatch, line, flat, expected):
    walked, walk = [], lint._rule_walk
    monkeypatch.setattr(lint, "_rule_walk", lambda *args: walked.append(args) or walk(*args))
    findings = lint_text("angle a0\nlength s0\nlength s1\n" + line)
    assert [(f.rule, f.line, f.column) for f in findings] == [(rule, 4, column) for rule, column in expected]
    assert len(walked) == (0 if flat else 1)


def _call_and_name_file(rng):
    """Declarations and assignments whose sides nest calls, groups and names spelled like
    units, functions, keywords and π; "=" appears at the top level only."""
    names = ("a0", "b", "s0", "s1", "x", "pi_x", "pix", "rad", "deg", "e", "sin", "angle")
    units = ("rad", "deg", "°", "′", "″", "gon", "turn", "arcmin", "arcsec", "radian", "degree")
    numbers = ("2", "0.5", "12.25", "pi", "3π/4", "1e3", "7", "123456789012345", "1234567890123456", ".5", "π")

    def side(depth=0):
        roll = rng.random()
        if depth >= 3 or roll < 0.3:
            leaf = rng.random()
            if leaf < 0.3:
                return rng.choice(numbers)
            if leaf < 0.6:
                return f"{rng.choice(('2', '0.5', '90'))}{rng.choice(('', ' '))}{rng.choice(units)}"
            return rng.choice(names)
        if roll < 0.6:
            function = rng.choice(("sin", "cos", "tan", "arcsin", "arccos", "exp", "foo"))
            return f"{function}{rng.choice(('', '', ' '))}({side(depth + 1)})"
        if roll < 0.7:
            return f"({side(depth + 1)})"
        return f"{side(depth + 1)} {rng.choice('+*//')} {side(depth + 1)}"

    lines = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.15:
            lines.append(f"{rng.choice(('angle', 'length'))} {rng.choice(names)}")
        elif roll < 0.45:
            lines.append(f"{rng.choice(('angle', 'length'))} {rng.choice(names)} = {side()}")
        elif roll < 0.55:
            lines.append(side())
        elif roll < 0.6:
            lines.append(f"{side()} = {side()}")
        else:
            lines.append(f"{rng.choice(names)} = {side()}")
    return "\n".join(lines)


def _equals_inside_a_group(text):
    for line in text.split("\n"):
        depth = 0
        for c in line:
            depth += (c == "(") - (c == ")")
            if c == "=" and depth > 0:
                return True
    return False


# sha256 of every lint_text finding, field for field, on a corpus built here and not
# from anglebench, so a benchmark change cannot move it.  A faster or simpler
# linter must leave it unchanged; change it only with a deliberate change of findings.
_LINT_DIGEST = "63616c4b53793bebd8415e155965d4deded32f5b96e8a3c6b5c617272747a456"


def test_findings_match_the_pinned_digest():
    texts = ["\n".join(lines) for lines in _corpus_files()]
    rng = random.Random(31)
    texts += [_statement_file(rng) for _ in range(150)]
    texts += [_call_and_name_file(rng) for _ in range(1_500)]
    assert not any(_equals_inside_a_group(text) for text in texts)
    digest, rules = hashlib.sha256(), set()
    for text in texts:
        findings = lint_text(text)
        rules.update(f.rule for f in findings)
        outcome = [(f.rule, f.line, f.column, f.message, f.excerpt) for f in findings]
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert rules == {None, RULE_RAD_IN_TRIG_ARG, RULE_MISSING_REFERENCE_SYMBOL, RULE_MAGNITUDE_AS_QUOTIENT}
    assert digest.hexdigest() == _LINT_DIGEST


class TestMissingReferenceRule:
    def test_bare_pi(self):
        findings = lint_text("angle a = pi")
        assert [(f.rule, f.line) for f in findings] == [
            (RULE_MISSING_REFERENCE_SYMBOL, 1)
        ]

    def test_bare_decimal(self):
        assert rules_of("angle b = 3.14") == [(RULE_MISSING_REFERENCE_SYMBOL, 1)]

    def test_arithmetic_of_bare_numbers(self):
        assert rules_of("angle c = 2 * pi") == [(RULE_MISSING_REFERENCE_SYMBOL, 1)]
        assert rules_of("angle d = pi / 2") == [(RULE_MISSING_REFERENCE_SYMBOL, 1)]

    def test_quantity_satisfies_the_rule(self):
        assert rules_of("angle a = pi rad") == []
        assert rules_of("angle b = 90°") == []

    def test_identifier_rhs_is_fine(self):
        assert rules_of("angle a = b") == []

    def test_length_assignment_is_not_checked(self):
        assert rules_of("length r = 2.5") == []

    def test_late_assignment_to_declared_angle(self):
        assert rules_of("angle a\na = 1.5") == [(RULE_MISSING_REFERENCE_SYMBOL, 2)]

    def test_assignment_to_undeclared_name_is_fine(self):
        assert rules_of("a = 1.5") == []


class TestLengthQuotientRule:
    def test_classic_quotient(self):
        text = "length s\nlength r\nangle a = s / r"
        findings = lint_text(text)
        assert [(f.rule, f.line) for f in findings] == [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]
        assert "s/r" in findings[0].message

    def test_parenthesized_quotient(self):
        text = "length c\nlength d\nangle q = (c / d)"
        assert rules_of(text) == [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]

    def test_late_assignment(self):
        text = "length s\nlength r\nangle a\na = s / r"
        assert rules_of(text) == [(RULE_MAGNITUDE_AS_QUOTIENT, 4)]

    def test_undeclared_divisor_is_fine(self):
        assert rules_of("length s\nangle a = s / r") == []

    def test_angle_quotient_is_fine(self):
        assert rules_of("angle a\nangle b\nangle c = a / b") == []

    def test_quotient_assigned_to_length_is_fine(self):
        assert rules_of("length s\nlength r\nx = s / r") == []

    def test_correct_arc_equation_is_fine(self):
        assert rules_of("length s\nlength r\ns = phi * r") == []


class TestStatementsAndSyntax:
    def test_declaration_without_assignment(self):
        assert rules_of("angle a") == []
        assert rules_of("length width") == []

    def test_blank_lines_are_skipped(self):
        assert rules_of("\n\nangle a = pi\n\n") == [(RULE_MISSING_REFERENCE_SYMBOL, 3)]

    def test_syntax_finding_has_no_rule(self):
        findings = lint_text("angle a = )")
        assert len(findings) == 1
        assert findings[0].rule is None
        assert findings[0].line == 1
        assert findings[0].column == 11

    @pytest.mark.parametrize(
        "declaration, findings",
        [
            # "pi" before no letter is π to the expressions: a syntax finding at the name, which declares nothing
            ("angle pi", [(None, 1, 7)]),
            ("length pi = 2", [(None, 1, 8)]),
            ("angle pi2 = 3 rad", [(None, 1, 7), (None, 2, 3)]),
            # names
            ("angle pi_x = 3 rad", [(RULE_MISSING_REFERENCE_SYMBOL, 2, 10)]),
            ("angle pix", [(RULE_MISSING_REFERENCE_SYMBOL, 2, 9)]),
        ],
    )
    def test_a_name_the_expressions_read_as_pi_is_not_declared(self, declaration, findings):
        name = declaration.split()[1]
        assert [(f.rule, f.line, f.column) for f in lint_text(f"{declaration}\n{name} = 2 + 3")] == findings

    @pytest.mark.parametrize(
        "line, column, message",
        [
            # "=" inside a group, where the flat match refuses it and the parser must too
            ("y = (a = 2) + 1", 8, "'=' is allowed only at the top level"),
            ("angle a = (b = 2)", 14, "'=' is allowed only at the top level"),
            ("y = sin(x = 3 rad)", 11, "'=' is allowed only at the top level"),
            # a declared word the expressions read as π, worded at the name
            ("angle pi2 = 3 rad", 7, "'pi2' cannot be declared: π, and 'pi' before a non-letter, read as the number π"),
            ("length π", 8, "'π' cannot be declared: π, and 'pi' before a non-letter, read as the number π"),
        ],
    )
    def test_syntax_findings_word_their_cause(self, line, column, message):
        assert [(f.rule, f.line, f.column, f.message) for f in lint_text(line)] == [(None, 1, column, message)]

    def test_missing_rhs(self):
        findings = lint_text("angle a = ")
        assert len(findings) == 1
        assert findings[0].rule is None

    def test_line_numbers_accumulate(self):
        text = "angle a = pi\nx = sin(1 rad)\n???\n"
        findings = lint_text(text)
        assert [(f.rule, f.line) for f in findings] == [
            (RULE_MISSING_REFERENCE_SYMBOL, 1),
            (RULE_RAD_IN_TRIG_ARG, 2),
            (None, 3),
        ]

    def test_form_feed_before_a_newline_does_not_add_a_line(self):
        text = "angle a = 3\f\nangle b = 4\ny = sin(30 deg)\n"
        assert rules_of(text) == [
            (RULE_MISSING_REFERENCE_SYMBOL, 1),
            (RULE_MISSING_REFERENCE_SYMBOL, 2),
            (RULE_RAD_IN_TRIG_ARG, 3),
        ]

    @pytest.mark.parametrize(
        "space", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=repr
    )
    def test_only_newline_sequences_end_a_line(self, space):
        text = f"angle a = 3{space}\nangle b = {space}4\r\ny = sin(30{space}deg)\rangle c = pi{space}"
        assert rules_of(text) == [
            (RULE_MISSING_REFERENCE_SYMBOL, 1),
            (RULE_MISSING_REFERENCE_SYMBOL, 2),
            (RULE_RAD_IN_TRIG_ARG, 3),
            (RULE_MISSING_REFERENCE_SYMBOL, 4),
        ]

    @pytest.mark.parametrize(
        "text, column",
        [("x = 1e400", 5), ("angle a = 1e400", 11), ("angle a = 2 * -1e400°", 15)],
    )
    def test_number_scan_errors_point_at_the_literal(self, text, column):
        findings = lint_text(text)
        assert [(f.rule, f.column, f.message) for f in findings] == [
            (None, column, "number is outside float range")
        ]

    def test_columns_are_one_based(self):
        findings = lint_text("x = sin(0.5 rad)")
        assert findings[0].column == 9

    def test_findings_are_value_objects(self):
        f = LintFinding(None, 1, 1, "m", "e")
        assert f == LintFinding(None, 1, 1, "m", "e")


def lint_timed(text, bound_s):
    """Lint text, asserting it takes less than bound_s of CPU time."""
    start = time.process_time()
    findings = lint_text(text)
    assert time.process_time() - start < bound_s
    return findings


class TestDeepInputs:
    """Left-deep chains and long files lint in linear time, without error."""

    def test_hundred_thousand_term_sum(self):
        line = "angle a = " + " + ".join(str(k % 10) for k in range(100_000))
        findings = lint_timed(line, 30.0)
        assert [(f.rule, f.line, f.column) for f in findings] == [
            (RULE_MISSING_REFERENCE_SYMBOL, 1, line.rindex("+") + 1)
        ]

    @pytest.mark.parametrize("head", ["y = ", "length s = "])
    def test_hundred_thousand_term_flat_lines(self, head):
        body = " + ".join(("7", "a1", "2.5 deg", "3°")[k % 4] for k in range(100_000))
        assert lint_timed(head + body, 10.0) == []
        line = head + body + "$"  # fails at its last character
        assert [(f.rule, f.column) for f in lint_timed(line, 10.0)] == [(None, len(line))]
        line = head + body + " = 1"  # the statement's "=" is not the expression's
        findings = [(f.rule, f.column, f.message) for f in lint_timed(line, 10.0)]
        chained = (None, line.rindex("=") + 1, "chained '=' is not allowed")
        assert findings == ([chained] if head == "y = " else [])

    def test_hundred_thousand_term_call(self):
        body = " + ".join(("7", "a1", "2.5 deg", "3°")[k % 4] for k in range(100_000))
        line = f"y = cos({body}) + exp({body})"
        findings = lint_timed(line, 10.0)
        assert len(findings) == 50_000 and findings[-1].column == line.index(") + exp(") - 1
        assert {(f.rule, f.message) for f in findings} == {
            (RULE_RAD_IN_TRIG_ARG, f"argument of cos() carries the unit '{unit}'; pass the dimensionless measure")
            for unit in ("deg", "°")
        }

    def test_ten_thousand_factor_product_chain(self):
        factors = " ".join(f"{k % 9 + 1} {'*/'[k % 2]}" for k in range(9_999))
        line = f"y = cos({factors} 0.5 rad)"
        findings = lint_timed(line, 10.0)
        assert [(f.rule, f.line, f.column) for f in findings] == [
            (RULE_RAD_IN_TRIG_ARG, 1, line.index("0.5 rad") + 1)
        ]

    def test_ten_thousand_line_file(self):
        block = ["length s", "length r", "angle a = s / r", "x = sin(0.5 rad)", "angle b = 90°"]
        text = "\n".join(block * 2_000)
        findings = lint_timed(text, 10.0)
        expected = []
        for start in range(0, 10_000, 5):
            expected.append((RULE_MAGNITUDE_AS_QUOTIENT, start + 3, 13))
            expected.append((RULE_RAD_IN_TRIG_ARG, start + 4, 9))
        assert [(f.rule, f.line, f.column) for f in findings] == expected

    def test_literals_of_any_length(self):
        assert lint_text("x = " + "0" * 5000 + "1") == []
        assert lint_text("x = 0." + "0" * 5000 + "1") == []
        assert lint_text("x = 1e" + "0" * 5000 + "7") == []
        findings = lint_text("x = 1" + "0" * 5000)
        assert [(f.rule, f.column, f.message) for f in findings] == [
            (None, 5, "number is outside float range")
        ]


@given(st.text(max_size=200))
def test_linter_never_raises(text):
    for finding in lint_text(text):
        assert finding.line >= 1
        assert finding.column >= 1


@given(
    st.lists(
        st.sampled_from(
            [
                "angle a = pi",
                "angle b = 90°",
                "length s",
                "length r",
                "angle c = s / r",
                "x = sin(0.5 rad)",
                "y = cos(0.5)",
                "junk ( junk",
                "",
            ]
        ),
        max_size=12,
    )
)
def test_findings_always_point_into_the_text(lines):
    text = "\n".join(lines)
    for finding in lint_text(text):
        assert 1 <= finding.line <= len(lines)
        line = lines[finding.line - 1]
        assert 1 <= finding.column <= len(line) + 1
