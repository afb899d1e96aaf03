"""End-to-end acceptance checks.

One test per guarantee the package makes: exact CLI anchor strings,
exact conversion and closure algebra, numeric error bounds for the
quadrature and trig paths, the lint corpus, and parser and CLI
totality.  Each test prints as a single pass/fail line under pytest -v.
"""

import io
import itertools
import math
import random
import sys
import time

from anglekit.angles import (
    BUILTIN_REFERENCES,
    AngleClass,
    AngleValue,
    Magnitude,
    Measure,
    classify,
    convert,
    measure_of,
    semigroup_add,
)
from anglekit.exact import ExactScalar, PI, TWO_PI, ZERO
from anglekit.errors import ParseError
from anglekit.geometry import ArcSpec, arc_length, chord_integral
from anglekit.lint import (
    RULE_MAGNITUDE_AS_QUOTIENT,
    RULE_MISSING_REFERENCE_SYMBOL,
    RULE_RAD_IN_TRIG_ARG,
    lint_text,
)
from anglekit.textio import format_angle, parse_angle, parse_expression
from anglekit.trig import FORWARD_KINDS, INVERSE_KINDS, pythagorean_residual


def test_half_turn_anchors_print_symbolically_and_fast(run_cli):
    started = time.perf_counter()

    code, out, err = run_cli("convert", "180°", "rad")
    assert (code, out, err) == (0, "π rad\n", "")

    code, out, err = run_cli("measure", "180°")
    assert (code, out, err) == (0, "π\n", "")

    code, out, err = run_cli("arc", "180°", "1")
    assert code == 0 and err == ""
    printed = float(out.split()[0])
    assert abs(printed - math.pi) <= math.ulp(math.pi)

    assert time.perf_counter() - started < 1.0


def test_unit_measure_arc_length_equals_radius_exactly():
    rng = random.Random(4102)
    unit = Measure(ExactScalar(1))
    radii = [rng.uniform(1e-6, 1e6) for _ in range(60)]
    radii += [math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-40, 40)) for _ in range(40)]
    assert len(radii) == 100
    for radius in radii:
        assert arc_length(ArcSpec(radius, unit)) == radius


def test_conversion_round_trips_exactly_for_all_reference_pairs():
    rng = random.Random(3600)
    values = [
        ExactScalar(rng.randint(-(10**9), 10**9), rng.randint(1, 10**6))
        for _ in range(100)
    ]
    started = time.perf_counter()
    for source, target in itertools.product(BUILTIN_REFERENCES, repeat=2):
        for value in values:
            there = convert(AngleValue(value, source), target)
            back = convert(there, source)
            assert back.value.is_exact
            assert back.value == value
            assert back.reference is source
    assert time.perf_counter() - started < 5.0


def test_random_circle_partitions_close_to_a_full_turn():
    rng = random.Random(2718)
    for _ in range(1000):
        parts = rng.randint(1, 100)
        weights = [rng.randint(1, 1000) for _ in range(parts)]
        whole = sum(weights)
        total = ZERO
        for weight in weights:
            reference = rng.choice(BUILTIN_REFERENCES)
            value = reference.full_circle * ExactScalar(weight, whole)
            total = total + measure_of(AngleValue(value, reference)).value
        assert total.is_exact
        assert total == TWO_PI


def test_chord_integral_matches_inverse_sine_within_a_nano():
    started = time.perf_counter()
    top = 1.0 - 1e-9
    worst = 0.0
    for i in range(10_000):
        x = i * top / 9999.0
        worst = max(worst, abs(chord_integral(x) - math.asin(x)))
    assert worst <= 1e-9
    assert abs(chord_integral(1.0) - math.pi / 2) <= 1e-9
    assert time.perf_counter() - started < 30.0


def test_pythagorean_residual_stays_tiny_for_every_period():
    rng = random.Random(1414)
    periods = (ExactScalar(1), TWO_PI, ExactScalar(360), ExactScalar(400))
    for period in periods:
        for _ in range(10_000):
            x = rng.uniform(-1e6, 1e6)
            assert abs(pythagorean_residual(period, x)) <= 1e-12


def _random_magnitude(rng):
    denominator = rng.randint(1, 1000)
    numerator = rng.randint(1, denominator)
    return Magnitude(Measure(ExactScalar(numerator, denominator, 1)))


def test_magnitude_addition_is_commutative_associative_cancellative():
    rng = random.Random(161803)
    for _ in range(10_000):
        a, b, c = (_random_magnitude(rng) for _ in range(3))
        ab = semigroup_add(a, b)
        assert ab.measure.value == semigroup_add(b, a).measure.value
        left = semigroup_add(ab, c).measure.value
        right = semigroup_add(a, semigroup_add(b, c)).measure.value
        assert left.is_exact and left == right
        if a.measure.value != b.measure.value:
            assert semigroup_add(a, c).measure.value != semigroup_add(b, c).measure.value


def test_classification_grid_reproduces_for_every_reference():
    grid = [
        (0, AngleClass.ZERO),
        (1, AngleClass.ACUTE),
        (2, AngleClass.RIGHT),
        (3, AngleClass.OBTUSE),
        (4, AngleClass.STRAIGHT),
        (6, AngleClass.REFLEX),
        (8, AngleClass.PERIGON),
    ]
    for reference in BUILTIN_REFERENCES:
        for eighths, expected in grid:
            value = reference.full_circle * ExactScalar(eighths, 8)
            angle = AngleValue(value, reference)
            assert classify(angle) is expected
            for other in BUILTIN_REFERENCES:
                assert classify(convert(angle, other)) is expected


LINT_CORPUS = [
    # quantity inside a trig argument: five positives ...
    ("x = sin(0.5 rad)", [(RULE_RAD_IN_TRIG_ARG, 1)]),
    ("y = cos(90°)", [(RULE_RAD_IN_TRIG_ARG, 1)]),
    ("t = tan(1/4 turn)", [(RULE_RAD_IN_TRIG_ARG, 1)]),
    ("w = arcsin(0.5 rad)", [(RULE_RAD_IN_TRIG_ARG, 1)]),
    ("v = sin(2 * 0.5 rad)", [(RULE_RAD_IN_TRIG_ARG, 1)]),
    # ... and five negatives
    ("x = sin(0.5)", []),
    ("y = cos(pi)", []),
    ("z = tan(pi / 4)", []),
    ("x = exp(1 rad)", []),
    ("phi = 0.5 rad", []),
    # angle assigned a bare number: five positives ...
    ("angle a = pi", [(RULE_MISSING_REFERENCE_SYMBOL, 1)]),
    ("angle b = 3.14", [(RULE_MISSING_REFERENCE_SYMBOL, 1)]),
    ("angle c = 2 * pi", [(RULE_MISSING_REFERENCE_SYMBOL, 1)]),
    ("angle d = pi / 2", [(RULE_MISSING_REFERENCE_SYMBOL, 1)]),
    ("angle e\ne = 0.5", [(RULE_MISSING_REFERENCE_SYMBOL, 2)]),
    # ... and five negatives
    ("angle a = pi rad", []),
    ("angle b = 90°", []),
    ("angle c = d", []),
    ("length r = 3.0", []),
    ("a = 1.5", []),
    # angle assigned a quotient of lengths: five positives ...
    ("length s\nlength r\nangle a = s / r", [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]),
    ("length c\nlength d\nangle q = (c / d)", [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]),
    ("length s\nlength r\nangle a\na = s / r", [(RULE_MAGNITUDE_AS_QUOTIENT, 4)]),
    ("length top\nlength bottom\nangle g = top / bottom", [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]),
    ("length u\nlength v\nangle m = u/v", [(RULE_MAGNITUDE_AS_QUOTIENT, 3)]),
    # ... and five negatives
    ("length s\nangle a = s / r", []),
    ("angle a\nangle b\nangle c = a / b", []),
    ("length s\nlength r\nx = s / r", []),
    ("length s\nlength r\ns = phi * r", []),
    ("length s\nlength r\nangle a = s * r", []),
]


def test_lint_corpus_yields_exactly_the_expected_findings():
    assert len(LINT_CORPUS) == 30
    positives = [case for case in LINT_CORPUS if case[1]]
    negatives = [case for case in LINT_CORPUS if not case[1]]
    assert len(positives) == 15 and len(negatives) == 15
    for text, expected in LINT_CORPUS:
        findings = [(f.rule, f.line) for f in lint_text(text)]
        assert findings == expected, f"{text!r}: {findings} != {expected}"


_FRAGMENTS = [
    "sin", "cos(", "arcsin", ")", "π", "pi", "rad", "deg", "°", "′", "″",
    "gon", "turn", "arcmin", "/", "*", "+", "-", "=", "(", " ", "1.5",
    "3", "0", "1e3", "1e999", "d", "m", "s", ".", ",", "e", "_", "9" * 20,
]


def _random_string(rng):
    kind = rng.randrange(3)
    if kind == 0:
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
        return raw.decode("latin-1")
    if kind == 1:
        return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randrange(8)))
    base = list(rng.choice(["3π/4 rad", "12°34′56″", "-0.5 turn", "sin(x) = 1"]))
    for _ in range(rng.randrange(4)):
        if base:
            base[rng.randrange(len(base))] = chr(rng.randrange(32, 1024))
    return "".join(base)


def test_parsers_are_total_and_formatting_round_trips():
    rng = random.Random(0xA11CE)
    for _ in range(100_000):
        text = _random_string(rng)
        for parse in (parse_angle, parse_expression):
            try:
                parse(text)
            except ParseError as error:
                assert 0 <= error.position <= len(text)

    for _ in range(1000):
        reference = rng.choice(BUILTIN_REFERENCES)
        value = ExactScalar(
            rng.randint(-(10**6), 10**6),
            rng.randint(1, 10**4),
            rng.choice((-1, 0, 1)),
        )
        form = rng.choice(("decimal", "symbolic_pi"))
        text = format_angle(
            AngleValue(value, reference), form=form, ascii_only=rng.random() < 0.5
        )
        back = parse_angle(text).parsed
        assert back.value == value
        assert back.reference == reference


_SIGNED_LITERALS = [
    "-30°", "-90°", "-π/6 rad", "-pi/6", "-0.5", "-.5", "-12°34′56″",
    "-1/3 turn", "-2pi", "-360", "-1e400", "-π", "-0", "-",
]

# subcommand -> number of free operands (trig's function name comes first)
_CLI_ARITY = {
    "convert": 2, "measure": 1, "arc": 2, "chord": 2, "add": 2,
    "points": 6, "trig": 1, "classify": 1, "table": 0, "lint": 1,
}


def _cli_operand(rng):
    return rng.choice(_SIGNED_LITERALS) if rng.random() < 0.25 else _random_string(rng)


def _lint_bytes(rng):
    if rng.random() < 0.3:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    lines = (_random_string(rng) for _ in range(rng.randrange(1, 6)))
    return "\n".join(lines).encode("utf-8")


def test_cli_is_total(run_cli, tmp_path, monkeypatch):
    """No argv reaches exit 70, a traceback, or more than one error line."""
    rng = random.Random(0xC11)
    for index in range(2000):
        command = rng.choice(list(_CLI_ARITY))
        operands = [_cli_operand(rng) for _ in range(_CLI_ARITY[command])]
        if command == "trig":
            operands.insert(0, rng.choice(FORWARD_KINDS + INVERSE_KINDS))
        elif command == "lint":
            data = _lint_bytes(rng)
            if rng.random() < 0.5:
                monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode("latin-1")))
                operands = ["-"]
            else:
                path = tmp_path / f"{index}.txt"
                path.write_bytes(data)
                operands = [str(path)]
        options = ["--format", rng.choice(("human", "records"))]
        if rng.random() < 0.5:
            options.append("--ascii")
        if rng.random() < 0.5:
            options += ["--digits", str(rng.randint(1, 17))]
        if command == "trig" and rng.random() < 0.5:
            options += ["--period", rng.choice(["2pi", "360", "400", "1", _cli_operand(rng)])]
        parts = [options, operands]
        rng.shuffle(parts)
        argv = [command, *parts[0], *parts[1]]
        code, out, err = run_cli(*argv)
        assert code != 70, (argv, err)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        assert "Traceback" not in out + err, argv
