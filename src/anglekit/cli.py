"""Command line interface.

Subcommands: convert, measure, arc, chord, add, points, trig, classify,
table, lint.  Each accepts --format {human,records}, --ascii, and
--digits N after the subcommand name.  records mode prints one
key=value pair per line with stable keys, suitable for scripting.
A well-formed call builds no parser.  argparse reads any other (help,
an abbreviated or --opt=value option, a signed operand before "--", a
"--" that ends the line, a bad value) and prints help and usage errors.

A handler returns its records as (key, value) pairs, and `main` is
their one printer: records mode prints them as key=value lines, human
mode prints the values joined by a space, leaving out `exact`.  arc,
table and lint print their own lines and return their exit code: arc's
exact= holds a symbol, table prints a grid and lint exits 1 on findings.

Exit codes (an error's exit code is the `exit_code` of its class):
    0  success
    1  lint findings were reported
    2  input could not be read or parsed (also argparse usage errors)
    3  unknown or missing unit
    4  bad radius
    5  value out of the accepted range
    6  domain error (trig pole, inverse argument, semigroup operand,
       degenerate geometry, unit-bearing trig argument)
    70 unexpected internal failure
"""

from __future__ import annotations

import argparse
import re
import sys

from .angles import (
    BUILTIN_REFERENCES,
    Magnitude,
    ascii_symbol,
    check_full_circle,
    classify,
    convert,
    find_reference,
    measure_of,
    semigroup_add,
)
from .errors import AngleKitError, DomainError, ExactOverflowError, ParseError, UnknownUnitError
from .exact import ExactScalar, format_float
from .geometry import (
    ArcSpec,
    PlanarPoint,
    angle_from_points,
    arc_length,
    chord_length,
)
from .lint import lint_text
from .textio import OUTSIDE_FLOAT_RANGE, parse_angle, parse_number
from .trig import (
    FORWARD_KINDS,
    INVERSE_KINDS,
    PeriodizedFunction,
    eval_inverse,
    eval_periodized,
)

EXIT_OK = 0
EXIT_LINT = 1
EXIT_INTERNAL = 70


# argparse reads a token that starts with "-" as an option unless its
# `_negative_number_matcher` calls it a negative number: only `-12` or
# `-1.5` before Python 3.13, whose matcher is `-\.?\d`.  A signed angle
# ("-30°", "-π/6 rad", "-pi/6") is an operand too, so each subparser
# takes every token that starts with "-" and then a digit, a point, π or
# pi as one.  No option of ours is spelled that way; only argparse reads it.
_SIGNED_OPERAND = r"-(\d|\.|π|pi)"


def _digits_arg(text: str) -> int:
    try:
        if 1 <= (value := int(text)) <= 17:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("digits must be between 1 and 17")


def _unit_text(reference, args) -> str:
    return ascii_symbol(reference) if args.ascii else reference.symbol


def _float_arg(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not a number") from None


def _exact_arc_length(measure: ExactScalar, radius_text: str) -> ExactScalar | None:
    """measure·radius with the radius read as the decimal it was written as.

    None when Fraction cannot read the text (such as a literal past
    int's digit limit) or the exact product leaves the 64-bit component
    range.
    """
    from fractions import Fraction

    try:
        radius = Fraction(radius_text)
        length = measure * ExactScalar(radius.numerator, radius.denominator)
    except (ValueError, ExactOverflowError):
        return None
    return length if length.is_exact else None


# ----------------------------------------------------------------------
# subcommands


def _cmd_convert(args) -> list[tuple[str, str]]:
    angle = parse_angle(args.angle).parsed
    target = find_reference(args.unit)
    if target is None:
        raise UnknownUnitError(f"unknown unit {args.unit!r}")
    value = convert(angle, target).value
    return [
        ("value", value.render(args.ascii, args.digits)),
        ("unit", _unit_text(target, args)),
        ("exact", "true" if value.is_exact else "false"),
    ]


def _cmd_measure(args) -> list[tuple[str, str]]:
    value = measure_of(parse_angle(args.angle).parsed).value
    return [
        ("measure", value.render(args.ascii, args.digits)),
        ("exact", "true" if value.is_exact else "false"),
    ]


def _cmd_arc(args) -> int:
    angle = parse_angle(args.angle).parsed
    radius = _float_arg(args.radius, "radius")
    measure = measure_of(angle)
    body = format_float(arc_length(ArcSpec(radius, measure)), args.digits)
    exact_length = _exact_arc_length(measure.value, args.radius)
    symbolic = "" if exact_length is None else exact_length.render(args.ascii)
    if args.format == "records":
        print(f"length={body}" + (f"\nexact={symbolic}" if symbolic else ""))
    else:
        print(body + (f" (exactly {symbolic})" if symbolic else ""))
    return EXIT_OK


def _cmd_chord(args) -> list[tuple[str, str]]:
    angle = parse_angle(args.angle).parsed
    radius = _float_arg(args.radius, "radius")
    return [("chord", format_float(chord_length(angle, radius), args.digits))]


def _cmd_add(args) -> list[tuple[str, str]]:
    first = parse_angle(args.first).parsed
    second = parse_angle(args.second).parsed
    total = semigroup_add(Magnitude(measure_of(first)), Magnitude(measure_of(second)))
    value = total.measure.value
    return [
        ("measure", value.render(args.ascii, args.digits)),
        ("exact", "true" if value.is_exact else "false"),
    ]


def _cmd_points(args) -> list[tuple[str, str]]:
    px, py, vx, vy, qx, qy = [
        _float_arg(text, "coordinate")
        for text in (args.px, args.py, args.vx, args.vy, args.qx, args.qy)
    ]
    magnitude = angle_from_points(PlanarPoint(px, py), PlanarPoint(vx, vy), PlanarPoint(qx, qy))
    return [("measure", format_float(magnitude.measure.value.to_float(), args.digits))]


def _cmd_trig(args) -> list[tuple[str, str]]:
    period = parse_number(args.period)
    check_full_circle(period)
    x = _trig_argument(args.argument)
    if args.function in FORWARD_KINDS:
        result = eval_periodized(PeriodizedFunction(args.function, period), x)
        return [("value", format_float(result, args.digits))]
    result = eval_inverse(args.function, period, x)
    return [
        ("value", result.value.render(args.ascii, args.digits)),
        ("unit", _unit_text(result.reference, args)),
    ]


def _trig_argument(text: str) -> float:
    try:
        return parse_number(text).to_float()
    except ParseError as exc:
        if exc.message == OUTSIDE_FLOAT_RANGE:
            raise
    try:
        literal = parse_angle(text)
    except ParseError:
        raise ParseError(f"could not parse number {text!r}") from None
    raise DomainError(
        "RAD-IN-TRIG-ARG: argument carries the unit "
        f"'{literal.parsed.reference.symbol}'; pass the dimensionless measure",
    )


def _cmd_classify(args) -> list[tuple[str, str]]:
    return [("class", classify(parse_angle(args.angle).parsed).value)]


def _cmd_table(args) -> int:
    names = [ref.name for ref in BUILTIN_REFERENCES]
    grid = [
        [(target.full_circle / source.full_circle).render(args.ascii) for target in BUILTIN_REFERENCES]
        for source in BUILTIN_REFERENCES
    ]
    if args.format == "records":
        for source, row in zip(names, grid):
            for target, cell in zip(names, row):
                print(f"{source}->{target}={cell}")
        return EXIT_OK
    rows = [["from\\to", *names]] + [[source, *row] for source, row in zip(names, grid)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return EXIT_OK


def _cmd_lint(args) -> int:
    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes that are not UTF-8
        raise ParseError(f"cannot read {args.path!r}: {exc}") from None
    findings = lint_text(text)
    for finding in findings:
        rule = finding.rule or "syntax"
        if args.format == "records":
            print(f"finding={finding.line}:{finding.column}:{rule}:{finding.message}")
        else:
            print(f"{finding.line}:{finding.column}: {rule}: {finding.message}")
    return EXIT_LINT if findings else EXIT_OK


# ----------------------------------------------------------------------
# parser assembly

# command: (handler, help line, operands); calls look a handler up by name, so patches apply.
_COMMANDS = {
    "convert": (_cmd_convert, "re-express an angle in another unit", "angle unit"),
    "measure": (_cmd_measure, "dimensionless measure of an angle", "angle"),
    "arc": (_cmd_arc, "arc length measure*radius", "angle radius"),
    "chord": (_cmd_chord, "chord length 2r*sin(measure/2)", "angle radius"),
    "add": (_cmd_add, "semigroup sum of two magnitudes", "first second"),
    "points": (_cmd_points, "angle between rays vertex->p and vertex->q", "px py vx vy qx qy"),
    "trig": (_cmd_trig, "periodized trig functions", "function argument"),
    "classify": (_cmd_classify, "name the range an angle falls in", "angle"),
    "table": (_cmd_table, "builtin unit conversion factors", ""),
    "lint": (_cmd_lint, "lint a file of angle statements ('-' for stdin)", "path"),
}
_FORMATS, _FUNCTIONS = ("human", "records"), FORWARD_KINDS + INVERSE_KINDS


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_FORMATS, default="human", help="output style: prose or key=value lines"
    )
    common.add_argument(
        "--ascii", action="store_true", help="restrict output to 7-bit characters (pi, deg, ...)"
    )
    common.add_argument(
        "--digits", type=_digits_arg, default=17, metavar="N",
        help="significant digits for floats (1-17, default 17)",
    )

    parser = argparse.ArgumentParser(
        prog="anglekit", description="Exact angle conversions, measures, geometry, and linting."
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (_, help_text, operands) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p._negative_number_matcher = re.compile(_SIGNED_OPERAND)
        for operand in operands.split():
            p.add_argument(operand, choices=_FUNCTIONS if operand == "function" else None)
        if name == "trig":
            p.add_argument("--period", default="2pi", help="full circle (exact number, default 2pi)")

    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed call, or None for any other."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, operands, tokens = argv[0], [], iter(argv[1:])
    names = _COMMANDS[command][2]
    options = {"format": "human", "ascii": False, "digits": 17}
    options |= {"period": "2pi"} if command == "trig" else {}
    for token in tokens:
        if token == "--":
            operands += tokens
        elif token == "-" or token[:1] != "-":
            operands.append(token)
        elif token == "--ascii":
            options["ascii"] = True
        else:
            key, value = token[2:], next(tokens, "-")
            if (token[:2] != "--" or key not in options or value[:1] == "-"
                    or key == "format" and value not in _FORMATS):
                return None
            try:
                options[key] = _digits_arg(value) if key == "digits" else value
            except argparse.ArgumentTypeError:
                return None
    if ("--" in operands or argv[-1] == "--" or len(operands) != len(names.split())
            or command == "trig" and operands[0] not in _FUNCTIONS):
        return None
    options.update(zip(names.split(), operands), command=command)
    return argparse.Namespace(**options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _read_argv(argv)) is None:
        parser = _build_parser()
        try:
            args, extras = parser.parse_known_args(argv)
            # `table` has no operand to take a "--" that ends its options.
            if extras and not (extras == ["--"] and args.command == "table"):
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if [] in vars(args).values():  # argparse drops a second "--" and leaves its operand empty
            raise ParseError("a second '--' is not allowed")
        records = globals()[_COMMANDS[args.command][0].__name__](args)
        if isinstance(records, int):  # arc, table and lint print their own lines
            return records
        if args.format == "records":
            print("\n".join(f"{key}={value}" for key, value in records))
        else:
            print(" ".join(value for key, value in records if key != "exact"))
        return EXIT_OK
    except AngleKitError as exc:
        code, message = exc.exit_code, str(exc)
    except ZeroDivisionError as exc:
        code, message = DomainError.exit_code, str(exc)
    except Exception as exc:  # pragma: no cover - safety net, no tracebacks
        code, message = EXIT_INTERNAL, f"internal error: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
