"""Seeded input generators for the four workloads.

Standard library only; nothing here imports anglekit.  Every round of a
workload is drawn from its own `random.Random`, seeded from the workload
name, the run seed and the round index, so a seed fixes every input and
rounds do not repeat each other.  Each round has a fixed make-up (the
count of every op kind, band and deliberately failing op is the same in
every round), so the share of failed ops is the same in every run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# name -> (spellings accepted by the literal parser, canonical symbol,
#          full circle as (rational coefficient, power of pi))
UNITS = {
    "radian": (("rad", "radian"), "rad", (Fraction(2), 1)),
    "degree": (("°", "deg", "degree"), "°", (Fraction(360), 0)),
    "gon": (("gon",), "gon", (Fraction(400), 0)),
    "turn": (("turn",), "turn", (Fraction(1), 0)),
    "arcminute": (("′", "arcmin", "arcminute"), "′", (Fraction(21600), 0)),
    "arcsecond": (("″", "arcsec", "arcsecond"), "″", (Fraction(1296000), 0)),
}
UNIT_NAMES = tuple(UNITS)


def circle_float(unit: str) -> float:
    coefficient, pi_exponent = UNITS[unit][2]
    return float(coefficient) * math.pi**pi_exponent


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _decimal_text(value: Fraction) -> str:
    """Plain decimal spelling of a terminating rational."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
    digits = str(int(value * 10**places)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# ----------------------------------------------------------------------
# exact_pipeline

# Op kinds per round and their counts.  "long_decimal" literals carry 17
# significant digits, which the parser must flag as inexact floats.
EXACT_MIX = (
    ("rad_decimal", 24),
    ("decimal", 24),
    ("long_decimal", 6),
    ("fraction", 18),
    ("pi_form", 30),
    ("dms", 18),
)

# Magnitude bands in full circles; each kind cycles through this list, so
# every round holds the same share of each band.
BAND_CYCLE = (
    ((0.0, 0.25),) * 5
    + ((0.25, 1.0),) * 7
    + ((1.0, 10.0),) * 4
    + ((10.0, 1000.0),) * 2
    + ((-10.0, 0.0),) * 2
)


def _spell(rng: random.Random, unit: str, number_text: str) -> str:
    spelling = rng.choice(UNITS[unit][0])
    bare_integer = number_text.lstrip("-").isdigit()
    # An integer glued to ° is sexagesimal notation, not a decimal.
    glued = rng.random() < 0.3 and not (spelling == "°" and bare_integer)
    return f"{number_text}{'' if glued else ' '}{spelling}"


def _band_value(rng: random.Random, band, scale: float) -> float:
    lo, hi = band
    if hi - lo > 50:
        value = math.exp(rng.uniform(math.log(max(lo, 1e-9)), math.log(hi)))
    else:
        value = rng.uniform(lo, hi)
    return value * scale


def _decimal_literal(rng, band, unit):
    x = _band_value(rng, band, circle_float(unit))
    # At most 15 significant digits, so the literal is exact.
    places = min(rng.choice((0, 1, 2, 3, 4, 6)), 15 - len(str(int(abs(x)))))
    while round(x * 10**places) == 0:
        places += 1
    mantissa = round(x * 10**places)
    value = Fraction(mantissa, 10**places)
    if rng.random() < 0.1:
        # Scientific spelling of the same value.
        digits = str(abs(mantissa))
        exponent = len(digits) - 1 - places
        head = digits[0] + ("." + digits[1:].rstrip("0") if digits[1:].rstrip("0") else "")
        text = f"{'-' if mantissa < 0 else ''}{head}e{exponent}"
    else:
        text = _decimal_text(value)
    return _spell(rng, unit, text), Fraction(text), 0, "decimal"


def _long_decimal_literal(rng, band, unit):
    x = _band_value(rng, band, circle_float(unit))
    mantissa, _, exponent = f"{abs(x):.16e}".partition("e")
    digits = mantissa.replace(".", "")[:-1] + str(rng.randint(1, 9))
    value = Fraction(int(digits), 10 ** (16 - int(exponent)))
    text = _decimal_text(-value if x < 0 else value)
    return _spell(rng, unit, text), Fraction(text), 0, "decimal"


def _fraction_literal(rng, band, unit):
    x = _band_value(rng, band, circle_float(unit))
    denominator = rng.choice((3, 7, 9, 11, 12, 13, 24, 60, 360, 1000))
    numerator = round(x * denominator) or 1
    text = f"{numerator}/{denominator}"
    return f"{text} {rng.choice(UNITS[unit][0])}", Fraction(numerator, denominator), 0, "decimal"


def _pi_literal(rng, band, unit):
    pi = "π" if rng.random() < 0.7 else "pi"
    x = _band_value(rng, band, circle_float(unit))
    if rng.random() < 0.2:
        # n/π or n/(dπ): a value with π in the denominator.
        denominator = rng.choice((1, 2, 3, 4))
        numerator = round(x * math.pi * denominator) or 1
        text = f"{numerator}/{pi}" if denominator == 1 else f"{numerator}/({denominator}{pi})"
        return _spell_pi(rng, unit, text), Fraction(numerator, denominator), -1
    denominator = rng.choice((1, 2, 3, 4, 6, 8, 12, 180))
    if round(x / math.pi * denominator) == 0:
        denominator = 180
    numerator = round(x / math.pi * denominator) or (1 if x > 0 else -1)
    q = Fraction(numerator, denominator)
    sign = "-" if q < 0 else ""
    a = abs(q)
    style = rng.random()
    if a == 1:
        text = f"{sign}{pi}"
    elif a.denominator == 1:
        text = f"{sign}{a.numerator}{pi}"
    elif style < 0.15 and 10**6 % a.denominator == 0:
        text = f"{sign}{_decimal_text(a)}{pi}"
    elif style < 0.35:
        text = f"{sign}{a.numerator}/{a.denominator}{pi}"
    elif a.numerator == 1:
        text = f"{sign}{pi}/{a.denominator}"
    else:
        text = f"{sign}{a.numerator}{pi}/{a.denominator}"
    return _spell_pi(rng, unit, text), q, 1


def _spell_pi(rng, unit, text):
    spelling = rng.choice(UNITS[unit][0])
    # "pi" glued to a word unit would read as one identifier.
    return f"{text} {spelling}"


def _dms_literal(rng, band):
    x = _band_value(rng, band, 360.0)
    sign = "-" if x < 0 else ""
    degrees = int(abs(x))
    minutes = rng.randint(0, 59)
    if rng.random() < 0.5:
        seconds_text = str(rng.randint(0, 59))
    else:
        places = rng.choice((1, 2, 3))
        seconds_text = _decimal_text(Fraction(rng.randint(0, 60 * 10**places - 1), 10**places))
    marks = ("d", "m", "s") if rng.random() < 0.15 else ("°", "′", "″")
    shape = rng.random()
    value = Fraction(degrees)
    if shape < 0.1:
        text = f"{sign}{degrees}{marks[0]}"
    elif shape < 0.25:
        text = f"{sign}{degrees}{marks[0]}{minutes}{marks[1]}"
        value += Fraction(minutes, 60)
    else:
        text = f"{sign}{degrees}{marks[0]}{minutes}{marks[1]}{seconds_text}{marks[2]}"
        value += Fraction(minutes, 60) + Fraction(seconds_text) / 3600
    return text, -value if sign else value, 0, "dms"


def exact_round(seed: int, round_index: int) -> list[tuple]:
    """One round of exact_pipeline inputs.

    Each input is (text, source unit, target unit, exact, q, e, form):
    the literal denotes q·π^e in the source unit, exactly when `exact`,
    else it is a decimal the parser must round to the nearest float.
    """
    rng = rng_for("exact_pipeline", seed, round_index)
    ops = []
    for kind, count in EXACT_MIX:
        for j in range(count):
            band = BAND_CYCLE[j % len(BAND_CYCLE)]
            exact = True
            if kind == "rad_decimal":
                unit = "radian"
                text, q, e, form = _decimal_literal(rng, band, unit)
            elif kind == "decimal":
                unit = rng.choice(UNIT_NAMES[1:])
                text, q, e, form = _decimal_literal(rng, band, unit)
            elif kind == "long_decimal":
                unit = rng.choice(UNIT_NAMES)
                text, q, e, form = _long_decimal_literal(rng, band, unit)
                exact = False
            elif kind == "fraction":
                unit = rng.choice(UNIT_NAMES)
                text, q, e, form = _fraction_literal(rng, band, unit)
            elif kind == "pi_form":
                unit = "radian" if rng.random() < 0.5 else rng.choice(UNIT_NAMES)
                text, q, e = _pi_literal(rng, band, unit)
                form = "symbolic_pi"
            else:
                unit = "degree"
                text, q, e, form = _dms_literal(rng, band)
            target = rng.choice([u for u in UNIT_NAMES if u != unit])
            ops.append((text, unit, target, exact, q, e if q else 0, form))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# numeric_sweep

# (label, rational coefficient, power of pi) of each period.
PERIODS = (
    ("1", Fraction(1), 0),
    ("360", Fraction(360), 0),
    ("400", Fraction(400), 0),
    ("2π", Fraction(2), 1),
    ("2π/3", Fraction(2, 3), 1),
)
# Bands of |x|: below one period, then decades up to 1e300.  The gap
# between 1e55 and 1e63 keeps every π-period op clear of the point where
# the 75-digit π substitute starts to show.
TRIG_BANDS = ("small", "mid", "large", "xl", "huge")
_BAND_LOG10 = {"mid": (None, 6.0), "large": (6.0, 15.0), "xl": (15.0, 55.0), "huge": (63.0, 300.0)}
HUGE_LOG10 = 63.0
TRIGS_PER_BAND = 4
# Ops per round of each other kind: inverse, chord integral, chord
# length, angle from points.
EXTRA_OPS = 10
NUMERIC_ROUND = len(PERIODS) * len(TRIG_BANDS) * TRIGS_PER_BAND + 4 * EXTRA_OPS


def numeric_fails(op: tuple) -> bool:
    """Whether an op belongs to the failing band: π period, |x| ≥ 1e63."""
    return op[0] == "trig" and PERIODS[op[1]][2] == 1 and abs(op[2]) >= 10**HUGE_LOG10


def _trig_argument(rng, period_index, band, slot):
    _, coefficient, pi_exponent = PERIODS[period_index]
    period = float(coefficient) * math.pi**pi_exponent
    if band == "small":
        if slot == 0 and pi_exponent == 0:
            # A quarter point: sin/cos land on 0 or ±1, tan may be a pole.
            return float(coefficient * rng.randint(-7, 7) / 4)
        return rng.uniform(-period, period)
    lo, hi = _BAND_LOG10[band]
    lo = math.log10(period) if lo is None else lo
    x = 10 ** rng.uniform(lo, hi)
    return -x if rng.random() < 0.5 else x


def numeric_round(seed: int, round_index: int) -> list[tuple]:
    """One round of numeric_sweep inputs, as tagged tuples."""
    rng = rng_for("numeric_sweep", seed, round_index)
    ops = []
    for p in range(len(PERIODS)):
        for band in TRIG_BANDS:
            for slot in range(TRIGS_PER_BAND):
                ops.append(("trig", p, _trig_argument(rng, p, band, slot)))
    for i in range(EXTRA_OPS):
        kind = "arcsin" if i % 2 == 0 else "arccos"
        x = (-1.0, 1.0, 0.0)[i // 2 % 3] if i in (0, 3, 4) else rng.uniform(-1.0, 1.0)
        ops.append(("inverse", kind, i % len(PERIODS), x))
    for i in range(EXTRA_OPS):
        x = 1.0 if i == 0 else (10 ** rng.uniform(-8, 0) if i < 4 else rng.random())
        ops.append(("chord_integral", x))
    for i in range(EXTRA_OPS):
        if i % 2 == 0:
            unit, q, e = "degree", Fraction(rng.randint(0, 36000), 100), 0
        else:
            unit, q, e = "radian", Fraction(rng.randint(0, 24), 12), 1
        ops.append(("chord_length", unit, q.numerator, q.denominator, e, rng.uniform(0.1, 100.0)))
    while len(ops) < NUMERIC_ROUND:
        coords = [rng.uniform(-100.0, 100.0) for _ in range(6)]
        ux, uy = coords[0] - coords[2], coords[1] - coords[3]
        vx, vy = coords[4] - coords[2], coords[5] - coords[3]
        if min(math.hypot(ux, uy), math.hypot(vx, vy)) < 1.0:
            continue
        if abs(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)) < 1e-3:
            continue
        ops.append(("points", *coords))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# lint_files

LINT_FAILING = 2
LINT_UNITS = ("deg", "rad", "gon", "turn", "arcmin", "arcsec", "°", "′", "″", "degree", "radian")
RULE_TRIG = "RAD-IN-TRIG-ARG"
RULE_BARE = "MISSING-REFERENCE-SYMBOL"
RULE_QUOTIENT = "MAGNITUDE-AS-QUOTIENT"


class _Line:
    """Builds one statement line while recording token offsets."""

    def __init__(self):
        self.text = ""

    def add(self, piece: str) -> int:
        start = len(self.text)
        self.text += piece
        return start


def _number(rng, decimal: bool | None = None) -> str:
    if decimal is None:
        decimal = rng.random() >= 0.6
    return f"{rng.randint(0, 99)}.{rng.randint(1, 99)}" if decimal else str(rng.randint(1, 999))


def _chain(line: _Line, rng, terms: int, names: list[str] | None) -> int:
    """Append a +/* chain; return the offset of its root node.

    The root of a left-deep sum is its last top-level '+'; without one it
    is the last '*'; a single term is its own root.  Operators and term
    kinds follow fixed patterns (3 '+' to 2 '*'; with names, 3 in 10 terms
    are names; of the numbers, 2 in 5 are decimals), so a chain's cost
    depends on its length alone: the tree walk costs about the square of
    the '+' count, and decimals parse slower than integers.
    """
    last_plus = last_star = None
    first = None
    for i in range(terms):
        if i:
            op = "+" if i % 5 in (1, 3, 4) else "*"
            line.add(" ")
            position = line.add(op)
            line.add(" ")
            if op == "+":
                last_plus = position
            else:
                last_star = position
        if names and i % 10 in (2, 5, 8):
            term = rng.choice(names)
        else:
            term = _number(rng, i % 5 in (0, 3))
        start = line.add(term)
        first = start if first is None else first
    if last_plus is not None:
        return last_plus
    return last_star if last_star is not None else first


# Line kinds and their shares in every file; each file holds
# round(share * lines) of each kind (at least one declaration), shuffled.
LINE_KINDS = (
    ("declare_angle", 0.12),
    ("declare_length", 0.10),
    ("quantity", 0.10),
    ("bare", 0.12),
    ("quotient", 0.08),
    ("trig", 0.18),
    ("chain", 0.14),
    ("bad_character", 0.08),
    ("unclosed", 0.08),
)
# Lines per file for the files of one round: 8 files of 5-15 lines, 10 of
# 16-40 and 3 of 41-80.  Five files of 20 lines sit at the middle of the
# 23 ops of a round (with the 2 failing ones), so the median op falls
# inside one cluster of files of one size, not in a sparse gap between
# sizes where it would move with every round's content.
LINT_SIZES = (5, 6, 7, 9, 11, 12, 13, 15, 18, 20, 20, 20, 20, 20, 22, 25, 30, 40, 50, 65, 80)
LINT_CHAIN_TERMS = 1200


def _line_schedule(rng, lines_wanted: int) -> list[str]:
    """Declarations first, then the other kinds in a random order."""
    kinds = []
    for kind, share in LINE_KINDS:
        kinds.extend([kind] * round(share * lines_wanted))
    kinds = kinds[:lines_wanted]
    while len(kinds) < lines_wanted:
        kinds.append("declare_angle")
    head = [k for k in kinds if k.startswith("declare")]
    body = [k for k in kinds if not k.startswith("declare")]
    rng.shuffle(head)
    rng.shuffle(body)
    return head + body


def _lint_file(rng, lines_wanted: int) -> tuple[str, list[tuple]]:
    angles: list[str] = []
    lengths: list[str] = []
    findings: list[tuple] = []
    out: list[str] = []
    counter = 0

    def fresh(prefix):
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    schedule = _line_schedule(rng, lines_wanted)
    # Chain lengths spread evenly over 20-120 terms, so files of one size
    # cost about the same in every round and every seed.
    chains = schedule.count("chain")
    chain_terms = [20 + round(100 * (k + 0.5) / chains) for k in range(chains)]
    rng.shuffle(chain_terms)
    chain_count = trig_count = 0
    for kind in schedule:
        n = len(out) + 1
        line = _Line()
        if kind == "quotient" and len(lengths) < 2:
            kind = "declare_length"
        if kind == "declare_angle":
            name = fresh("a")
            line.add(f"angle {name}")
            angles.append(name)
        elif kind == "declare_length":
            name = fresh("s")
            line.add(f"length {name}")
            lengths.append(name)
        elif kind == "quantity":
            name = fresh("a")
            line.add(f"angle {name} = ")
            line.add(f"{_number(rng)} {rng.choice(LINT_UNITS)}")
            angles.append(name)
        elif kind == "bare":
            if angles and rng.random() < 0.5:
                line.add(f"{rng.choice(angles)} = ")
            else:
                name = fresh("a")
                line.add(f"angle {name} = ")
                angles.append(name)
            root = _chain(line, rng, rng.randint(1, 4), None)
            findings.append((RULE_BARE, n, root + 1))
        elif kind == "quotient":
            name = fresh("a")
            line.add(f"angle {name} = {lengths[-1]} ")
            slash = line.add("/")
            line.add(f" {lengths[-2]}")
            angles.append(name)
            findings.append((RULE_QUOTIENT, n, slash + 1))
        elif kind == "trig":
            line.add(f"{fresh('y')} = ")
            trig_count += 1
            for k in range(1 + trig_count % 3):
                if k:
                    line.add(" + ")
                function = rng.choice(("sin", "cos", "tan", "arcsin", "arccos", "exp"))
                line.add(f"{function}(")
                shape = rng.random()
                if shape < 0.5:
                    at = line.add(_number(rng))
                    line.add(f" {rng.choice(LINT_UNITS)}")
                    if shape < 0.2:
                        line.add(f" + {_number(rng)}")
                    if function != "exp":
                        findings.append((RULE_TRIG, n, at + 1))
                elif shape < 0.75 and angles:
                    line.add(f"{rng.choice(angles)} * {_number(rng)}")
                else:
                    line.add(_number(rng))
                line.add(")")
        elif kind == "chain":
            terms = chain_terms.pop()
            chain_count += 1
            # Every third chain is assigned to an angle: bare numbers only.
            if chain_count % 3 == 1:
                line.add(f"{rng.choice(angles)} = ")
                root = _chain(line, rng, terms, None)
                findings.append((RULE_BARE, n, root + 1))
            else:
                line.add(f"{fresh('y')} = ")
                _chain(line, rng, terms, angles + lengths)
        elif kind == "bad_character":
            line.add(f"{fresh('y')} = {_number(rng)} + ")
            bad = line.add(rng.choice("$?#@"))
            line.add(f" {_number(rng)}")
            findings.append((None, n, bad + 1))
        else:
            line.add(f"{fresh('y')} = ({_number(rng)} + {_number(rng)}")
            findings.append((None, n, len(line.text) + 1))
        out.append(line.text)
    return "\n".join(out) + "\n", findings


def lint_round(seed: int, round_index: int) -> list[tuple]:
    """One round of lint_files inputs: (text, expected findings, fails).

    Findings are (rule or None for a syntax error, line, column) in the
    order the linter reports them.  Failing files hold one line with a
    '+' chain of LINT_CHAIN_TERMS terms.
    """
    rng = rng_for("lint_files", seed, round_index)
    files = []
    for lines_wanted in LINT_SIZES:
        text, findings = _lint_file(rng, lines_wanted)
        files.append((text, findings, False))
    for _ in range(LINT_FAILING):
        text = "z = " + " + ".join(_number(rng) for _ in range(LINT_CHAIN_TERMS)) + "\n"
        files.append((text, [], True))
    rng.shuffle(files)
    return files


# ----------------------------------------------------------------------
# cli_cold

CLI_COMMANDS = ("convert", "measure", "arc", "chord", "add", "points", "trig", "classify", "table", "lint")
CLI_PERIODS = (("1", 0), ("360", 1), ("400", 2), ("2pi", 3), ("2pi/3", 4))


def _cli_literal(rng, lo, hi):
    """A literal whose value lies in [lo, hi) full circles of its unit."""
    kind = rng.random()
    if kind < 0.4:
        unit = rng.choice(UNIT_NAMES)
        return _decimal_literal(rng, (lo, hi), unit)[0:3] + (unit,)
    if kind < 0.7:
        unit = rng.choice(("radian", "degree"))
        text, q, e = _pi_literal(rng, (lo, hi), unit)
        return text, q, e, unit
    text, q, e, _ = _dms_literal(rng, (lo, hi))
    return text, q, e, "degree"


def cli_round(seed: int, round_index: int) -> list[tuple]:
    """Twenty invocations: every subcommand in both output formats.

    Each item is (argv after the program, stdin text or None, expectation
    data for the checker).  Operands follow `--` (table has none), so a
    signed literal such as `-30°` is not read as an option.  convert and measure take
    signed values; classify, arc, chord and add take values inside the
    range each accepts, and arc and chord integer radii.
    """
    rng = rng_for("cli_cold", seed, round_index)
    ops = []
    for fmt in ("human", "records"):
        for command in CLI_COMMANDS:
            stdin = None
            options = []
            if command == "convert":
                text, q, e, unit = _cli_literal(rng, -4.0, 4.0)
                target = rng.choice([u for u in UNIT_NAMES if u != unit])
                token = rng.choice(UNITS[target][0])
                operands, data = [text, token], (unit, q, e, target)
            elif command == "measure":
                text, q, e, unit = _cli_literal(rng, -0.9, 0.9)
                operands, data = [text], (unit, q, e)
            elif command == "classify":
                text, q, e, unit = _cli_literal(rng, 0.0, 0.9)
                operands, data = [text], (unit, q, e)
            elif command in ("arc", "chord"):
                text, q, e, unit = _cli_literal(rng, 0.01, 0.9)
                radius = str(rng.choice((1, 2, 3, 5, 10, 100)))
                operands, data = [text, radius], (unit, q, e, int(radius))
            elif command == "add":
                first = _cli_literal(rng, 0.01, 0.45)
                second = _cli_literal(rng, 0.01, 0.45)
                operands = [first[0], second[0]]
                data = ((first[3], first[1], first[2]), (second[3], second[1], second[2]))
            elif command == "points":
                while True:
                    coords = [round(rng.uniform(-50.0, 50.0), 3) for _ in range(6)]
                    ux, uy = coords[0] - coords[2], coords[1] - coords[3]
                    vx, vy = coords[4] - coords[2], coords[5] - coords[3]
                    if min(math.hypot(ux, uy), math.hypot(vx, vy)) >= 1.0 and abs(
                        math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
                    ) >= 1e-3:
                        break
                operands, data = list(map(repr, coords)), tuple(coords)
            elif command == "trig":
                function = rng.choice(("sin", "cos", "tan", "arcsin", "arccos"))
                period_text, period_index = rng.choice(CLI_PERIODS)
                if function.startswith("arc"):
                    x = round(rng.uniform(-1.0, 1.0), 6)
                else:
                    x = round(rng.uniform(-1000.0, 1000.0), 4)
                options, operands = ["--period", period_text], [function, repr(x)]
                data = (function, period_index, x)
            elif command == "table":
                operands, data = [], None
            else:
                text, findings = _lint_file(rng, rng.randint(3, 8))
                operands, stdin, data = ["-"], text, findings
            separator = ["--"] if operands else []
            ops.append(([command, "--format", fmt, *options, *separator, *operands], stdin, data))
    return ops
