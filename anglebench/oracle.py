"""Independent checkers for every workload's outputs.

Nothing here imports anglekit.  Expected values are computed from the
generators' own description of each input:

- exact values are recomputed as (Fraction, integer π exponent) pairs,
  following the documented rule that a value stays exact while its π
  exponent stays in {-1, 0, 1};
- orderings across π exponents use bounds on π from mpmath at 300 bits;
- floats are compared with a value computed by mpmath, within a
  tolerance derived from the float operations the documented method
  performs;
- huge-argument trig is reduced by mpmath at 80 bits plus the argument's
  binary exponent, which is exact for |x| up to 1e300;
- text is read back by a reader written here from the documented literal
  grammar;
- lint findings are compared with the rule, line and column where the
  generator placed them.

An expected refusal (UnsupportedFormError, a tangent pole) passes only
where these rules say the input has no answer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

import gen

mpmath.mp.prec = 200
EPS = 2.0**-52
_MAX_COMPONENT = 2**63 - 1

with mpmath.workprec(320):
    _man, _exp = mpmath.mpf(mpmath.pi).man_exp
_PI_MID = Fraction(_man) * Fraction(2) ** _exp
PI_LO = _PI_MID - Fraction(1, 2**300)
PI_HI = _PI_MID + Fraction(1, 2**300)

CIRCLE = {name: spec[2] for name, spec in gen.UNITS.items()}
SYMBOL = {name: spec[1] for name, spec in gen.UNITS.items()}


class Undecided(Exception):
    """The π bounds could not order two values (never for valid inputs)."""


# ----------------------------------------------------------------------
# exact values: ("x", q, e); inexact values: ("f", true value, tolerance)


def exact(q: Fraction, e: int) -> tuple:
    q = Fraction(q)
    return ("x", q, e if q else 0)


def real(value: tuple):
    if value[0] == "x":
        return mpmath.mpf(value[1].numerator) / value[1].denominator * mpmath.pi ** value[2]
    return value[1]


def compare(a: tuple, b: tuple) -> int:
    """Three-way order of two exact values, deciding π by its bounds."""
    (_, q1, e1), (_, q2, e2) = a, b
    if e1 == e2:
        return (q1 > q2) - (q1 < q2)
    s1, s2 = (q1 > 0) - (q1 < 0), (q2 > 0) - (q2 < 0)
    if s1 != s2 or s1 == 0:
        return (s1 > s2) - (s1 < s2)
    k = e1 - e2
    lo, hi = (PI_LO**k, PI_HI**k) if k > 0 else (PI_HI**k, PI_LO**k)
    low, high = (q1 * lo, q1 * hi) if q1 > 0 else (q1 * hi, q1 * lo)
    if low > q2:
        return 1
    if high < q2:
        return -1
    raise Undecided(f"{a} vs {b}")


def times(value: tuple, factor: tuple) -> tuple:
    """value·factor for an exact factor, by the documented exactness rule."""
    if value[0] == "x":
        q, e = value[1] * factor[1], value[2] + factor[2]
        if q == 0 or -1 <= e <= 1:
            return exact(q, e)
        r = real(value) * real(factor)
        return ("f", r, 4 * EPS * abs(r))
    r = value[1] * real(factor)
    return ("f", r, value[2] * abs(real(factor)) + 4 * EPS * abs(r))


def ratio(a: tuple, b: tuple) -> tuple:
    return exact(a[0] / b[0], a[1] - b[1])


def circle(unit: str) -> tuple:
    return exact(*CIRCLE[unit])


def convert(value: tuple, source: str, target: str) -> tuple:
    if source == target:
        return value
    return times(value, ratio(CIRCLE[target], CIRCLE[source]))


def measure(value: tuple, unit: str) -> tuple:
    return times(value, ratio((Fraction(2), 1), CIRCLE[unit]))


def fold(value: tuple, unit: str) -> tuple:
    """The value folded into [0, full circle)."""
    c = circle(unit)
    if value[0] == "x":
        if compare(value, exact(0, 0)) >= 0 and compare(value, c) < 0:
            return value
        if value[2] == c[2]:
            return exact(value[1] % c[1], value[2])
        r, tol = real(value), 4 * EPS * abs(real(value))
    else:
        r, tol = value[1], value[2]
    full = real(c)
    folded = r - full * mpmath.floor(r / full)
    return ("f", folded, tol + 4 * EPS * (abs(r) + full))


def _classify_real(x, full) -> str:
    snap = 1e-12 * full
    for boundary, name in ((0, "zero angle"), (full / 4, "right angle"), (full / 2, "straight angle"), (full, "perigon")):
        if abs(x - boundary) <= snap:
            return name
    if x < full / 4:
        return "acute angle"
    if x < full / 2:
        return "obtuse angle"
    return "reflex angle"


def classify(value: tuple, unit: str) -> set[str]:
    """The acceptable class names (one, unless a float sits on a snap edge)."""
    c = circle(unit)
    if value[0] == "x":
        if value[1] == 0:
            return {"zero angle"}
        quarter = compare(value, exact(c[1] / 4, c[2]))
        if quarter < 0:
            return {"acute angle"}
        if quarter == 0:
            return {"right angle"}
        half = compare(value, exact(c[1] / 2, c[2]))
        if half < 0:
            return {"obtuse angle"}
        if half == 0:
            return {"straight angle"}
        return {"perigon"} if compare(value, c) == 0 else {"reflex angle"}
    full = real(c)
    return {_classify_real(value[1] + k * value[2], full) for k in (-1, -0.5, 0, 0.5, 1)}


PI_VALUE = exact(1, 1)


def in_half_turn(value: tuple) -> bool:
    """Whether a measure lies in (0, π]."""
    if value[0] == "x":
        return compare(value, exact(0, 0)) > 0 and compare(value, PI_VALUE) <= 0
    return 0 < value[1] <= mpmath.pi


def semigroup_add(a: tuple, b: tuple) -> tuple:
    if a[0] == "x" and b[0] == "x" and a[2] == b[2]:
        total = exact(a[1] + b[1], a[2])
        if compare(total, PI_VALUE) > 0:
            if total[2] == 1:
                return exact(total[1] - 1, 1)
            r = real(total) - mpmath.pi
            return ("f", r, 4 * EPS * real(total))
        return total
    ra, rb = real(a), real(b)
    tol = (0 if a[0] == "x" else a[2]) + (0 if b[0] == "x" else b[2]) + 4 * EPS * (ra + rb)
    total = ra + rb
    if total > mpmath.pi:
        return ("f", total - mpmath.pi, tol + 4 * EPS * total)
    return ("f", total, tol)


def matches(expected: tuple, actual) -> bool:
    """Does a serialized scalar (tuple if exact, float if not) match?"""
    if expected[0] == "x":
        return (
            isinstance(actual, tuple)
            and Fraction(actual[0], actual[1]) == expected[1]
            and actual[2] == expected[2]
        )
    return isinstance(actual, float) and abs(mpmath.mpf(actual) - expected[1]) <= expected[2]


# ----------------------------------------------------------------------
# reading text back


_DECIMAL = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_DMS = re.compile(r"([+-]?)(\d+)(?:°|d)(?:(\d+)(?:′|m)(?:(\d+(?:\.\d+)?)(?:″|s))?)?")
_PI = r"(?:π|pi)"
_NUMBER_FORMS = (
    (re.compile(rf"([+-]?)(\d+)/\((\d*){_PI}\)"), "over_d_pi"),
    (re.compile(rf"([+-]?)(\d+)/{_PI}"), "over_pi"),
    (re.compile(rf"([+-]?)(\d+)/(\d+){_PI}"), "ratio_pi"),
    (re.compile(rf"([+-]?)({_DECIMAL})?{_PI}(?:/(\d+))?"), "pi"),
    (re.compile(r"([+-]?)(\d+)/(\d+)"), "fraction"),
    (re.compile(rf"([+-]?)({_DECIMAL})"), "decimal"),
)


def _fits(q: Fraction) -> bool:
    return abs(q.numerator) <= _MAX_COMPONENT and q.denominator <= _MAX_COMPONENT


def read_decimal(text: str) -> tuple:
    """A decimal is exact with at most 15 significant digits, else a float."""
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction.rstrip("0")).strip("0")
    if len(digits) <= 15 and abs(int(exponent or 0)) <= 30:
        q = Fraction(text)
        if _fits(q):
            return exact(q, 0)
    return ("float", float(text))


def read_number(body: str) -> tuple | None:
    for pattern, kind in _NUMBER_FORMS:
        m = pattern.fullmatch(body)
        if m is None:
            continue
        sign = -1 if m.group(1) == "-" else 1
        if kind == "over_d_pi":
            return exact(Fraction(sign * int(m.group(2)), int(m.group(3) or 1)), -1)
        if kind == "over_pi":
            return exact(sign * int(m.group(2)), -1)
        if kind == "ratio_pi":
            return exact(Fraction(sign * int(m.group(2)), int(m.group(3))), 1)
        if kind == "pi":
            coefficient = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            return exact(sign * coefficient / int(m.group(3) or 1), 1)
        if kind == "fraction":
            return exact(Fraction(sign * int(m.group(2)), int(m.group(3))), 0)
        value = read_decimal(m.group(2))
        if value[0] == "x":
            return exact(sign * value[1], 0)
        return ("float", sign * value[1])
    return None


def read_angle(text: str) -> tuple | None:
    """(value, unit symbol) of an angle text, or None if it is not one.

    Sexagesimal seconds with more than 15 significant digits, or a total
    too large for 64-bit components, make the value approximate:
    ("approx", exact Fraction of the text).
    """
    m = _DMS.fullmatch(text)
    if m is not None:
        sign = -1 if m.group(1) == "-" else 1
        total = Fraction(int(m.group(2))) + Fraction(int(m.group(3) or 0), 60)
        seconds = m.group(4)
        if seconds is not None:
            total += Fraction(seconds) / 3600
            if read_decimal(seconds)[0] != "x":
                return ("approx", sign * total), "°"
        if not _fits(total):
            return ("approx", sign * total), "°"
        return exact(sign * total, 0), "°"
    body, space, unit = text.rpartition(" ")
    if not space:
        return None
    value = read_number(body)
    return None if value is None else (value, unit)


def same_reading(reading: tuple, actual) -> bool:
    """Does a parsed-back scalar equal what the text says?"""
    if reading[0] == "x":
        return matches(reading, actual)
    if reading[0] == "float":
        return isinstance(actual, float) and actual == reading[1]
    return isinstance(actual, float) and abs(Fraction(actual) - reading[1]) <= 8 * EPS * abs(reading[1])


def _terminating_digits(q: Fraction) -> int | None:
    """Significant digits of q's terminating decimal, None if it repeats."""
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return None
    scaled = abs(q) * 10 ** max(twos, fives)
    return len(str(int(scaled)).strip("0"))


def _float_text_ok(actual_float: float, text_value: tuple) -> bool:
    if text_value[0] == "x":
        return float(text_value[1]) == actual_float and text_value[2] == 0
    return text_value[0] == "float" and text_value[1] == actual_float


def check_text(form: str, value: tuple, actual_float, unit: str, text) -> bool:
    """Is `text` the right rendering of the expected value in `form`?"""
    symbol = SYMBOL[unit]
    if form == "dms":
        if unit != "degree":
            return text is None
        if value[0] == "x":
            if value[2] != 0:
                return text is None
            total = abs(value[1])
            rest = (total - int(total)) * 60
            seconds = (rest - int(rest)) * 60
            if seconds and (_terminating_digits(seconds) or 16) > 15:
                return text is None
        if text is None or _DMS.fullmatch(text) is None:
            return False
        reading, _ = read_angle(text)
        if value[0] == "x":
            return reading == value
        return abs(reading[1] - Fraction(actual_float)) <= Fraction(1e-12) * max(1, abs(actual_float))
    if text is None:
        return False
    parsed = read_angle(text)
    if parsed is None or parsed[1] != symbol:
        return False
    reading = parsed[0]
    if value[0] != "x":
        return _float_text_ok(actual_float, reading)
    if reading != value:
        return False
    if form == "decimal" and value[2] == 0:
        digits = _terminating_digits(value[1])
        plain = re.fullmatch(r"-?\d+(?:\.\d+)?", text.rpartition(" ")[0]) is not None
        return plain == (digits is not None and digits <= 15)
    return True


# ----------------------------------------------------------------------
# exact_pipeline


def check_exact_round(items: list, outputs: list) -> list[bool]:
    verdicts = []
    previous = None
    for item, out in zip(items, outputs):
        try:
            ok, previous = _check_exact_op(item, out, previous)
        except Undecided:
            ok, previous = False, None
        verdicts.append(ok)
    return verdicts


def _check_exact_op(item, out, previous):
    text, unit, target, is_exact, q, e, form = item
    # The chain moves on with the true result whatever anglekit did.
    value = exact(q, e) if is_exact else ("f", mpmath.mpf(float(q)), 0)
    w = convert(value, unit, target)
    m = measure(w, target)
    f = fold(w, target)
    mf = measure(f, target)
    in_range = in_half_turn(mf)
    total = semigroup_add(previous, mf) if previous is not None and in_range else None
    following = mf if in_range else None
    if not isinstance(out, tuple) or out[0] == "ERR":
        return False, following
    a_form, a_v, a_w, a_m, a_f, a_class, a_mf, a_total, texts, backs = out
    ok = (
        a_form == form
        and a_v[1] == unit
        and matches(value, a_v[0])
        and a_w[1] == target
        and matches(w, a_w[0])
        and matches(m, a_m)
        and a_f[1] == target
        and matches(f, a_f[0])
        and a_class in classify(f, target)
        and matches(mf, a_mf)
        and (a_total is None) == (total is None)
        and (total is None or matches(total, a_total))
    )
    if not ok:
        return False, following
    w_float = a_w[0] if isinstance(a_w[0], float) else None
    for form_name, rendered, back in zip(("decimal", "symbolic_pi", "dms"), texts, backs):
        if not check_text(form_name, w, w_float, target, rendered):
            return False, following
        if rendered is None:
            continue
        reading = read_angle(rendered)[0]
        if back is None or back[1] != target or not same_reading(reading, back[0]):
            return False, following
    return True, following


# ----------------------------------------------------------------------
# numeric_sweep


def _exponent(x: float) -> int:
    return math.frexp(x)[1] if x else 0


def trig_truth(period_index: int, x: float):
    """(sin, cos, pole) of the periodized functions at x."""
    _, c, e = gen.PERIODS[period_index]
    if e == 0:
        turns = (Fraction(x) % c) / c
        with mpmath.workprec(113):
            theta = 2 * mpmath.pi * mpmath.mpf(turns.numerator) / turns.denominator
            s, co = mpmath.sin(theta), mpmath.cos(theta)
        quarters = turns * 4
        return s, co, quarters.denominator == 1 and quarters.numerator % 2 == 1
    with mpmath.workprec(80 + max(0, _exponent(x))):
        theta = mpmath.mpf(x) * (2 * c.denominator) / c.numerator
        return mpmath.sin(theta), mpmath.cos(theta), False


def _close(actual, truth, tol) -> bool:
    return isinstance(actual, float) and abs(mpmath.mpf(actual) - truth) <= tol


TRIG_TOLERANCE = 4e-15


def check_trig(period_index: int, x: float, s, c, t) -> bool:
    S, C, pole = trig_truth(period_index, x)
    if not (_close(s, S, TRIG_TOLERANCE) and _close(c, C, TRIG_TOLERANCE)):
        return False
    if pole:
        return t is None
    T = S / C
    return _close(t, T, TRIG_TOLERANCE * (1 + T * T))


def period_value(period_index: int) -> tuple:
    _, c, e = gen.PERIODS[period_index]
    return exact(c, e)


_BUILTIN_BY_PERIOD = {0: "turn", 1: "degree", 2: "gon", 3: "radian"}


def inverse_truth(kind: str, period_index: int, x: float):
    with mpmath.workprec(113):
        theta = mpmath.asin(x) if kind == "arcsin" else mpmath.acos(x)
        return theta / (2 * mpmath.pi) * real(period_value(period_index))


def check_numeric_op(item: tuple, out) -> bool:
    if isinstance(out, tuple) and out and out[0] == "ERR":
        return False
    tag = item[0]
    if tag == "trig":
        return check_trig(item[1], item[2], *out)
    if tag == "inverse":
        _, kind, p, x = item
        value, name, full = out
        period = period_value(p)
        builtin = _BUILTIN_BY_PERIOD.get(p)
        name_ok = name == builtin if builtin else name not in gen.UNITS
        scale = real(period)
        return (
            name_ok
            and matches(period, full)
            and _close(value, inverse_truth(kind, p, x), 8 * EPS * scale)
        )
    if tag == "chord_integral":
        return _close(out, mpmath.asin(item[1]), 1e-9)
    if tag == "chord_length":
        _, unit, n, d, e, radius = item
        phi = real(measure(exact(Fraction(n, d), e), unit))
        return _close(out, 2 * radius * mpmath.sin(phi / 2), 32 * EPS * radius)
    px, py, vx, vy, qx, qy = (mpmath.mpf(v) for v in item[1:])
    ux, uy, wx, wy = px - vx, py - vy, qx - vx, qy - vy
    truth = mpmath.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    return _close(out, truth, 1e-12)


def check_numeric_round(items: list, outputs: list) -> list[bool]:
    return [check_numeric_op(item, out) for item, out in zip(items, outputs)]


# ----------------------------------------------------------------------
# lint_files


def check_lint_round(items: list, outputs: list) -> list[bool]:
    return [
        isinstance(out, tuple) and (not out or out[0] != "ERR") and list(out) == list(item[1])
        for item, out in zip(items, outputs)
    ]


# ----------------------------------------------------------------------
# cli_cold


def _records(stdout: str) -> dict:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            return {}
        pairs[key] = value
    return pairs


def _scalar_text_ok(expected: tuple, body: str) -> bool:
    reading = read_number(body)
    if reading is None:
        return False
    if expected[0] == "x":
        return reading == expected
    if reading[0] == "x" and reading[2] != 0:
        return False
    value = float(reading[1])
    return abs(mpmath.mpf(value) - expected[1]) <= expected[2] + 4 * EPS * abs(expected[1])


def _float_body_ok(truth, tol, body: str) -> bool:
    try:
        value = float(body)
    except ValueError:
        return False
    return abs(mpmath.mpf(value) - truth) <= tol


def _literal(data) -> tuple:
    unit, q, e = data[:3]
    return exact(q, e), unit


def check_cli_op(argv: list, data, result) -> bool:
    rc, stdout, stderr = result
    command = argv[0]
    records = argv[2] == "records"
    lines = stdout.splitlines()
    pairs = _records(stdout) if records else {}
    if command == "trig":
        function, p, x = data
        if function in ("sin", "cos", "tan"):
            S, C, pole = trig_truth(p, x)
            if function == "tan" and pole:
                return rc == 6 and stdout == "" and stderr.startswith("error: ")
            truth = {"sin": S, "cos": C, "tan": S / C if not pole else 0}[function]
            tol = TRIG_TOLERANCE * (1 + truth * truth if function == "tan" else 1)
            body = pairs.get("value") if records else (lines[0] if len(lines) == 1 else None)
            return rc == 0 and body is not None and _float_body_ok(truth, tol, body)
        truth = inverse_truth(function, p, x)
        tol = 8 * EPS * real(period_value(p))
        builtin = _BUILTIN_BY_PERIOD.get(p)
        if records:
            body, unit = pairs.get("value"), pairs.get("unit")
        else:
            body, _, unit = (lines[0] if len(lines) == 1 else "").rpartition(" ")
        if body is None or unit is None:
            return False
        unit_ok = unit == SYMBOL[builtin] if builtin else unit not in SYMBOL.values()
        return rc == 0 and unit_ok and _float_body_ok(truth, tol, body)
    if rc != (1 if command == "lint" and data else 0) or stderr:
        return False
    if command in ("convert", "measure"):
        value, unit = _literal(data)
        if command == "convert":
            expected, symbol = convert(value, unit, data[3]), SYMBOL[data[3]]
            keys = ("value", "unit")
        else:
            expected, symbol = measure(value, unit), None
            keys = ("measure",)
        if records:
            if pairs.get("exact") != ("true" if expected[0] == "x" else "false"):
                return False
            if symbol is not None and pairs.get("unit") != symbol:
                return False
            body = pairs.get(keys[0])
        else:
            if len(lines) != 1:
                return False
            body = lines[0]
            if symbol is not None:
                body, _, unit_text = body.rpartition(" ")
                if unit_text != symbol:
                    return False
        return body is not None and _scalar_text_ok(expected, body)
    if command == "classify":
        value, unit = _literal(data)
        name = pairs.get("class") if records else (lines[0] if len(lines) == 1 else None)
        return name in classify(value, unit)
    if command in ("arc", "chord"):
        value, unit = _literal(data)
        radius = data[3]
        phi = measure(value, unit)
        if command == "chord":
            truth = 2 * radius * mpmath.sin(real(phi) / 2)
            body = pairs.get("chord") if records else (lines[0] if len(lines) == 1 else None)
            return body is not None and _float_body_ok(truth, 32 * EPS * radius, body)
        product = times(phi, exact(radius, 0))
        truth = real(phi) * radius
        tol = (0 if phi[0] == "x" else phi[2] * radius) + 8 * EPS * truth
        if records:
            body, symbolic = pairs.get("length"), pairs.get("exact")
        else:
            m = re.fullmatch(r"(\S+)(?: \(exactly (\S+)\))?", lines[0] if len(lines) == 1 else "")
            if m is None:
                return False
            body, symbolic = m.group(1), m.group(2)
        if body is None or not _float_body_ok(truth, tol, body):
            return False
        if product[0] != "x":
            return symbolic is None
        return symbolic is not None and read_number(symbolic) == product
    if command == "add":
        (a, a_unit), (b, b_unit) = _literal(data[0]), _literal(data[1])
        expected = semigroup_add(measure(a, a_unit), measure(b, b_unit))
        if records:
            if pairs.get("exact") != ("true" if expected[0] == "x" else "false"):
                return False
            body = pairs.get("measure")
        else:
            body = lines[0] if len(lines) == 1 else None
        return body is not None and _scalar_text_ok(expected, body)
    if command == "points":
        p = [mpmath.mpf(v) for v in data]
        ux, uy, wx, wy = p[0] - p[2], p[1] - p[3], p[4] - p[2], p[5] - p[3]
        truth = mpmath.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
        body = pairs.get("measure") if records else (lines[0] if len(lines) == 1 else None)
        return body is not None and _float_body_ok(truth, 1e-12, body)
    if command == "table":
        return _check_table(lines, records)
    return _check_lint_output(lines, records, data)


def _check_table(lines: list, records: bool) -> bool:
    names = gen.UNIT_NAMES
    expected = {(s, t): ratio(CIRCLE[t], CIRCLE[s]) for s in names for t in names}
    if records:
        seen = {}
        for line in lines:
            m = re.fullmatch(r"(\w+)->(\w+)=(\S+)", line)
            if m is None:
                return False
            seen[(m.group(1), m.group(2))] = read_number(m.group(3))
        return seen == expected
    if len(lines) != len(names) + 1 or lines[0].split() != ["from\\to", *names]:
        return False
    for source, line in zip(names, lines[1:]):
        cells = line.split()
        if cells[0] != source or len(cells) != len(names) + 1:
            return False
        if any(read_number(cell) != expected[(source, target)] for cell, target in zip(cells[1:], names)):
            return False
    return True


def _check_lint_output(lines: list, records: bool, findings: list) -> bool:
    seen = []
    pattern = r"finding=(\d+):(\d+):([A-Za-z-]+):.*" if records else r"(\d+):(\d+): ([A-Za-z-]+): .*"
    for line in lines:
        m = re.fullmatch(pattern, line)
        if m is None:
            return False
        rule = None if m.group(3) == "syntax" else m.group(3)
        seen.append((rule, int(m.group(1)), int(m.group(2))))
    return seen == list(findings)


def check_cli_setup(result) -> bool:
    rc, stdout, stderr = result
    return rc == 0 and stderr == "" and stdout == "π rad\n"


def check_cli_round(items: list, outputs: list) -> list[bool]:
    verdicts = []
    for (argv, _, data), result in zip(items, outputs):
        try:
            verdicts.append(check_cli_op(argv, data, result))
        except Undecided:
            verdicts.append(False)
    return verdicts
