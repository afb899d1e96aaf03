"""The workloads: their ops, as calls into anglekit's public API, and
`WORKLOADS`, the one table of what the harness, the analysis and the
self-test need to know about each workload.

Every call into a layer goes through a `Layers` object.  Untraced, its
attributes are anglekit's own functions; traced, each one is wrapped in a
span that records (name, start, end).  The ops are the same code in both
modes, so the difference between a traced and an untraced round is the
cost of the spans alone.

Outputs that hold anglekit objects are turned into plain tuples
(`serialize`) outside the timed region: an exact scalar becomes
(numerator, denominator, pi_exponent) and an inexact one its float.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple

from anglekit import (
    AngleValue,
    ExactScalar,
    Magnitude,
    Measure,
    PlanarPoint,
    angle_from_points,
    chord_integral,
    chord_length,
    classify,
    convert,
    eval_inverse,
    eval_periodized,
    lint_text,
    measure_of,
    reduce_principal,
    semigroup_add,
)
from anglekit import quadrature, textio
from anglekit.errors import ParseError, PoleError, UnsupportedFormError

import gen
from harness import CLOCK

PI = ExactScalar(1, 1, 1)
ONE = ExactScalar(1)
THREE_SEVENTHS = ExactScalar(3, 7)
ZERO = ExactScalar(0)
HUGE = 10**gen.HUGE_LOG10
PI_PERIOD = tuple(e == 1 for _, _, e in gen.PERIODS)


def _count_nodes(tree) -> int:
    return sum(1 for _ in textio.walk(tree))


# Span name -> the public function it times.  The exact.* entries are
# direct probes on each op's operands, made only in traced rounds.
LAYER_FUNCTIONS = {
    "textio.parse_angle": textio.parse_angle,
    "textio.format_angle": textio.format_angle,
    "angles.convert": convert,
    "angles.measure_of": measure_of,
    "angles.reduce_principal": reduce_principal,
    "angles.classify": classify,
    "angles.semigroup_add": semigroup_add,
    "exact.construct": ExactScalar,
    "exact.add": operator.add,
    "exact.mul": operator.mul,
    "exact.compare_same": ExactScalar.compare,
    "exact.compare_mixed": ExactScalar.compare,
    "exact.render": ExactScalar.render,
    "exact.to_float": ExactScalar.to_float,
    "trig.eval_rational_period": eval_periodized,
    "trig.eval_pi_period": eval_periodized,
    "trig.eval_huge_arg": eval_periodized,
    "trig.eval_inverse": eval_inverse,
    "geometry.chord_integral": chord_integral,
    "geometry.chord_length": chord_length,
    "geometry.angle_from_points": angle_from_points,
    "lint.lint_text": lint_text,
    "textio.parse_expression": textio.parse_expression,
    "textio.walk": _count_nodes,
}


def _traced(spans: list, name: str, fn):
    clock = CLOCK

    def call(*args):
        start = clock()
        try:
            return fn(*args)
        finally:
            spans.append((name, start, clock()))

    return call


class Layers:
    """Attribute per layer call; `spans` is None for untraced rounds."""

    def __init__(self, spans: list | None = None):
        self.spans = spans
        for name, fn in LAYER_FUNCTIONS.items():
            setattr(self, name.split(".", 1)[1], fn if spans is None else _traced(spans, name, fn))


def scalar(x: ExactScalar):
    if x.is_exact:
        return (x.numerator, x.denominator, x.pi_exponent)
    return x.inexact_value


def angle(a: AngleValue):
    return (scalar(a.value), a.reference.name)


# ----------------------------------------------------------------------
# exact_pipeline


def exact_op(L: Layers, objects: dict, item: tuple, previous):
    """Parse, convert, measure, fold, classify, add, format, parse back.

    The last field of the output is the folded measure when it lies in
    (0, π], else None; the next op adds its own to it.
    """
    literal = L.parse_angle(item[0])
    v = literal.parsed
    w = L.convert(v, objects["references"][item[2]])
    m = L.measure_of(w)
    f = L.reduce_principal(w)
    c = L.classify(f)
    mf = L.measure_of(f).value
    in_range = mf.compare(ZERO) > 0 and mf.compare(PI) <= 0
    carried = None if previous is None else previous[-1]
    total = None
    if in_range and carried is not None:
        total = L.semigroup_add(Magnitude(Measure(carried)), Magnitude(Measure(mf))).measure.value
    texts = []
    backs = []
    for form in objects["forms"]:
        try:
            text = L.format_angle(w, form)
        except UnsupportedFormError:
            texts.append(None)
            backs.append(None)
            continue
        texts.append(text)
        backs.append(L.parse_angle(text).parsed)
    return (literal.form, v, w, m, f, c, mf, total, texts, backs, mf if in_range else None)


def exact_serialize(out):
    form, v, w, m, f, c, mf, total, texts, backs, _ = out
    return (
        form,
        angle(v),
        angle(w),
        scalar(m.value),
        angle(f),
        c.value,
        scalar(mf),
        None if total is None else scalar(total),
        tuple(texts),
        tuple(None if b is None else angle(b) for b in backs),
    )


def exact_probe(L: Layers, item, out, counts: dict) -> None:
    v = out[1].value
    w = out[2].value
    if v.is_exact:
        L.construct(v.numerator, v.denominator, v.pi_exponent)
        twice = L.add(v, v)
        L.mul(v, THREE_SEVENTHS)
        L.compare_same(v, twice)
        L.compare_mixed(v, ONE if v.pi_exponent == 1 else PI)
    L.render(w)
    L.to_float(w)
    counts["results"] = counts.get("results", 0) + 1
    counts["exact_results"] = counts.get("exact_results", 0) + out[6].is_exact


# ----------------------------------------------------------------------
# numeric_sweep


def numeric_op(L: Layers, objects: dict, item: tuple, previous):
    tag = item[0]
    if tag == "trig":
        _, p, x = item
        sin_f, cos_f, tan_f = objects["functions"][p]
        if abs(x) >= HUGE:
            evaluate = L.eval_huge_arg
        elif PI_PERIOD[p]:
            evaluate = L.eval_pi_period
        else:
            evaluate = L.eval_rational_period
        s = evaluate(sin_f, x)
        c = evaluate(cos_f, x)
        try:
            t = evaluate(tan_f, x)
        except PoleError:
            t = None
        return (s, c, t)
    if tag == "inverse":
        _, kind, p, x = item
        result = L.eval_inverse(kind, objects["periods"][p], x)
        return (scalar(result.value), result.reference.name, scalar(result.reference.full_circle))
    if tag == "chord_integral":
        return L.chord_integral(item[1])
    if tag == "chord_length":
        _, unit, n, d, e, radius = item
        value = AngleValue(ExactScalar(n, d, e), objects["references"][unit])
        return L.chord_length(value, radius)
    _, px, py, vx, vy, qx, qy = item
    magnitude = L.angle_from_points(PlanarPoint(px, py), PlanarPoint(vx, vy), PlanarPoint(qx, qy))
    return scalar(magnitude.measure.value)


def integrand_calls(x: float) -> int:
    """Integrand evaluations `integrate` spends on chord_integral(x).

    Uses the chord integral's own bounds, integrand and tolerance with a
    counting integrand, so the count repeats exactly for a given x.
    """
    calls = 0

    def f(u):
        nonlocal calls
        calls += 1
        return 2.0 / math.sqrt(2.0 - u * u)

    if x > 0.0:
        quadrature.integrate(f, math.sqrt(1.0 - x), 1.0, tolerance=1e-11)
    return calls


def numeric_probe(L: Layers, item, out, counts: dict) -> None:
    if item[0] == "chord_integral":
        counts["integrals"] = counts.get("integrals", 0) + 1
        counts["integrand_calls"] = counts.get("integrand_calls", 0) + integrand_calls(item[1])


# ----------------------------------------------------------------------
# lint_files


def lint_op(L: Layers, objects: dict, item: tuple, previous):
    return L.lint_text(item[0])


def lint_serialize(out):
    return tuple((f.rule, f.line, f.column) for f in out)


_STATEMENT = re.compile(r"^\s*(?:angle|length)\s+[A-Za-z_][A-Za-z0-9_]*\s*(?:=\s*(?P<expr>.*))?$")


def lint_probe(L: Layers, item, out, counts: dict) -> None:
    """Parse and walk each line's expression the way the linter reads it."""
    counts["files"] = counts.get("files", 0) + 1
    counts["findings"] = counts.get("findings", 0) + len(out)
    for line in item[0].splitlines():
        if not line.strip():
            continue
        counts["lines"] = counts.get("lines", 0) + 1
        m = _STATEMENT.match(line)
        if m is not None:
            if m.group("expr") is None:
                continue
            expression, offset = m.group("expr"), m.start("expr")
        else:
            expression, offset = line, 0
        try:
            tree = L.parse_expression(expression, offset)
        except ParseError:
            continue
        counts["parsed_lines"] = counts.get("parsed_lines", 0) + 1
        counts["nodes"] = counts.get("nodes", 0) + L.walk(tree)


# ----------------------------------------------------------------------
# the workload table


class Workload(NamedTuple):
    generate: Callable  # (seed, round index) -> the inputs of one round
    # Name of the oracle function that checks one round's outputs.  A name,
    # because the checkers (and mpmath) are imported only once peak RSS
    # has been read.
    check: str
    fails: Callable  # input -> whether it meets one of the known faults
    op: Callable | None = None  # None for cli_cold, whose op is a process
    serialize: Callable | None = None  # None: the output is stored as it is
    probe: Callable | None = None  # traced rounds: counts and exact.* probes
    spans: tuple = ()  # span names reported as `<name>_us` per-layer metrics


def _never(item) -> bool:
    return False


WORKLOADS = {
    "exact_pipeline": Workload(
        gen.exact_round,
        "check_exact_round",
        _never,
        exact_op,
        exact_serialize,
        exact_probe,
        (
            "textio.parse_angle",
            "textio.format_angle",
            "angles.convert",
            "angles.measure_of",
            "angles.reduce_principal",
            "angles.classify",
            "angles.semigroup_add",
            "exact.construct",
            "exact.add",
            "exact.mul",
            "exact.compare_same",
            "exact.compare_mixed",
            "exact.render",
            "exact.to_float",
        ),
    ),
    "numeric_sweep": Workload(
        gen.numeric_round,
        "check_numeric_round",
        gen.numeric_fails,
        numeric_op,
        None,
        numeric_probe,
        (
            "trig.eval_rational_period",
            "trig.eval_pi_period",
            "trig.eval_huge_arg",
            "trig.eval_inverse",
            "geometry.chord_integral",
            "geometry.chord_length",
            "geometry.angle_from_points",
        ),
    ),
    "lint_files": Workload(
        gen.lint_round,
        "check_lint_round",
        lambda item: item[2],
        lint_op,
        lint_serialize,
        lint_probe,
        ("textio.parse_expression", "textio.walk"),
    ),
    "cli_cold": Workload(gen.cli_round, "check_cli_round", _never),
}
INPROCESS = tuple(name for name, spec in WORKLOADS.items() if spec.op is not None)
