"""The immutable value records: construction, equality, hash, repr,
immutability, validation, copying and pickling, and the import set."""

import ast
import copy
import importlib
import os
import pathlib
import pickle
import random
import subprocess
import sys
import types

import pytest

from anglekit.angles import DEGREE, RADIAN, AngleValue, Magnitude, Measure, ReferenceAngle
from anglekit.errors import DomainError, ParseError, RadiusError, RangeError
from anglekit import exact as exact_module
from anglekit.exact import ONE, PI, ExactScalar, Record
from anglekit.geometry import ArcSpec, PlanarPoint
from anglekit.lint import LintFinding, lint_text
from anglekit.textio import (
    AngleLiteral,
    BinaryOperation,
    ExpressionNode,
    FunctionApplication,
    Identifier,
    NumberLiteral,
    QuantityLiteral,
    _build_tree,
    parse_angle,
    parse_expression,
    walk,
)
from anglekit.trig import PeriodizedFunction, UnitCirclePoint

ROOT = pathlib.Path(__file__).resolve().parents[1]

HALF_PI = Measure(ExactScalar(1, 2, 1))
RADIAN_REPR = "ReferenceAngle(name='radian', symbol='rad', full_circle=ExactScalar(2, 1, pi_exponent=1))"
DEGREE_REPR = "ReferenceAngle(name='degree', symbol='°', full_circle=ExactScalar(360, 1, pi_exponent=0))"
X = Identifier(0, "x")

# class, its fields in order, the same fields with one value changed, the repr
RECORDS = [
    (
        ReferenceAngle,
        {"name": "degree", "symbol": "°", "full_circle": ExactScalar(360)},
        {"name": "degree", "symbol": "°", "full_circle": ExactScalar(400)},
        DEGREE_REPR,
    ),
    (
        AngleValue,
        {"value": ExactScalar(3, 4, 1), "reference": RADIAN},
        {"value": ExactScalar(3, 4, 1), "reference": DEGREE},
        f"AngleValue(value=ExactScalar(3, 4, pi_exponent=1), reference={RADIAN_REPR})",
    ),
    (
        Measure,
        {"value": ExactScalar(1, 2, 1)},
        {"value": ExactScalar(1, 3, 1)},
        "Measure(value=ExactScalar(1, 2, pi_exponent=1))",
    ),
    (
        Magnitude,
        {"measure": HALF_PI},
        {"measure": Measure(PI)},
        "Magnitude(measure=Measure(value=ExactScalar(1, 2, pi_exponent=1)))",
    ),
    (
        PlanarPoint,
        {"x": 1.0, "y": -2.5},
        {"x": 1.0, "y": 2.5},
        "PlanarPoint(x=1.0, y=-2.5)",
    ),
    (
        ArcSpec,
        {"radius": 2.0, "measure": Measure(PI)},
        {"radius": 3.0, "measure": Measure(PI)},
        "ArcSpec(radius=2.0, measure=Measure(value=ExactScalar(1, 1, pi_exponent=1)))",
    ),
    (
        LintFinding,
        {"rule": None, "line": 2, "column": 5, "message": "unexpected end", "excerpt": "x ="},
        {"rule": None, "line": 3, "column": 5, "message": "unexpected end", "excerpt": "x ="},
        "LintFinding(rule=None, line=2, column=5, message='unexpected end', excerpt='x =')",
    ),
    (
        AngleLiteral,
        {"raw": "3π/4 rad", "parsed": AngleValue(ExactScalar(3, 4, 1), RADIAN), "form": "symbolic_pi"},
        {"raw": "3π/4 rad", "parsed": AngleValue(ExactScalar(3, 4, 1), RADIAN), "form": "decimal"},
        "AngleLiteral(raw='3π/4 rad', parsed=AngleValue(value=ExactScalar(3, 4, pi_exponent=1), "
        f"reference={RADIAN_REPR}), form='symbolic_pi')",
    ),
    (
        ExpressionNode,
        {"position": 3},
        {"position": 4},
        "ExpressionNode(position=3)",
    ),
    (
        NumberLiteral,
        {"position": 18, "value": ExactScalar(2)},
        {"position": 18, "value": ExactScalar(3)},
        "NumberLiteral(position=18, value=ExactScalar(2, 1, pi_exponent=0))",
    ),
    (
        QuantityLiteral,
        {"position": 4, "value": ExactScalar(30), "reference": DEGREE, "unit_text": "deg"},
        {"position": 4, "value": ExactScalar(30), "reference": DEGREE, "unit_text": "°"},
        f"QuantityLiteral(position=4, value=ExactScalar(30, 1, pi_exponent=0), reference={DEGREE_REPR}, "
        "unit_text='deg')",
    ),
    (
        Identifier,
        {"position": 14, "name": "x"},
        {"position": 14, "name": "y"},
        "Identifier(position=14, name='x')",
    ),
    (
        FunctionApplication,
        {"position": 0, "name": "sin", "argument": X},
        {"position": 0, "name": "cos", "argument": X},
        "FunctionApplication(position=0, name='sin', argument=Identifier(position=0, name='x'))",
    ),
    (
        BinaryOperation,
        {"position": 2, "operator": "+", "left": X, "right": NumberLiteral(4, ONE)},
        {"position": 2, "operator": "*", "left": X, "right": NumberLiteral(4, ONE)},
        "BinaryOperation(position=2, operator='+', left=Identifier(position=0, name='x'), "
        "right=NumberLiteral(position=4, value=ExactScalar(1, 1, pi_exponent=0)))",
    ),
    (
        PeriodizedFunction,
        {"kind": "sin", "period": ExactScalar(360)},
        {"kind": "cos", "period": ExactScalar(360)},
        "PeriodizedFunction(kind='sin', period=ExactScalar(360, 1, pi_exponent=0))",
    ),
    (
        UnitCirclePoint,
        {"re": 0.6, "im": 0.8},
        {"re": 0.8, "im": 0.6},
        "UnitCirclePoint(re=0.6, im=0.8)",
    ),
]

IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields, other, text):
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        for name, value in fields.items():
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        assert by_position == by_keyword

    def test_equality(self, cls, fields, other, text):
        record = cls(**fields)
        assert record == cls(**fields)
        assert not record != cls(**fields)
        assert record != cls(**other)
        assert not record == cls(**other)
        assert record != tuple(fields.values())

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, other, text):
        assert hash(cls(**fields)) == hash(cls(**fields)) == hash(tuple(fields.values()))

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(**fields)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, other, text):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_records_do_not_order(self, cls, fields, other, text):
        with pytest.raises(TypeError):
            cls(**fields) < cls(**other)

    def test_copy_and_pickle_give_an_equal_record(self, cls, fields, other, text):
        record = cls(**fields)
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls
            assert twin == record
            assert repr(twin) == text


def test_node_classes_with_equal_fields_differ():
    assert NumberLiteral(5, "x") != Identifier(5, "x")
    assert not NumberLiteral(5, "x") == Identifier(5, "x")
    assert ExpressionNode(5) != Identifier(5, "x")
    assert Measure(PI) != AngleValue(PI, RADIAN)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ReferenceAngle("half", "h", ExactScalar.inexact(0.5)), DomainError, "period must be an exact number"),
        (lambda: ReferenceAngle("none", "n", ExactScalar(0)), DomainError, "period must be positive"),
        (lambda: Magnitude(Measure(ExactScalar(0))), DomainError, "a magnitude requires a measure in (0, 2π]"),
        (lambda: Magnitude(Measure(ExactScalar(3, 1, 1))), DomainError, "a magnitude requires a measure in (0, 2π]"),
        (lambda: PlanarPoint(float("inf"), 0.0), DomainError, "planar points need finite coordinates"),
        (lambda: PlanarPoint(0.0, float("nan")), DomainError, "planar points need finite coordinates"),
        (lambda: ArcSpec(0.0, Measure(PI)), RadiusError, "radius must be positive and finite"),
        (lambda: ArcSpec(1.0, Measure(ExactScalar(0))), RangeError, "arc measure must lie in (0, 2π]"),
        (lambda: PeriodizedFunction("sec", ExactScalar(360)), ValueError, "kind must be one of ('sin', 'cos', 'tan')"),
        (lambda: PeriodizedFunction("sin", ExactScalar(-1)), DomainError, "period must be positive"),
        (lambda: UnitCirclePoint(1.0, 1.0), ValueError, "point is off the unit circle"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "value",
    [
        ExactScalar(1, 3, 1),
        ExactScalar(-7, 2, -1),
        ExactScalar.inexact(0.5),
        DEGREE,
        parse_angle("12°34′56″"),
        parse_angle("3π/4 rad"),
        parse_expression("sin(30 deg) + x * 2 / y = 1"),
        lint_text("angle a = 3")[0],
    ],
    ids=["exact", "reciprocal", "inexact", "DEGREE", "dms", "symbolic", "tree", "finding"],
)
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_exact_scalar_fields_cannot_be_deleted():
    value = ExactScalar(1, 3, 1)
    with pytest.raises(AttributeError):
        del value.numerator
    assert value.numerator == 1


def _modules_of_the_package():
    import anglekit

    return [
        importlib.import_module(f"anglekit.{path.stem}")
        for path in sorted(pathlib.Path(anglekit.__file__).parent.glob("*.py"))
        if path.stem != "__init__"
    ]


def test_no_record_is_built_through_object_setattr():
    """Records set their slots through the slot setters, which are about twice as fast."""
    calls = []
    for module in _modules_of_the_package():
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        calls += [
            f"{module.__name__}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert calls == []


def test_each_slot_has_one_setter_that_refuses_other_classes():
    modules = _modules_of_the_package()
    setters = [value for module in modules for name, value in vars(module).items() if name.startswith("_set_")]
    slots = [
        cls.__dict__[name]
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, (Record, ExactScalar)) and cls.__module__ == module.__name__
        for name in cls.__dict__.get("__slots__", ())
    ]
    assert len(slots) == 38
    assert sorted(map(id, slots)) == sorted(id(setter.__self__) for setter in setters)
    for setter in setters:
        assert isinstance(setter.__self__, types.MemberDescriptorType)
        with pytest.raises(TypeError, match="doesn't apply to a 'object' object"):
            setter(object(), None)
    measure = Measure(PI)
    with pytest.raises(TypeError):
        exact_module._set_numerator(measure, 1)
    assert measure.value is PI and not hasattr(measure, "numerator")


def _import_modules_of_the_benchmark():
    tree = ast.parse((ROOT / "anglebench" / "harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "IMPORT_MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("anglebench/harness.py defines no IMPORT_MODULES")


def test_the_cli_imports_no_heavy_standard_modules():
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import anglekit.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert loaded.isdisjoint(
        {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "fractions", "decimal", "numbers"}
    )
    wanted = {name for name in _import_modules_of_the_benchmark() if name.startswith("anglekit")}
    assert "anglekit.cli" in wanted
    assert wanted <= loaded


def test_importing_the_cli_compiles_no_deferred_pattern():
    """No anglekit module compiles a pattern at import, and each deferred one compiles on its first use.

    The deferred patterns are found in the modules' globals, so one that a
    new path adds is checked too, and a typo in a pattern only an error
    path reads fails here rather than in a user's hands.
    """
    child = (
        "import importlib, pkgutil, re, sys\n"
        "compiled, compile = [], re.compile\n"
        "def hook(pattern, flags=0):\n"
        "    compiled.append(sys._getframe(1).f_globals['__name__'])\n"
        "    return compile(pattern, flags)\n"
        "re.compile = hook\n"
        "import anglekit\n"
        "modules = [importlib.import_module('anglekit.' + m.name) for m in pkgutil.iter_modules(anglekit.__path__)]\n"
        "from anglekit.textio import _Deferred\n"
        "print([name for name in compiled if name.startswith('anglekit')])\n"
        "deferred = [(m, k) for m in modules for k, v in vars(m).items() if isinstance(v, _Deferred)]\n"
        "for module, name in deferred:\n"
        "    getattr(module, name).groups\n"  # the first use compiles it into the global
        "print(sorted(f'{m.__name__}.{k}' for m, k in deferred if isinstance(getattr(m, k), re.Pattern)))\n"
        "print(compiled.count('anglekit.textio') >= len(deferred) > 0)\n"  # the hook saw each compile
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True
    )
    at_import, deferred, hooked = result.stdout.splitlines()
    assert at_import == "[]"
    assert hooked == "True"
    assert {"anglekit.textio._NUMBER_RE", "anglekit.textio._LITERAL_RE", "anglekit.lint._STATEMENT_RE"} <= set(
        ast.literal_eval(deferred))


def test_fractions_loaded_after_anglekit_still_mix_with_exact_scalars():
    """`exact` finds `Fraction` in sys.modules, so it need not import it."""
    child = (
        "import sys\n"
        "from anglekit.exact import ExactScalar\n"
        "assert 'fractions' not in sys.modules\n"
        "from fractions import Fraction\n"
        "assert ExactScalar(1, 2) + Fraction(1, 2) == 1\n"
        "assert Fraction(1, 2) in {ExactScalar(1, 2)}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, check=True)


def test_a_deep_expression_tree_compares_hashes_prints_and_copies():
    # Sums parse left-deep: a chain of n terms is a tree n levels deep.
    text = " + ".join(["1"] * 1200)
    tree = parse_expression(text)
    twin = parse_expression(text)
    assert tree == twin and not tree != twin
    assert hash(tree) == hash(twin)
    assert tree != parse_expression(text + " + 2")
    text_form = repr(tree)
    assert text_form.startswith("BinaryOperation(position=4794, operator='+', left=BinaryOperation(")
    for copied in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert type(copied) is BinaryOperation
        assert copied == tree
        assert hash(copied) == hash(tree)
        assert repr(copied) == text_form


def test_a_tree_of_100000_levels_survives_every_record_operation():
    tree = parse_expression(" + ".join(["x"] * 100_000))
    for copied in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert copied == tree
    assert isinstance(hash(tree), int)
    assert repr(tree).count("Identifier(") == 100_000


def test_tree_records_match_the_field_recursion():
    # ==, hash and repr of a tree equal the field-by-field recursion of a
    # plain record, whichever node kinds it holds.
    tree = parse_expression("a = sin(30 deg) * -2 / (2π + y) + x")
    for node in list(walk(tree))[::-1]:
        values = tuple(getattr(node, name) for name in node._fields)
        assert hash(node) == hash(values)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(node._fields, values))
        assert repr(node) == f"{type(node).__qualname__}({fields})"
        assert node == type(node)(*values)
        assert pickle.loads(pickle.dumps(node)) == node
    assert tree != parse_expression("a = sin(30 deg) * -2 / (2π + y) + z")
    assert BinaryOperation(0, "+", X, X) != BinaryOperation(0, "+", X, NumberLiteral(0, "x"))


@pytest.mark.parametrize(
    "node",
    [
        FunctionApplication(0, "sin", None),
        BinaryOperation(0, "+", 1, 2),
        BinaryOperation(0, "+", X, "y"),
        BinaryOperation(0, "*", FunctionApplication(1, "cos", 3.5), X),
    ],
    ids=repr,
)
def test_a_child_field_holding_a_non_node_is_a_leaf(node):
    # Constructors do not check their children: a non-node in a child
    # field is a plain value to ==, hash, repr and pickling alike, as it
    # is to a plain record.
    values = tuple(getattr(node, name) for name in node._fields)
    assert hash(node) == hash(values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(node._fields, values))
    assert repr(node) == f"{type(node).__qualname__}({fields})"
    for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(copied) is type(node)
        assert copied == node
        assert hash(copied) == hash(node)
        assert repr(copied) == repr(node)


# A plain decimal read by the lexer's one findall keeps its digits, and
# its literal builds the scalar on the first read of .value.


def _plain_texts(count=400, seed=19):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        terms = [
            rng.choice(("0", "7", "12.50", "000123", "999999999999999", "0.00000000000001", "x"))
            + rng.choice(("", "", " deg", "°", " rad", "′"))
            for _ in range(rng.randint(1, 6))
        ]
        text = terms[0]
        for term in terms[1:]:
            text += rng.choice((" + ", " * ", " / ", " = ")) + rng.choice(("", "sin(", "(")) + term
        texts.append(text + ")" * (text.count("(") - text.count(")")))
    return texts


def _read_every_value(tree):
    for node in walk(tree):
        if isinstance(node, (NumberLiteral, QuantityLiteral)):
            node.value
    return tree


def test_an_unbuilt_value_is_invisible():
    for text in _plain_texts():
        try:
            read = _read_every_value(parse_expression(text))
        except ParseError:  # a chained "=", which the generator can make
            continue
        assert parse_expression(text) == read and read == parse_expression(text), text
        assert hash(parse_expression(text)) == hash(read)
        assert repr(parse_expression(text)) == repr(read)
        assert pickle.dumps(parse_expression(text)) == pickle.dumps(read)
        assert pickle.loads(pickle.dumps(parse_expression(text))) == read
        assert copy.deepcopy(parse_expression(text)) == read
        assert _build_tree(*parse_expression(text).__reduce__()[1]) == read


def test_a_value_is_built_once_and_kept():
    for text, expected in (("12.50", ExactScalar(25, 2)), ("000123 deg", ExactScalar(123))):
        literal = parse_expression(text)
        value = literal.value
        assert value == expected and literal.value is value
        assert "_digits" not in literal._fields
        with pytest.raises(AttributeError, match="object has no attribute 'unit'"):
            literal.unit


def test_the_literal_constructors_store_what_they_are_given():
    assert NumberLiteral(5, "x").value == "x"
    assert QuantityLiteral(5, None, DEGREE, "deg").value is None
    assert repr(NumberLiteral(5, "x")) == "NumberLiteral(position=5, value='x')"


def test_lint_builds_no_scalar_for_plain_numbers(monkeypatch):
    text = "angle a\na = 1 + 2.50 * 000123\ny = sin(30 deg) + 0.5\nz = 45° / 7 + a\n"
    built = []
    init = ExactScalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting)
    findings = lint_text(text)
    assert [(f.rule, f.line) for f in findings] == [
        ("MISSING-REFERENCE-SYMBOL", 2),
        ("RAD-IN-TRIG-ARG", 3),
    ]
    assert built == []
