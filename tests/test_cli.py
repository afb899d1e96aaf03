"""In-process CLI tests: output shapes, exit codes, golden transcripts."""

import ast
import hashlib
import io
import math
import random
import sys

import pytest

from anglekit.cli import main


class TestConvert:
    def test_degrees_to_radians_is_symbolic(self, run_cli):
        code, out, err = run_cli("convert", "180°", "rad")
        assert (code, out, err) == (0, "π rad\n", "")

    def test_ascii_flag(self, run_cli):
        code, out, _ = run_cli("convert", "180°", "rad", "--ascii")
        assert code == 0
        assert out == "pi rad\n"

    def test_records_mode(self, run_cli):
        code, out, _ = run_cli("convert", "180°", "rad", "--format", "records")
        assert code == 0
        assert out == "value=π\nunit=rad\nexact=true\n"

    def test_exactly_one_unit_token(self, run_cli):
        code, out, _ = run_cli("convert", "pi rad", "deg")
        assert code == 0
        assert out.strip().split() == ["180", "°"]

    def test_gon_round_numbers(self, run_cli):
        code, out, _ = run_cli("convert", "90°", "gon")
        assert (code, out.strip()) == (0, "100 gon")

    def test_inexact_value_marked_in_records(self, run_cli):
        code, out, _ = run_cli(
            "convert", "0.1234567890123456789 rad", "deg", "--format", "records"
        )
        assert code == 0
        assert "exact=false" in out

    def test_unknown_target_unit(self, run_cli):
        code, out, err = run_cli("convert", "180°", "furlong")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_source_unit(self, run_cli):
        code, _, _ = run_cli("convert", "1 furlong", "rad")
        assert code == 3

    def test_unparseable_angle(self, run_cli):
        code, _, err = run_cli("convert", "@@@", "rad")
        assert code == 2
        assert "Traceback" not in err


class TestMeasure:
    def test_half_turn_prints_bare_pi(self, run_cli):
        code, out, _ = run_cli("measure", "180°")
        assert (code, out) == (0, "π\n")

    def test_measure_never_prints_a_unit(self, run_cli):
        for text in ("180°", "1/2 turn", "100 gon", "0.25 rad"):
            code, out, _ = run_cli("measure", text)
            assert code == 0
            assert not any(ch.isalpha() for ch in out.replace("π", ""))

    def test_quarter_turn(self, run_cli):
        code, out, _ = run_cli("measure", "90°")
        assert (code, out.strip()) == (0, "π/2")

    def test_missing_unit_is_a_unit_error(self, run_cli):
        code, _, _ = run_cli("measure", "1.5")
        assert code == 3


class TestArcAndChord:
    def test_half_circle_arc_with_radius_two(self, run_cli):
        code, out, _ = run_cli("arc", "180°", "2")
        assert code == 0
        assert out == "6.283185307179586 (exactly 2π)\n"

    def test_arc_records_carry_the_exact_form(self, run_cli):
        code, out, _ = run_cli("arc", "180°", "2", "--format", "records")
        assert code == 0
        assert out == "length=6.283185307179586\nexact=2π\n"

    def test_unit_measure_times_radius(self, run_cli):
        code, out, _ = run_cli("arc", "1 rad", "3.5")
        assert code == 0
        assert out.split()[0] == "3.5"

    def test_huge_radius_degrades_gracefully(self, run_cli):
        code, out, _ = run_cli("arc", "180°", "1e300")
        assert code == 0
        assert "exactly" not in out
        assert float(out.split()[0]) == pytest.approx(math.pi * 1e300)

    def test_decimal_radius_is_read_as_written(self, run_cli):
        code, out, err = run_cli("arc", "90°", "0.1", "--format", "records")
        assert (code, out, err) == (0, "length=0.15707963267948966\nexact=π/20\n", "")

    @pytest.mark.parametrize(
        "radius, exact", [(".5", "π/2"), ("2.", "2π"), ("1_000", "1000π")]
    )
    def test_every_float_spelling_of_the_radius_keeps_its_exact_form(
        self, run_cli, radius, exact
    ):
        code, out, err = run_cli("arc", "180°", radius)
        assert (code, err) == (0, "")
        assert out.endswith(f" (exactly {exact})\n")

    def test_fractional_measure_with_decimal_radius(self, run_cli):
        code, out, err = run_cli("arc", "123/360 deg", "0.1")
        assert (code, err) == (0, "")
        assert out.endswith(" (exactly 41π/216000)\n")
        assert float(out.split()[0]) == pytest.approx(123 / 360 * math.pi / 180 * 0.1)

    def test_exact_length_past_the_component_bound_is_left_out(self, run_cli):
        code, out, err = run_cli("arc", "1/9999991 deg", "0.123456789012345")
        assert (code, err) == (0, "")
        assert "exactly" not in out
        expected = math.pi / 180 / 9999991 * 0.123456789012345
        assert float(out) == pytest.approx(expected)

    def test_zero_radius(self, run_cli):
        code, _, _ = run_cli("arc", "90°", "0")
        assert code == 4

    def test_negative_radius(self, run_cli):
        code, _, _ = run_cli("arc", "90°", "-2")
        assert code == 4

    def test_nonfinite_radius(self, run_cli):
        code, _, _ = run_cli("arc", "90°", "inf")
        assert code == 4

    def test_textual_radius_is_a_parse_error(self, run_cli):
        code, _, _ = run_cli("arc", "90°", "wide")
        assert code == 2

    def test_zero_angle_is_out_of_range(self, run_cli):
        code, _, _ = run_cli("arc", "0°", "1")
        assert code == 5

    def test_diameter_chord(self, run_cli):
        code, out, _ = run_cli("chord", "180°", "3.5")
        assert (code, out) == (0, "7\n")

    def test_hexagon_chord_equals_radius(self, run_cli):
        code, out, _ = run_cli("chord", "60°", "2")
        assert code == 0
        assert float(out) == pytest.approx(2.0, abs=1e-15)

    def test_full_circle_chord_is_zero(self, run_cli):
        assert run_cli("chord", "360°", "1") == (0, "0\n", "")
        assert run_cli("chord", "2pi rad", "1e308") == (0, "0\n", "")

    def test_chord_rejects_oversized_angle(self, run_cli):
        code, _, _ = run_cli("chord", "370°", "1")
        assert code == 5


class TestAdd:
    def test_two_right_angles(self, run_cli):
        code, out, _ = run_cli("add", "90°", "90°")
        assert (code, out) == (0, "π\n")

    def test_wraparound_subtracts_a_straight_angle(self, run_cli):
        code, out, _ = run_cli("add", "120°", "120°")
        assert (code, out.strip()) == (0, "π/3")

    def test_operand_above_straight_angle(self, run_cli):
        code, _, _ = run_cli("add", "270°", "10°")
        assert code == 6

    def test_zero_operand(self, run_cli):
        code, _, _ = run_cli("add", "0°", "10°")
        assert code == 6


class TestPoints:
    def test_right_angle_from_axes(self, run_cli):
        code, out, _ = run_cli("points", "1", "0", "0", "0", "0", "1")
        assert code == 0
        assert float(out) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_digits_flag_truncates(self, run_cli):
        code, out, _ = run_cli("points", "1", "0", "0", "0", "0", "1", "--digits", "5")
        assert (code, out) == (0, "1.5708\n")

    def test_degenerate_vertex(self, run_cli):
        code, _, _ = run_cli("points", "0", "0", "0", "0", "1", "1")
        assert code == 6

    def test_collinear_same_side(self, run_cli):
        code, _, _ = run_cli("points", "1", "0", "0", "0", "2", "0")
        assert code == 6

    def test_right_angle_past_the_float_limit(self, run_cli):
        # the dot product is inf - inf before the points are scaled down
        argv = ["points", "1e308", "1e308", "0", "0", "-1e308", "1e308"]
        assert run_cli(*argv) == (0, "1.5707963267948966\n", "")

    def test_overflowing_difference_is_not_a_degenerate_vertex(self, run_cli):
        assert run_cli("points", "1e308", "0", "-1e308", "0", "0", "1") == (
            6,
            "",
            "error: rays point the same way; no angle between them\n",
        )

    def test_eighth_turn_with_overflowing_products(self, run_cli):
        argv = ["points", "9" * 30, "90.000000001", "-1e308", "0.1", "-1", "-1e308"]
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(math.pi / 4, rel=1e-15)

    @pytest.mark.parametrize(
        "coords, angle",
        [
            (["1e-200", "0", "0", "0", "0", "1e-200"], "1.5707963267948966"),
            (["3e-170", "1e-170", "0", "0", "1e-170", "3e-170"], "0.9272952180016123"),
            (["5e-324", "0", "0", "0", "0", "5e-324"], "1.5707963267948966"),
        ],
    )
    def test_short_rays_whose_products_underflow(self, run_cli, coords, angle):
        assert run_cli("points", *coords) == (0, angle + "\n", "")

    def test_textual_coordinate(self, run_cli):
        code, _, _ = run_cli("points", "a", "0", "0", "0", "0", "1")
        assert code == 2


class TestTrig:
    def test_default_period_matches_math_sin(self, run_cli):
        code, out, _ = run_cli("trig", "sin", "0.5")
        assert code == 0
        assert float(out) == math.sin(0.5)

    def test_degree_period_quarter_turn(self, run_cli):
        code, out, _ = run_cli("trig", "sin", "90", "--period", "360")
        assert (code, out) == (0, "1\n")

    def test_digits_flag(self, run_cli):
        code, out, _ = run_cli("trig", "sin", "0.5", "--digits", "5")
        assert (code, out) == (0, "0.47943\n")

    def test_inverse_lands_on_the_anchor(self, run_cli):
        code, out, _ = run_cli("trig", "arccos", "-1", "--period", "400")
        assert (code, out) == (0, "200 gon\n")

    def test_inverse_degree_symbol(self, run_cli):
        code, out, _ = run_cli("trig", "arcsin", "1", "--period", "360")
        assert (code, out) == (0, "90 °\n")

    def test_inverse_degree_ascii(self, run_cli):
        code, out, _ = run_cli("trig", "arcsin", "1", "--period", "360", "--ascii")
        assert (code, out) == (0, "90 deg\n")

    def test_tangent_pole(self, run_cli):
        code, _, err = run_cli("trig", "tan", "90", "--period", "360")
        assert code == 6
        assert "Traceback" not in err

    def test_unit_bearing_argument_is_refused(self, run_cli):
        code, out, err = run_cli("trig", "sin", "0.5 rad")
        assert code == 6
        assert out == ""
        assert "RAD-IN-TRIG-ARG" in err

    def test_inverse_outside_domain(self, run_cli):
        code, _, _ = run_cli("trig", "arcsin", "2")
        assert code == 6

    def test_zero_period(self, run_cli):
        code, _, _ = run_cli("trig", "sin", "1", "--period", "0")
        assert code == 6

    def test_textual_period(self, run_cli):
        code, _, _ = run_cli("trig", "sin", "1", "--period", "soon")
        assert code == 2

    def test_textual_argument(self, run_cli):
        code, _, _ = run_cli("trig", "sin", "later")
        assert code == 2


class TestClassify:
    @pytest.mark.parametrize(
        "angle,label",
        [
            ("45°", "acute angle"),
            ("90°", "right angle"),
            ("135°", "obtuse angle"),
            ("180°", "straight angle"),
            ("270°", "reflex angle"),
            ("360°", "perigon"),
        ],
    )
    def test_named_ranges(self, run_cli, angle, label):
        code, out, _ = run_cli("classify", angle)
        assert (code, out.strip()) == (0, label)

    def test_records_key(self, run_cli):
        code, out, _ = run_cli("classify", "90°", "--format", "records")
        assert (code, out) == (0, "class=right angle\n")

    def test_out_of_range(self, run_cli):
        code, _, _ = run_cli("classify", "370°")
        assert code == 5


class TestTable:
    def test_records_contain_reciprocal_factors(self, run_cli):
        code, out, _ = run_cli("table", "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert "degree->radian=π/180" in lines
        assert "radian->degree=180/π" in lines
        assert "degree->gon=10/9" in lines
        assert "turn->turn=1" in lines
        assert len(lines) == 36

    def test_ascii_records(self, run_cli):
        code, out, _ = run_cli("table", "--format", "records", "--ascii")
        assert code == 0
        assert "degree->radian=pi/180" in out.splitlines()
        assert "π" not in out

    def test_double_dash_ends_the_options(self, run_cli):
        assert run_cli("table", "--") == run_cli("table")
        records = run_cli("table", "--format", "records", "--ascii")
        assert run_cli("table", "--format", "records", "--ascii", "--") == records
        assert records[0] == 0

    @pytest.mark.parametrize(
        "argv, extras",
        [
            (["table", "x"], "x"),
            (["table", "--", "x"], "-- x"),
            (["table", "--", "--"], "-- --"),
            (["measure", "180°", "--", "--"], "--"),
        ],
    )
    def test_operands_after_the_double_dash_stay_usage_errors(self, run_cli, argv, extras):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {extras}\n")

    def test_human_grid_has_a_header_and_six_rows(self, run_cli):
        code, out, _ = run_cli("table")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[0].split()[0] == "from\\to"


class TestLint:
    def test_findings_exit_one(self, run_cli, tmp_path):
        source = tmp_path / "angles.txt"
        source.write_text("x = sin(0.5 rad)\n", encoding="utf-8")
        code, out, _ = run_cli("lint", str(source))
        assert code == 1
        assert out.startswith("1:9: RAD-IN-TRIG-ARG:")

    def test_clean_file_exits_zero(self, run_cli, tmp_path):
        source = tmp_path / "clean.txt"
        source.write_text("x = sin(0.5)\nangle a = 90°\n", encoding="utf-8")
        code, out, _ = run_cli("lint", str(source))
        assert (code, out) == (0, "")

    def test_stdin_dash(self, run_cli, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("angle a = pi\n"))
        code, out, _ = run_cli("lint", "-")
        assert code == 1
        assert "MISSING-REFERENCE-SYMBOL" in out

    def test_long_line_on_stdin_lints_cleanly(self, run_cli, monkeypatch):
        import io

        line = "z = " + " + ".join(str(k % 10) for k in range(2000)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        code, out, err = run_cli("lint", "-")
        assert (code, out, err) == (0, "", "")

    def test_missing_file(self, run_cli, tmp_path):
        code, _, err = run_cli("lint", str(tmp_path / "nope.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_syntax_findings_use_the_syntax_label(self, run_cli, tmp_path):
        source = tmp_path / "broken.txt"
        source.write_text("angle a = )\n", encoding="utf-8")
        code, out, _ = run_cli("lint", str(source))
        assert code == 1
        assert out.startswith("1:11: syntax:")

    def test_records_mode(self, run_cli, tmp_path):
        source = tmp_path / "angles.txt"
        source.write_text("angle a = pi\n", encoding="utf-8")
        code, out, _ = run_cli("lint", str(source), "--format", "records")
        assert code == 1
        assert out.startswith("finding=1:11:MISSING-REFERENCE-SYMBOL:")


class TestUsageAndSafety:
    def test_no_arguments_is_a_usage_error(self, run_cli):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_subcommand(self, run_cli):
        code, _, _ = run_cli("frobnicate", "1")
        assert code == 2

    def test_digits_out_of_range(self, run_cli):
        for digits in ("0", "x", "1e3"):
            code, _, err = run_cli("measure", "1 rad", "--digits", digits)
            assert code == 2
            assert err.endswith("error: argument --digits: digits must be between 1 and 17\n")

    def test_internal_failures_map_to_seventy(self, run_cli, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("anglekit.cli._cmd_measure", boom)
        code, out, err = run_cli("measure", "1 rad")
        assert code == 70
        assert out == ""
        assert "internal error" in err
        assert "Traceback" not in err

    def test_zero_division_maps_to_six(self, run_cli, monkeypatch):
        def divide(args):
            raise ZeroDivisionError("division by zero scalar")

        monkeypatch.setattr("anglekit.cli._cmd_measure", divide)
        assert run_cli("measure", "1 rad") == (6, "", "error: division by zero scalar\n")

    def test_errors_never_leak_tracebacks(self, run_cli):
        for argv in (
            ["convert", "@@@", "rad"],
            ["arc", "90°", "0"],
            ["trig", "tan", "90", "--period", "360"],
            ["add", "300°", "300°"],
        ):
            _, out, err = run_cli(*argv)
            assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (
                ["convert", "--", "1" * 5000 + "/3 rad", "deg"],
                "error: integer has too many digits (at position 0)\n",
            ),
            (
                ["convert", "--", "1" * 400 + "°", "rad"],
                "error: number is outside float range (at position 0)\n",
            ),
            (
                ["trig", "sin", "1", "--period", "1" * 5000 + "/3"],
                "error: integer has too many digits (at position 0)\n",
            ),
        ],
    )
    def test_overlong_literals_are_parse_errors(self, run_cli, argv, stderr):
        assert run_cli(*argv) == (2, "", stderr)

    def test_signed_operands_need_no_separator(self, run_cli):
        assert run_cli("convert", "-30°", "rad") == (0, "-π/6 rad\n", "")
        assert run_cli("measure", "-90°") == (0, "-π/2\n", "")
        assert run_cli("trig", "sin", "-pi/6")[0] == 0
        assert run_cli("classify", "-12°34′56″") == (
            5,
            "",
            "error: classification needs a value in [0, full_circle]\n",
        )

    def test_signed_period_is_a_domain_error(self, run_cli):
        assert run_cli("trig", "sin", "1", "--period", "-2pi") == (
            6,
            "",
            "error: period must be positive\n",
        )

    def test_signed_digits_is_still_a_usage_error(self, run_cli):
        code, out, err = run_cli("measure", "1 rad", "--digits", "-5")
        assert (code, out) == (2, "")
        assert "digits must be between 1 and 17" in err

    def test_options_after_a_signed_operand(self, run_cli):
        assert run_cli("convert", "-30°", "rad", "--ascii", "--format", "records") == (
            0,
            "value=-pi/6\nunit=rad\nexact=true\n",
            "",
        )

    def test_records_output_is_byte_stable(self, run_cli):
        first = run_cli("convert", "180°", "rad", "--format", "records")
        second = run_cli("convert", "180°", "rad", "--format", "records")
        assert first == second


GOLDEN = [
    (["convert", "180°", "rad"], "π rad\n"),
    (["convert", "100 gon", "deg"], "90 °\n"),
    (["convert", "1 turn", "arcsec"], "1296000 ″\n"),
    (["convert", "π rad", "turn"], "1/2 turn\n"),
    (["measure", "180°"], "π\n"),
    (["measure", "1/4 turn"], "π/2\n"),
    (["measure", "1 arcmin"], "π/10800\n"),
    (["arc", "180°", "2"], "6.283185307179586 (exactly 2π)\n"),
    (["chord", "180°", "3.5"], "7\n"),
    (["add", "90°", "90°"], "π\n"),
    (["classify", "90°"], "right angle\n"),
    (["trig", "sin", "90", "--period", "360"], "1\n"),
    (["trig", "arccos", "-1", "--period", "400"], "200 gon\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_transcripts(run_cli, argv, expected):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (0, expected, "")


ERROR_GOLDEN = [
    (["convert", "@@@", "rad"], 2, "error: expected a number (at position 0)\n"),
    (
        ["convert", "99999999999999999999/7 rad", "deg"],
        2,
        "error: normalized component exceeds 64-bit bound: 99999999999999999999/7"
        " (at position 0)\n",
    ),
    (["convert", "1 furlong", "rad"], 3, "error: unknown unit 'furlong' (at position 2)\n"),
    (["convert", "180°", "furlong"], 3, "error: unknown unit 'furlong'\n"),
    (["measure", "1.5"], 3, "error: angle needs a unit symbol (at position 3)\n"),
    (["arc", "90°", "wide"], 2, "error: radius 'wide' is not a number\n"),
    (["arc", "90°", "0"], 4, "error: radius must be positive and finite\n"),
    (["arc", "0°", "1"], 5, "error: arc measure must lie in (0, 2π]\n"),
    (["chord", "90°", "nan"], 4, "error: radius must be positive and finite\n"),
    (["chord", "370°", "1"], 5, "error: chord needs a measure in [0, 2π]\n"),
    (["arc", "180°", "1e308"], 6, "error: length is outside float range\n"),
    (["chord", "180°", "1e308"], 6, "error: length is outside float range\n"),
    (["add", "270°", "10°"], 6, "error: semigroup addition needs operands in (0, π]\n"),
    (["add", "0°", "10°"], 6, "error: a magnitude requires a measure in (0, 2π]\n"),
    (["points", "a", "0", "0", "0", "0", "1"], 2, "error: coordinate 'a' is not a number\n"),
    (["points", "inf", "0", "0", "0", "0", "1"], 6, "error: planar points need finite coordinates\n"),
    (["points", "0", "0", "0", "0", "1", "1"], 6, "error: ray endpoint coincides with the vertex\n"),
    (
        ["points", "1", "0", "0", "0", "2", "0"],
        6,
        "error: rays point the same way; no angle between them\n",
    ),
    (
        ["trig", "tan", "90", "--period", "360"],
        6,
        "error: tangent pole: argument is an odd quarter of the period\n",
    ),
    (
        ["trig", "sin", "0.5 rad"],
        6,
        "error: RAD-IN-TRIG-ARG: argument carries the unit 'rad'; pass the dimensionless measure\n",
    ),
    (["trig", "arcsin", "2"], 6, "error: inverse sine and cosine are defined on [-1, 1]\n"),
    (["trig", "sin", "later"], 2, "error: could not parse number 'later'\n"),
    (["trig", "sin", "1e400"], 2, "error: number is outside float range (at position 0)\n"),
    (["trig", "sin", "1", "--period", "soon"], 2, "error: expected a number (at position 0)\n"),
    (["trig", "sin", "1", "--period", "0"], 6, "error: period must be positive\n"),
    (["trig", "sin", "later", "--period", "-5"], 6, "error: period must be positive\n"),
    (
        ["trig", "sin", "1", "--period", "6.28318530717958647692528"],
        6,
        "error: period must be an exact number\n",
    ),
    (
        ["trig", "arccos", "later", "--period", "0.1234567890123456789"],
        6,
        "error: period must be an exact number\n",
    ),
    (["classify", "370°"], 5, "error: classification needs a value in [0, full_circle]\n"),
    # argparse takes a second "--" for a separator too, and drops it from the operands
    *[
        (argv, 2, "error: a second '--' is not allowed\n")
        for argv in (
            ["convert", "1 rad", "--", "--"], ["arc", "90°", "--", "--"], ["chord", "90°", "--", "--"],
            ["add", "90°", "--", "--"], ["trig", "sin", "--", "--"], ["points", "1", "2", "--", "3", "--", "5", "6"],
        )
    ],
]


@pytest.mark.parametrize(
    "argv,code,stderr", ERROR_GOLDEN, ids=[" ".join(a) for a, _, _ in ERROR_GOLDEN]
)
def test_error_transcripts(run_cli, argv, code, stderr):
    assert run_cli(*argv) == (code, "", stderr)


_OPERANDS = {
    "convert": ["1", "rad"],
    "measure": ["1"],
    "arc": ["1", "1"],
    "chord": ["1", "1"],
    "add": ["1", "1"],
    "points": ["1"] * 6,
    "trig": ["sin", "1"],
    "classify": ["1"],
    "table": [],
    "lint": ["-"],
}


# sha256 of (argv, exit code, stdout, stderr) for each command's help,
# missing-operand and extra-operand calls, and for the program's help under
# "anglekit", at 80 columns.  A parser change must leave them unchanged.
_USAGE_DIGESTS = {
    "anglekit": "6bd62340a745ab579d720385873e9fa8f7df3e6924c74c55ef3b5911e4ded2c6",
    "convert": "855b1abaafb374a85327db606545e1e3093d61012c72bc39da5049971af50111",
    "measure": "b28d73e161b9fc8901911b6b4a30078c3f7ed53ab3a82d819e7dd4cf537f1997",
    "arc": "31d4fc904f41380716deee74bec9a4dd0ddf2ac990546d5639a6b08ed8bd6707",
    "chord": "1ca56e632bfa60a92888ea1044afa32c71977e3aa79c6c98b20fcfb34f0142c9",
    "add": "363a8c1ee8fe7aa1ac1062004e1e029f5ca33a5aef3f6218d19dd3df2886ff1b",
    "points": "4d5c0f6a86fd3f6c0f0da5bbfa7df8def246e0ee783d2b75c95cb38d4adeb73d",
    "trig": "42469d6476b29d057da065e14291e4ce8def93647ce1532df6d7f803f9d2c946",
    "classify": "45ca8935a4d7cbe25c4c40c350d41a02caf95a7e2b645715f347e8b93cc79e61",
    "table": "afcc4bcffba7bcae5244ca4003dad8bf63bdb8f359de50f6e9ae175359efbdc7",
    "lint": "ee7525543eaad27da2eb668872f671f1e57455285fa4c8ae9f7922400181a2b7",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout differs between versions")
@pytest.mark.parametrize("command", ["anglekit", *_OPERANDS])
def test_help_and_usage_errors_match_the_pinned_digest(run_cli, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    cases = [["--help"]] if command == "anglekit" else [
        [command, "--help"], [command], [command, *_OPERANDS[command], "extra"]
    ]
    digest = hashlib.sha256()
    for argv in cases:
        code, out, err = run_cli(*argv)
        if argv[-1] == "extra":
            assert code == 2 and "unrecognized arguments: extra" in err
        digest.update(repr((argv, code, out, err)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _USAGE_DIGESTS[command]


def test_unreadable_lint_file_transcript(run_cli, tmp_path):
    path = str(tmp_path / "nope.txt")
    expected = f"error: cannot read {path!r}: [Errno 2] No such file or directory: {path!r}\n"
    assert run_cli("lint", path) == (2, "", expected)


def test_lint_path_with_a_null_byte_transcript(run_cli):
    assert run_cli("lint", "\x00") == (2, "", "error: cannot read '\\x00': embedded null byte\n")


def test_undecodable_lint_file_transcript(run_cli, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"angle a = 1\xff\n")
    expected = (
        f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff"
        " in position 11: invalid start byte\n"
    )
    assert run_cli("lint", str(path)) == (2, "", expected)


def test_undecodable_lint_stdin_transcript(run_cli, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"angle a = 1\xff\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    expected = (
        "error: cannot read '-': 'utf-8' codec can't decode byte 0xff"
        " in position 11: invalid start byte\n"
    )
    assert run_cli("lint", "-") == (2, "", expected)


def test_exit_codes_live_on_the_error_classes():
    """cli.py names only the codes no error class carries, and passes no
    exit number to an error: each error's class knows its own code."""
    import anglekit.cli

    with open(anglekit.cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("EXIT_")
    }
    assert constants == {"EXIT_OK", "EXIT_LINT", "EXIT_INTERNAL"}
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            for argument in node.exc.args:
                assert not (isinstance(argument, ast.Constant) and isinstance(argument.value, int))
                assert not (isinstance(argument, ast.Name) and argument.id.startswith("EXIT_"))


# A command's human line is the values of its records, joined by a space,
# without `exact`; `main` prints both from the one list the handler returns.
_RECORD_COMMANDS = [
    ["convert", "180°", "rad"],
    ["convert", "0.1234567890123456789 rad", "deg"],
    ["convert", "-30°", "rad", "--ascii"],
    ["convert", "1/3 turn", "arcsec", "--digits", "5"],
    ["measure", "180°"],
    ["measure", "0.1234567890123456789 rad", "--digits", "3"],
    ["measure", "1 arcmin", "--ascii"],
    ["chord", "60°", "2"],
    ["chord", "1 rad", "0.1", "--digits", "4"],
    ["add", "90°", "90°"],
    ["add", "0.1 rad", "1°", "--ascii"],
    ["points", "1", "0", "0", "0", "0", "1"],
    ["points", "1", "2", "3", "4", "5", "7", "--digits", "6"],
    ["trig", "sin", "0.5"],
    ["trig", "cos", "30", "--period", "360"],
    ["trig", "arccos", "-1", "--period", "400"],
    ["trig", "arcsin", "0.3", "--period", "360", "--ascii"],
    ["classify", "45°"],
    ["classify", "90°"],
    ["classify", "4 rad"],
]


@pytest.mark.parametrize("argv", _RECORD_COMMANDS, ids=" ".join)
def test_human_line_is_the_values_of_the_records(run_cli, argv):
    code, records, err = run_cli(*argv, "--format", "records")
    assert (code, err) == (0, "")
    pairs = [line.split("=", 1) for line in records.splitlines()]
    assert all(len(pair) == 2 for pair in pairs)
    expected = " ".join(value for key, value in pairs if key != "exact") + "\n"
    assert run_cli(*argv) == (0, expected, "")


def test_only_arc_table_and_lint_print_for_themselves():
    """Every other handler returns its records and leaves printing to `main`."""
    import anglekit.cli

    with open(anglekit.cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    printers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "print"
    }
    assert printers == {"_cmd_arc", "_cmd_table", "_cmd_lint"}


_TRANSCRIPT_UNITS = ["rad", "radian", "°", "deg", "degree", "gon", "turn", "′", "arcmin",
                     "arcminute", "″", "arcsec", "arcsecond"]
_TRANSCRIPT_ANGLES = [
    "180°", "90°", "45°", "0°", "360°", "370°", "-30°", "100 gon", "1 turn", "1/4 turn",
    "π rad", "3π/4 rad", "pi/6 rad", "-π/6 rad", "180/π gon", "1/(2π) turn", "2pi rad",
    "12°34′56″", "12d34m56s", "-12°34′56″", "1 arcmin", "1 arcsec", "0.25 rad",
    "0.1234567890123456789 rad", "1e300 rad", "1e-300 rad", "99999999999999999999/7 rad",
    "1/0 rad", "1.5", "1 furlong", "@@@", "", "1" * 400 + "°",
]
_TRANSCRIPT_RADII = ["1", "2", "3.5", "0.1", ".5", "2.", "1_000", "1e300", "1e308", "0", "-2",
                     "inf", "nan", "wide", "1e-300", "9" * 30]


def _transcript_angle(rng):
    kind = rng.random()
    if kind < 0.3:
        return rng.choice(_TRANSCRIPT_ANGLES)
    unit = rng.choice(_TRANSCRIPT_UNITS)
    if kind < 0.5:
        return f"{rng.randint(-800, 800)}{'' if unit in '°′″' else ' '}{unit}"
    if kind < 0.65:
        pi = rng.choice(("π", "pi", ""))
        return f"{rng.randint(-50, 50)}{pi}/{rng.randint(1, 60)} {rng.choice(('rad', 'turn'))}"
    if kind < 0.85:
        return f"{rng.uniform(-400, 400):.{rng.randint(0, 20)}f} {unit}"
    return f"{rng.randint(0, 400)}°{rng.randint(0, 59)}′{rng.randint(0, 59)}″"


def _transcript_argv(rng):
    """A command line that argparse accepts, for a command whose output does
    not depend on the platform's libm (no chord, points or trig)."""
    command = rng.choice(("convert", "measure", "arc", "add", "classify", "table"))
    if command == "convert":
        operands = [_transcript_angle(rng), rng.choice(_TRANSCRIPT_UNITS + ["furlong"])]
    elif command == "arc":
        radius = rng.choice(_TRANSCRIPT_RADII + [f"{rng.uniform(0, 1000):.{rng.randint(1, 17)}g}"])
        operands = [_transcript_angle(rng), radius]
    elif command == "add":
        operands = [_transcript_angle(rng), _transcript_angle(rng)]
    elif command == "table":
        operands = []
    else:
        operands = [_transcript_angle(rng)]
    options = ["--format", rng.choice(("human", "records"))]
    if rng.random() < 0.5:
        options.append("--ascii")
    if rng.random() < 0.5:
        options += ["--digits", str(rng.randint(1, 17))]
    parts = [options, operands]
    rng.shuffle(parts)
    return [command, *parts[0], *parts[1]]


# sha256 of (argv, exit code, stdout, stderr) over the seeded command lines.
# A change to how the CLI builds or prints its output must leave it
# unchanged; change it only with a deliberate change of what a command prints.
_TRANSCRIPT_DIGEST = "e73f00cfd2b34aa0e759c48aa71d671d02b628be2e37b77699502e4de3125a29"


def test_cli_transcripts_match_the_pinned_digest(run_cli):
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(2400):
        argv = _transcript_argv(rng)
        code, out, err = run_cli(*argv)
        assert not err.startswith("usage:"), argv
        digest.update(repr((argv, code, out, err)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == _TRANSCRIPT_DIGEST


# One argv per command in the shape the cold-process benchmark runs:
# `command --format F [--period P] -- operands`, signed operands included.
_COLD_PROCESS_ARGV = [
    ["convert", "--format", "human", "--", "-30°", "rad"],
    ["measure", "--format", "records", "--", "-1/4 turn"],
    ["arc", "--format", "human", "--", "90°", "2"],
    ["chord", "--format", "records", "--", "60°", "2"],
    ["add", "--format", "human", "--", "30°", "45°"],
    ["points", "--format", "records", "--", "1.5", "-2.25", "0.0", "0.0", "-3.0", "4.0"],
    ["trig", "--format", "human", "--period", "360", "--", "cos", "-45.5"],
    ["classify", "--format", "records", "--", "0.3 turn"],
    ["table", "--format", "records"],
    ["lint", "--format", "human", "--", "-"],
]


def test_a_well_formed_call_builds_no_parser(run_cli, monkeypatch):
    """The argv the cold-process benchmark runs print what argparse's reading
    of them prints, with `_build_parser` unusable; help, abbreviated options
    and signed operands before "--" still go to argparse."""
    import anglekit.cli

    def run(argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO("angle a = pi\n"))
        return run_cli(*argv)

    corpus = [["convert", "180°", "rad"], *_COLD_PROCESS_ARGV]
    with monkeypatch.context() as patch:
        patch.setattr(anglekit.cli, "_read_argv", lambda argv: None)
        expected = [run(argv) for argv in corpus]
    assert expected[0] == (0, "π rad\n", "")
    assert all(code in (0, 1) and not err for code, _, err in expected)

    def refuse():
        raise LookupError("built a parser")

    monkeypatch.setattr(anglekit.cli, "_build_parser", refuse)
    assert [run(argv) for argv in corpus] == expected
    for argv in (
        ["convert", "--help"],
        ["convert", "180°", "rad", "--form", "records"],
        ["convert", "180°", "rad", "--format=records"],
        ["convert", "-30°", "rad"],
    ):
        with pytest.raises(LookupError, match="built a parser"):
            main(argv)


_SOUP_TOKENS = [
    "--format", "--ascii", "--digits", "--period", "human", "records", "xml", "5", "0", "17",
    "18", "x", "1e3", " 7", "--form", "--asc", "--dig", "--per", "--f", "--format=records",
    "--digits=5", "--ascii=1", "-h", "--help", "--", "-", "-30°", "-5", "-.5", "-pi/6", "-π",
    "-x", "-x y", "-.digits", "-—format", "", "180°", "rad", "2pi", "360", "sin", "arccos",
    "tangent", "1",
]
_SOUP_OPERANDS = ["180°", "rad", "1", "2pi", "sin", "arccos", "tangent", "-", "", "-30°", "-.5"]
_SOUP_OPTIONS = [
    ["--ascii"], ["--format", "human"], ["--format", "records"], ["--digits", "5"],
    ["--digits", "17"], ["--period", "360"], ["--period", ""],
]


def _soup_argv(rng):
    """A command line near a well-formed one: its operands and options in any
    order, maybe a "--", then up to three tokens inserted, replaced or deleted."""
    command = rng.choice([*_OPERANDS, "frobnicate", "", "--format"])
    tokens = [rng.choice(_SOUP_OPERANDS) for _ in _OPERANDS.get(command, ())]
    for option in rng.sample(_SOUP_OPTIONS, rng.randint(0, 3)):
        at = rng.randint(0, len(tokens))
        tokens[at:at] = option
    if rng.random() < 0.4:
        tokens.insert(rng.randint(0, len(tokens)), "--")
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        at = rng.randint(0, len(tokens))
        edit = rng.random()
        if edit < 0.5:
            tokens.insert(at, rng.choice(_SOUP_TOKENS))
        elif at < len(tokens):
            tokens[at : at + 1] = [rng.choice(_SOUP_TOKENS)] if edit < 0.8 else []
    return [command, *tokens]


def test_the_reader_agrees_with_argparse(monkeypatch):
    """Wherever `_read_argv` reads a command line, argparse accepts it too
    (as `main` does, with its `table --` allowance) and gives the same namespace.
    No command line of the corpus, read or not, ends in an internal error."""
    from contextlib import redirect_stderr, redirect_stdout

    import anglekit.cli
    from anglekit.cli import EXIT_INTERNAL, _build_parser, _read_argv

    parser = _build_parser()  # argparse parsers are reusable

    def argparse_vars(argv):
        try:
            with redirect_stderr(io.StringIO()):
                args, extras = parser.parse_known_args(argv)
        except SystemExit:
            return None
        if extras and not (extras == ["--"] and args.command == "table"):
            return None
        return vars(args)

    usage_argv = [
        [], ["frobnicate", "1"], ["measure", "1 rad"], ["measure", "1 rad", "--digits", "0"],
        ["measure", "1 rad", "--digits", "x"], ["measure", "1 rad", "--digits", "1e3"],
        ["convert", "@@@", "rad"], ["arc", "90°", "0"], ["add", "300°", "300°"],
        ["convert", "--", "1" * 5000 + "/3 rad", "deg"], ["convert", "--", "1" * 400 + "°", "rad"],
        ["trig", "sin", "1", "--period", "1" * 5000 + "/3"], ["convert", "-30°", "rad"],
        ["measure", "-90°"], ["trig", "sin", "-pi/6"], ["classify", "-12°34′56″"],
        ["trig", "sin", "1", "--period", "-2pi"], ["measure", "1 rad", "--digits", "-5"],
        ["convert", "-30°", "rad", "--ascii", "--format", "records"],
        ["convert", "180°", "rad", "--format", "records"], ["table", "--"],
        ["table", "--format", "records", "--ascii", "--"], ["table", "x"], ["table", "--", "x"],
        ["table", "--", "--"], ["measure", "180°", "--", "--"], ["convert", "1", "--", "--"],
        ["arc", "90°", "--", "--"], ["convert", "--", "--", "rad"],
        ["points", "1", "2", "--", "3", "--", "5", "6"],
    ]
    corpus = [argv for argv, _ in GOLDEN] + [argv for argv, _, _ in ERROR_GOLDEN] + usage_argv
    corpus += _RECORD_COMMANDS + [[*argv, "--format", "records"] for argv in _RECORD_COMMANDS]
    corpus += _COLD_PROCESS_ARGV
    for command, operands in _OPERANDS.items():
        for period in ["1", "360", "400", "2pi", "2pi/3"] if command == "trig" else [None]:
            options = ["--period", period] if period else []
            separator = ["--"] if operands else []
            for fmt in ("human", "records"):
                corpus.append([command, "--format", fmt, *options, *separator, *operands])
    rng = random.Random(15)
    corpus += [_transcript_argv(rng) for _ in range(2400)]
    rng = random.Random(22)
    corpus += [_soup_argv(rng) for _ in range(20000)]

    read = 0
    for argv in corpus:
        args = _read_argv(argv)
        if args is not None:
            read += 1
            assert vars(args) == argparse_vars(argv), argv
    assert 3000 < read < len(corpus) // 2

    monkeypatch.setattr(anglekit.cli, "_build_parser", lambda: parser)
    monkeypatch.setattr(sys, "stdin", io.StringIO())  # `lint -` reads an empty file
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert [argv for argv in corpus if main(argv) == EXIT_INTERNAL] == []
