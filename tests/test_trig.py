"""Period-parameterized trig: exact reduction, inverses, unit-circle map."""

import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anglekit.trig as trig
from anglekit.angles import DEGREE, GON, RADIAN, TURN, AngleValue
from anglekit.errors import DomainError, PoleError
from anglekit.exact import PI, TWO_PI, ExactScalar, pi_bits
from anglekit.trig import (
    FORWARD_KINDS,
    PeriodizedFunction,
    UnitCirclePoint,
    _scaled_argument,
    eval_inverse,
    eval_periodized,
    phase,
    pythagorean_residual,
    reference_for_period,
)

SIN_2PI = PeriodizedFunction("sin", TWO_PI)
SIN_360 = PeriodizedFunction("sin", ExactScalar(360))
COS_360 = PeriodizedFunction("cos", ExactScalar(360))
COS_400 = PeriodizedFunction("cos", ExactScalar(400))
TAN_360 = PeriodizedFunction("tan", ExactScalar(360))


class TestForward:
    def test_radian_period_matches_math_sin_bit_for_bit(self):
        for x in (0.0, 0.1, 0.7, 1.0, 2.0, 3.0, 3.141592653589793, 5.5, 6.28):
            assert SIN_2PI(x) == math.sin(x)

    @given(st.floats(min_value=0.0, max_value=6.283185307179586, exclude_max=True))
    def test_radian_period_matches_math_sin_on_principal_range(self, x):
        assert SIN_2PI(x) == math.sin(x)

    def test_degree_quarter_is_exactly_one(self):
        assert SIN_360(90.0) == 1.0

    def test_degree_zero(self):
        assert SIN_360(0.0) == 0.0

    def test_exact_periodicity_for_huge_arguments(self):
        # The reduction is rational, so shifting by whole periods cannot
        # change the result even a billion periods out.
        assert SIN_360(90.0 + 360.0 * 1e9) == SIN_360(90.0)
        assert SIN_360(-270.0) == SIN_360(90.0)
        assert COS_400(100.0 + 400.0 * 12345.0) == COS_400(100.0)

    def test_gon_half_circle(self):
        assert COS_400(200.0) == -1.0

    def test_turn_period(self):
        f = PeriodizedFunction("sin", ExactScalar(1))
        assert f(0.25) == 1.0
        assert f(1.25) == 1.0

    def test_tangent_of_eighth(self):
        # Oracle: tangent of the reduced radian argument.
        assert TAN_360(45.0) == math.tan(float(2 * math.pi * 0.125))

    def test_tangent_pole_detected(self):
        with pytest.raises(PoleError):
            TAN_360(90.0)
        with pytest.raises(PoleError):
            TAN_360(270.0)
        with pytest.raises(PoleError):
            PeriodizedFunction("tan", TWO_PI)(math.pi / 2)

    def test_non_finite_arguments_rejected(self):
        with pytest.raises(DomainError):
            SIN_360(math.inf)
        with pytest.raises(DomainError):
            SIN_360(math.nan)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodizedFunction("sinh", TWO_PI)
        with pytest.raises(DomainError):
            PeriodizedFunction("sin", ExactScalar.inexact(6.28))
        with pytest.raises(DomainError):
            PeriodizedFunction("sin", ExactScalar(0))
        with pytest.raises(DomainError):
            PeriodizedFunction("sin", ExactScalar(-360))

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_bounded_by_one(self, x):
        assert -1.0 <= SIN_360(x) <= 1.0
        assert -1.0 <= COS_360(x) <= 1.0


class TestPythagoreanResidual:
    @given(
        st.sampled_from([1, 360, 400]),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_small_for_rational_periods(self, period, x):
        assert abs(pythagorean_residual(ExactScalar(period), x)) <= 1e-12

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_small_for_radian_period(self, x):
        assert abs(pythagorean_residual(TWO_PI, x)) <= 1e-12


class TestInverse:
    def test_arcsin_degree_unit(self):
        result = eval_inverse("arcsin", ExactScalar(360), 1.0)
        assert result.reference is DEGREE
        assert result.value.inexact_value == 90.0

    def test_arccos_gon_half(self):
        result = eval_inverse("arccos", ExactScalar(400), -1.0)
        assert result.reference is GON
        assert result.value.inexact_value == 200.0

    def test_arcsin_radian(self):
        result = eval_inverse("arcsin", TWO_PI, 0.5)
        assert result.reference is RADIAN
        assert result.value.inexact_value == pytest.approx(math.asin(0.5), abs=1e-15)

    def test_arccos_zero_is_quarter(self):
        assert eval_inverse("arccos", ExactScalar(360), 0.0).value.inexact_value == 90.0
        assert eval_inverse("arccos", ExactScalar(1), 0.0).value.inexact_value == 0.25

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_inverse("arcsin", TWO_PI, 1.0000001)
        with pytest.raises(DomainError):
            eval_inverse("arccos", TWO_PI, -1.1)
        with pytest.raises(DomainError):
            eval_inverse("arcsin", TWO_PI, math.nan)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            eval_inverse("arctan", TWO_PI, 0.5)

    @given(
        st.sampled_from([1, 360, 400]),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_arcsin_range_is_quarter_period(self, period, x):
        result = eval_inverse("arcsin", ExactScalar(period), x)
        value = result.value.inexact_value
        assert -period / 4 <= value <= period / 4

    @given(
        st.sampled_from([1, 360, 400]),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_arccos_range_is_half_period(self, period, x):
        result = eval_inverse("arccos", ExactScalar(period), x)
        value = result.value.inexact_value
        assert 0.0 <= value <= period / 2

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_sin_inverts_arcsin(self, x):
        angle = eval_inverse("arcsin", ExactScalar(360), x)
        assert SIN_360(angle.value.inexact_value) == pytest.approx(x, abs=1e-12)


class TestPhase:
    def test_quarter_turn(self):
        point = phase(AngleValue(ExactScalar(90), DEGREE))
        assert point.im == 1.0
        assert abs(point.re) < 1e-15

    def test_half_turn(self):
        point = phase(AngleValue(ExactScalar(200), GON))
        assert point.re == -1.0

    def test_zero(self):
        point = phase(AngleValue(ExactScalar(0), TURN))
        assert (point.re, point.im) == (1.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=360.0))
    def test_always_lands_on_the_unit_circle(self, degrees):
        point = phase(AngleValue(ExactScalar.inexact(degrees), DEGREE))
        assert abs(point.re**2 + point.im**2 - 1.0) <= 1e-12

    def test_unit_circle_point_validation(self):
        with pytest.raises(ValueError):
            UnitCirclePoint(1.0, 1.0)

    @pytest.mark.parametrize(
        "re, im",
        [(math.nan, math.nan), (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, math.inf)],
    )
    def test_unit_circle_point_rejects_nan_and_inf(self, re, im):
        with pytest.raises(ValueError):
            UnitCirclePoint(re, im)


class TestReferenceForPeriod:
    def test_builtin_periods_map_to_builtin_references(self):
        assert reference_for_period(TWO_PI) is RADIAN
        assert reference_for_period(ExactScalar(360)) is DEGREE
        assert reference_for_period(ExactScalar(400)) is GON
        assert reference_for_period(ExactScalar(1)) is TURN

    def test_custom_period_synthesizes_a_reference(self):
        ref = reference_for_period(ExactScalar(7))
        assert ref.full_circle == ExactScalar(7)
        assert "7" in ref.symbol


REDUCTION_PERIODS = (
    ExactScalar(1),
    ExactScalar(360),
    ExactScalar(400),
    TWO_PI,
    ExactScalar(2, 3, 1),
    ExactScalar(7, 3),
    ExactScalar(1, 1, -1),
    ExactScalar(355, 113, 1),
)
# The five periods of the numeric benchmark.
BENCHMARK_PERIODS = REDUCTION_PERIODS[:5]


def _log_uniform(rng, lo_exponent=-1074, hi_exponent=1023):
    """A float of either sign with a binary exponent uniform in the range."""
    x = math.ldexp(1.0 + rng.random(), rng.randint(lo_exponent, hi_exponent))
    return -x if rng.random() < 0.5 else x


def _theta_oracle(x, period):
    """2π·frac(x/p) at 4,000 bits in mpmath, rounded once to a float.

    A rational period takes the turn fraction exactly in Fraction.
    """
    n, d, e = period.numerator, period.denominator, period.pi_exponent
    with mpmath.workprec(4000):
        if e == 0:
            q = Fraction(x) * d / n
            q -= math.floor(q)
            theta = 2 * mpmath.pi * mpmath.mpf(q.numerator) / q.denominator
        else:
            t = mpmath.mpf(x) * d / n * mpmath.pi ** (-e)
            theta = 2 * mpmath.pi * (t - mpmath.floor(t))
        man, exp = theta.man_exp
    return float(man * Fraction(2) ** exp)


_PI_75_DIGITS = Fraction(
    3141592653589793238462643383279502884197169399375105820974944592307816406286,
    10**75,
)


def _fraction_reduction(x, period):
    """The former reduction: one Fraction formula with a 75-digit π."""
    pi_power = _PI_75_DIGITS ** period.pi_exponent
    q = Fraction(x) / (Fraction(period.numerator, period.denominator) * pi_power)
    q -= math.floor(q)
    return float(2 * _PI_75_DIGITS * q)


class TestReduction:
    def test_within_one_ulp_of_mpmath_over_every_finite_float(self):
        rng = random.Random(7)
        for period in REDUCTION_PERIODS:
            for _ in range(250):
                x = _log_uniform(rng)
                expected = _theta_oracle(x, period)
                theta = _scaled_argument(x, period)
                assert 0.0 <= theta <= 2 * math.pi
                assert abs(theta - expected) <= math.ulp(expected), (x, period)

    def test_extreme_floats_within_one_ulp(self):
        extremes = (5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)
        for period in REDUCTION_PERIODS:
            for x in extremes + tuple(-v for v in extremes):
                expected = _theta_oracle(x, period)
                assert abs(_scaled_argument(x, period) - expected) <= math.ulp(expected)

    def test_bit_identical_to_fraction_reduction_below_1e55(self):
        rng = random.Random(11)
        for period in REDUCTION_PERIODS:
            for _ in range(400):
                x = _log_uniform(rng, hi_exponent=181)  # 2**182 < 1e55
                assert _scaled_argument(x, period) == _fraction_reduction(x, period), (x, period)

    def test_exact_multiples_reduce_to_zero(self):
        cases = (
            (ExactScalar(360), (0.0, -0.0, 360.0, -720.0, 3.6e5, 360.0 * 2.0**900)),
            (ExactScalar(1), (1.0, -7.0, 2.0**60, 1e300, -1.7976931348623157e308)),
            (ExactScalar(400), (1.6e3, -4e10)),
            (ExactScalar(7, 3), (7.0, -2.0**70 * 7)),
            (ExactScalar(1, 1024), (0.5, 2.0**-10, -3.0)),
        )
        for period, xs in cases:
            for x in xs:
                assert _scaled_argument(x, period) == 0.0
                assert eval_periodized(PeriodizedFunction("sin", period), x) == 0.0
        assert _scaled_argument(0.0, TWO_PI) == 0.0

    def test_pi_bits_against_mpmath(self):
        for bits in (53, 256, 1200, 5000, 0, 1):
            with mpmath.workprec(bits + 128):
                expected = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** bits))
            assert pi_bits(bits) == expected

    def test_huge_radian_arguments(self):
        assert SIN_2PI(1e100) == -0.38063773100502835
        sin_two_thirds_pi = PeriodizedFunction("sin", ExactScalar(2, 3, 1))
        assert sin_two_thirds_pi(1e300) == -0.26522005672091986

    def test_cpu_time_over_every_band(self):
        # 30,000 evaluations across the benchmark's periods and |x| from
        # below one period up to 1e300, as that workload draws them.  The
        # integer reduction takes about 0.1 s of CPU time on a 2-vCPU
        # x86-64 host with Python 3.11; a Fraction-based one takes 0.7 s.
        rng = random.Random(3)
        bands = ((-1.0, 0.0), (0.0, 6.0), (6.0, 15.0), (15.0, 55.0), (63.0, 300.0))
        work = []
        for period in BENCHMARK_PERIODS:
            f = PeriodizedFunction("sin", period)
            for lo, hi in bands:
                for _ in range(1_200):
                    x = 10 ** rng.uniform(lo, hi) * period.to_float()
                    work.append((f, -x if rng.random() < 0.5 else x))
        start = time.process_time()
        for f, x in work:
            eval_periodized(f, x)
        assert time.process_time() - start < 0.5


def _outcome(f, x):
    """f(x) as a bit-exact hex string, or the name of the error it raised."""
    try:
        return f(x).hex()
    except DomainError as error:  # PoleError included
        return type(error).__name__


def _cleared(f, x):
    """The outcome of f(x) with the latest reduction forgotten first."""
    trig._last_reduction = (None, None, 0.0)
    return _outcome(f, x)


class TestLatestReduction:
    def test_interleaved_calls_match_a_cleared_memo(self):
        # Equal-valued period objects, 2 against 2π, ±0, one x against
        # several periods, odd quarter points for tan and non-finite x
        # after a cached entry, in a seeded order that mixes hits and
        # misses.  Every outcome must equal the one from a cold reduction.
        periods = (
            ExactScalar(360),
            ExactScalar(360),
            ExactScalar(2),
            ExactScalar(2, 1, 1),
            TWO_PI,
            ExactScalar(1),
        )
        rng = random.Random(29)
        xs = [0.0, -0.0, 90.0, -270.0, 0.5, 1.5, 0.25, math.pi / 2, 1e300, -30.0]
        xs += [_log_uniform(rng, -30, 80) for _ in range(10)]
        x, period = 0.0, periods[0]
        calls = []
        for _ in range(4_000):
            r = rng.random()
            if r < 0.3:
                x = rng.choice(xs)
            elif r < 0.5:
                period = rng.choice(periods)
            elif r < 0.55:
                bad = rng.choice((math.nan, math.inf, -math.inf))
                calls.append((PeriodizedFunction(rng.choice(FORWARD_KINDS), period), bad))
            calls.append((PeriodizedFunction(rng.choice(FORWARD_KINDS), period), x))
        expected = [_cleared(f, x) for f, x in calls]
        assert [_outcome(f, x) for f, x in calls] == expected
        assert {"PoleError", "DomainError"} <= set(expected)

    def test_two_threads_match_precomputed_values(self):
        work = (
            [PeriodizedFunction(kind, ExactScalar(360)) for kind in FORWARD_KINDS],
            30.0 + 360.0 * 1e9,
        ), (
            [PeriodizedFunction(kind, TWO_PI) for kind in FORWARD_KINDS],
            1e22,
        )
        expected = [[_cleared(f, x) for f in functions] for functions, x in work]
        mismatches = []

        def run(index):
            functions, x = work[index]
            for i in range(3_000):
                k = i % 3
                if _outcome(functions[k], x) != expected[index][k]:
                    mismatches.append((index, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []

    def test_one_reduction_per_argument_and_period_object(self, monkeypatch):
        calls = []

        def counting(x, period):
            calls.append(x)
            return _scaled_argument(x, period)

        monkeypatch.setattr(trig, "_scaled_argument", counting)
        period = ExactScalar(360)
        sin_f, cos_f, tan_f = (PeriodizedFunction(kind, period) for kind in FORWARD_KINDS)
        sin_f(12.5)
        cos_f(12.5)
        tan_f(12.5)
        sin_f(12.5)
        assert len(calls) == 1
        pythagorean_residual(period, 13.5)
        assert len(calls) == 2
        assert sin_f(90.0) == 1.0
        with pytest.raises(PoleError):
            tan_f(90.0)  # the pole test runs on a reused reduction too
        assert len(calls) == 3
        with pytest.raises(DomainError):
            tan_f(math.nan)
        cos_f(90.0)
        assert len(calls) == 3
        sin_f(91.0)  # a new x
        assert len(calls) == 4
        PeriodizedFunction("sin", ExactScalar(360))(91.0)  # another period object
        assert len(calls) == 5
        assert PeriodizedFunction("sin", ExactScalar(2))(0.5) == 1.0
        assert PeriodizedFunction("sin", ExactScalar(2, 1, 1))(0.5) == math.sin(0.5)
        assert len(calls) == 7


def _negated(f, x):
    """−f(x) as `eval_periodized` gives it for −x (an exact zero stays +0.0), or the error's name."""
    try:
        return (0.0 - f(x)).hex()
    except DomainError as error:
        return type(error).__name__


POLE_PERIODS = (1, 360, 400, 21600, 1296000)


class TestSymmetryAndPoles:
    def test_sin_and_tan_odd_and_cos_even_bit_for_bit(self):
        rng = random.Random(2404)
        outcomes = set()
        for period in BENCHMARK_PERIODS:
            sin_f, cos_f, tan_f = (PeriodizedFunction(kind, period) for kind in FORWARD_KINDS)
            p = period.to_float()
            xs = [rng.uniform(-p, p) for _ in range(400)]
            xs += [_log_uniform(rng, -1074, 996) for _ in range(400)]
            xs += [p * rng.randint(-80, 80) / rng.choice((1, 4, 8, 12)) for _ in range(200)]
            for x in xs:
                for f in (sin_f, tan_f):
                    outcome = _outcome(f, -x)
                    assert outcome == _negated(f, x), (f, x)
                    outcomes.add(outcome)
                assert _outcome(cos_f, -x) == _outcome(cos_f, x), (period, x)
        assert {"PoleError", "0x0.0p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0"} <= outcomes

    def test_small_negative_arguments_keep_their_value(self):
        assert SIN_360(-30.0) == -0.5
        assert SIN_2PI(-1e-20) == -1e-20
        assert SIN_2PI(-0.0).hex() == "0x0.0p+0"
        assert SIN_360(-360.0).hex() == "0x0.0p+0"

    def test_every_representable_odd_quarter_is_a_pole(self):
        rng = random.Random(2405)
        for p in POLE_PERIODS:
            tan_f = PeriodizedFunction("tan", ExactScalar(p))
            ks = list(range(-20, 21)) + [10**15, -(10**15)]
            ks += [rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(1, 15)) for _ in range(400)]
            poles = 0
            for k in ks:
                for q in (1, 3):
                    exact = Fraction(p * q, 4) + k * p
                    if Fraction(float(exact)) != exact:
                        continue
                    poles += 1
                    with pytest.raises(PoleError):
                        tan_f(float(exact))
            assert poles >= 300, p

    def test_finite_at_least_a_billionth_of_a_period_from_every_odd_quarter(self):
        rng = random.Random(2406)
        for p in POLE_PERIODS:
            tan_f = PeriodizedFunction("tan", ExactScalar(p))
            checked = 0
            for _ in range(500):
                offset = rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -0.7)
                x = p * (rng.randint(-(10**6), 10**6) + rng.choice((0.25, 0.75)) + offset)
                quarters = Fraction(x) * 4 / p  # odd integers are the poles
                if abs(quarters % 2 - 1) < Fraction(4, 10**9):
                    continue
                checked += 1
                assert math.isfinite(tan_f(x)), (p, x)
            assert checked >= 450, p
        # The former 1e-10 window on θ raised here.
        assert TAN_360(90.000000001) == -57295719343.77307
