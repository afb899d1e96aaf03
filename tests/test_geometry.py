"""Rays, arcs, chords, and the quadrature-only chord integral."""

import ast
import math
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import anglekit.geometry
import anglekit.quadrature
from anglekit.angles import DEGREE, RADIAN, TURN, AngleValue, Measure
from anglekit.errors import DegenerateVertexError, DomainError, ZeroAngleError
from anglekit.exact import ONE, PI, TWO_PI, ExactScalar
from anglekit.geometry import (
    ArcSpec,
    PlanarPoint,
    angle_from_points,
    arc_length,
    chord_integral,
    chord_length,
)
from anglekit.quadrature import gauss_legendre_nodes, integrate


class TestQuadrature:
    def test_order_five_nodes_match_closed_form(self):
        # Oracle: the classical closed-form nodes for the 5-point rule.
        nodes, weights = gauss_legendre_nodes(5)
        expected_nodes = sorted(
            [
                -math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3,
                -math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
                0.0,
                math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
                math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3,
            ]
        )
        for got, want in zip(sorted(nodes), expected_nodes):
            assert got == pytest.approx(want, abs=1e-15)

    def test_weights_sum_to_interval_length(self):
        for order in (4, 8, 16, 32):
            _, weights = gauss_legendre_nodes(order)
            assert math.fsum(weights) == pytest.approx(2.0, abs=1e-14)

    def test_polynomial_exactness(self):
        # A 16-point rule integrates x^k exactly through k = 31.
        for k in (0, 1, 5, 17, 31):
            got = integrate(lambda t, k=k: t**k, 0.0, 1.0)
            assert got == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_sine_over_half_period(self):
        # Analytic oracle: the integral is exactly 2.
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(math.sin, 1.0, 1.0) == 0.0

    def test_rejects_silly_order(self):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(1)

    def test_unconverged_interval_raises(self):
        # The singular u^-1/2 cannot meet 1e-14 within the bisection
        # limit; the estimate it reached (1.99999996) is not returned.
        with pytest.raises(DomainError):
            integrate(lambda u: u**-0.5, 0.0, 1.0, tolerance=1e-14)
        with pytest.raises(DomainError):
            integrate(lambda u: math.nan, 0.0, 1.0)


class TestChordIntegral:
    def test_never_calls_inverse_trig(self):
        # The integral is the independent route to the inverse sine, so
        # its implementation must not lean on one.  atan2 is fine for
        # ray geometry; the chord integral itself lives in functions
        # that may reference no inverse trig name at all.
        banned = {"asin", "acos"}
        for module in (anglekit.geometry, anglekit.quadrature):
            source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
            tree = ast.parse(source)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in banned
                if isinstance(node, ast.Name):
                    assert node.id not in banned

    def test_endpoints(self):
        assert chord_integral(0.0) == 0.0
        assert abs(chord_integral(1.0) - math.pi / 2) <= 1e-10

    def test_half(self):
        # Oracle: the library inverse sine, computed by a different route.
        assert abs(chord_integral(0.5) - math.asin(0.5)) <= 1e-10
        assert math.asin(0.5) == 0.5235987755982989

    def test_against_inverse_sine_on_a_grid(self):
        for i in range(0, 100):
            x = i / 100
            assert abs(chord_integral(x) - math.asin(x)) <= 1e-10

    def test_seeded_grid_converges_everywhere(self):
        rng = random.Random(17)
        xs = [5e-324, 1.0] + [rng.random() or 1.0 for _ in range(1_500)]
        xs += [10 ** rng.uniform(-300, 0) for _ in range(300)]
        xs += [1.0 - 10 ** rng.uniform(-16, -1) for _ in range(300)]
        for x in xs:
            assert abs(chord_integral(x) - math.asin(x)) <= 1e-9, x

    def test_near_singular_endpoint(self):
        for x in (0.999, 0.999999, 1.0 - 1e-9):
            assert abs(chord_integral(x) - math.asin(x)) <= 1e-9

    def test_monotone(self):
        previous = -1.0
        for i in range(0, 101):
            value = chord_integral(i / 100)
            assert value > previous
            previous = value

    def test_domain(self):
        with pytest.raises(DomainError):
            chord_integral(-0.1)
        with pytest.raises(DomainError):
            chord_integral(1.1)


class TestArc:
    def test_unit_measure_returns_radius_exactly(self):
        for radius in (1.0, 2.0, 0.3, 7.25, 1e-9, 3.7e12):
            arc = ArcSpec(radius, Measure(ONE))
            assert arc_length(arc) == radius

    def test_half_circle_unit_radius(self):
        arc = ArcSpec(1.0, Measure(PI))
        assert arc_length(arc) == math.pi

    def test_ratio_recovers_measure_exactly_for_power_of_two_radii(self):
        measure = Measure(ExactScalar(5, 7, 1))
        for radius in (0.5, 1.0, 2.0, 4.0, 2.0**20, 2.0**-20):
            arc = ArcSpec(radius, measure)
            assert arc_length(arc) / radius == measure.value.to_float()

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-3, max_value=6.28))
    def test_ratio_recovers_measure_within_one_ulp(self, radius, phi):
        arc = ArcSpec(radius, Measure(ExactScalar.inexact(phi)))
        ratio = arc_length(arc) / radius
        assert abs(ratio - phi) <= math.ulp(phi)

    def test_validation(self):
        with pytest.raises(DomainError):
            ArcSpec(0.0, Measure(ONE))
        with pytest.raises(DomainError):
            ArcSpec(-1.0, Measure(ONE))
        with pytest.raises(DomainError):
            ArcSpec(math.inf, Measure(ONE))
        with pytest.raises(DomainError):
            ArcSpec(1.0, Measure(ExactScalar(0)))
        with pytest.raises(DomainError):
            ArcSpec(1.0, Measure(TWO_PI + ExactScalar(1, 1000, 1)))


class TestChord:
    def test_hexagon_side(self):
        # Oracle: the chord of a sixth of the circle equals the radius.
        angle = AngleValue(ExactScalar(60), DEGREE)
        assert chord_length(angle, 1.0) == pytest.approx(1.0, abs=5e-16)

    def test_square_side(self):
        # Oracle: the chord of a quarter circle is r·sqrt(2).
        angle = AngleValue(ExactScalar(90), DEGREE)
        assert chord_length(angle, 2.0) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-14
        )

    def test_diameter(self):
        angle = AngleValue(ExactScalar(180), DEGREE)
        assert chord_length(angle, 3.5) == 7.0

    def test_full_circle_closes(self):
        angle = AngleValue(ExactScalar(360), DEGREE)
        assert abs(chord_length(angle, 1.0)) < 1e-15

    def test_exact_full_circle_has_zero_chord(self):
        # sin(π) of the rounded π is 1.2e-16, which would scale with r.
        assert chord_length(AngleValue(ExactScalar(360), DEGREE), 1.0) == 0.0
        assert chord_length(AngleValue(TWO_PI, RADIAN), 1e308) == 0.0
        assert chord_length(AngleValue(ExactScalar(1), TURN), 5.0) == 0.0

    def test_zero_angle_has_zero_chord(self):
        for radius in (5.0, 1e308, 1.7976931348623157e308):
            assert chord_length(AngleValue(ExactScalar(0), DEGREE), radius) == 0.0

    @given(
        st.floats(min_value=5e-324, max_value=1e300),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_chord_is_twice_the_radius_times_the_sine(self, radius, phi):
        angle = AngleValue(ExactScalar.inexact(phi), RADIAN)
        assert chord_length(angle, radius) == 2.0 * radius * math.sin(0.5 * phi)

    def test_lengths_past_float_range_raise(self):
        with pytest.raises(DomainError, match="length is outside float range"):
            chord_length(AngleValue(ExactScalar(180), DEGREE), 1e308)
        with pytest.raises(DomainError, match="length is outside float range"):
            arc_length(ArcSpec(1e308, Measure(PI)))
        assert arc_length(ArcSpec(1e308, Measure(ONE))) == 1e308

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            chord_length(AngleValue(ExactScalar(60), DEGREE), 0.0)
        with pytest.raises(DomainError):
            chord_length(AngleValue(ExactScalar(60), DEGREE), math.nan)

    def test_measure_range_validation(self):
        with pytest.raises(DomainError):
            chord_length(AngleValue(ExactScalar(-1), DEGREE), 1.0)
        with pytest.raises(DomainError):
            chord_length(AngleValue(ExactScalar(361), DEGREE), 1.0)

    @given(st.floats(min_value=0.01, max_value=2 * math.pi - 0.01))
    def test_chord_never_exceeds_diameter(self, phi):
        angle = AngleValue(ExactScalar.inexact(phi), RADIAN)
        assert 0.0 <= chord_length(angle, 1.0) <= 2.0 + 1e-15


class TestAngleFromPoints:
    def test_perpendicular(self):
        m = angle_from_points(
            PlanarPoint(1.0, 0.0), PlanarPoint(0.0, 0.0), PlanarPoint(0.0, 1.0)
        )
        assert m.measure.value.to_float() == math.pi / 2

    def test_opposite_rays_are_straight(self):
        m = angle_from_points(
            PlanarPoint(1.0, 0.0), PlanarPoint(0.0, 0.0), PlanarPoint(-2.0, 0.0)
        )
        assert m.measure.value.to_float() == math.pi

    def test_shifted_vertex(self):
        m = angle_from_points(
            PlanarPoint(11.0, 10.0), PlanarPoint(10.0, 10.0), PlanarPoint(10.0, 13.0)
        )
        assert m.measure.value.to_float() == math.pi / 2

    def test_sixty_degrees(self):
        m = angle_from_points(
            PlanarPoint(2.0, 0.0), PlanarPoint(0.0, 0.0), PlanarPoint(1.0, math.sqrt(3.0))
        )
        assert m.measure.value.to_float() == pytest.approx(math.pi / 3, rel=1e-15)

    def test_coincident_rays_have_no_angle(self):
        with pytest.raises(ZeroAngleError):
            angle_from_points(
                PlanarPoint(1.0, 1.0), PlanarPoint(0.0, 0.0), PlanarPoint(2.0, 2.0)
            )

    def test_vertex_coincides_with_endpoint(self):
        with pytest.raises(DegenerateVertexError):
            angle_from_points(
                PlanarPoint(0.0, 0.0), PlanarPoint(0.0, 0.0), PlanarPoint(1.0, 0.0)
            )

    def test_nearly_degenerate_ray_rejected(self):
        with pytest.raises(DegenerateVertexError):
            angle_from_points(
                PlanarPoint(1e-13, 0.0), PlanarPoint(0.0, 0.0), PlanarPoint(1.0, 0.0)
            )

    @staticmethod
    def assert_unscaled_outcome(exponent):
        """Scaled by 2^exponent, the angle (to 1 ulp, for libm's atan2) or the
        error is the unscaled one."""

        def outcome(coords, scale):
            p, vertex, q = (PlanarPoint(x * scale, y * scale) for x, y in coords)
            try:
                return angle_from_points(p, vertex, q).measure.value.to_float()
            except (DegenerateVertexError, ZeroAngleError) as exc:
                return type(exc)

        rng = random.Random(exponent)
        for _ in range(300):
            coords = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3)]
            if rng.random() < 0.2:  # rays along one line, or a ray of length 0
                coords[2] = rng.choice([coords[0], coords[1], (2 * coords[0][0], 2 * coords[0][1])])
            expected = outcome(coords, 1.0)
            got = outcome(coords, 2.0**exponent)
            if isinstance(expected, float):
                assert abs(got - expected) <= math.ulp(expected), coords
            else:
                assert got is expected, coords

    @pytest.mark.parametrize("exponent", [520, 1000, 1015])
    def test_overflowing_products_give_the_unscaled_outcome(self, exponent):
        """Scaled by 2^520 the cross and dot products overflow, by 2^1015 the
        differences too."""
        self.assert_unscaled_outcome(exponent)

    @pytest.mark.parametrize("exponent", [-520, -600, -1000])
    def test_underflowing_products_give_the_unscaled_outcome(self, exponent):
        """Scaled by 2^-520 the cross and dot products lose bits, by 2^-600
        they underflow to 0, and by 2^-1000 the differences lose bits too."""
        self.assert_unscaled_outcome(exponent)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(DomainError):
            PlanarPoint(math.inf, 0.0)
        with pytest.raises(DomainError):
            PlanarPoint(0.0, math.nan)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_result_is_a_magnitude_in_the_ray_range(self, px, py, qx, qy):
        vertex = PlanarPoint(0.0, 0.0)
        try:
            m = angle_from_points(PlanarPoint(px, py), vertex, PlanarPoint(qx, qy))
        except (DegenerateVertexError, ZeroAngleError):
            return
        phi = m.measure.value.to_float()
        assert 0.0 < phi <= math.pi
