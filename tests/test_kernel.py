"""Kernel primitives: examples with known values plus algebraic invariants."""

import copy
import math
import pickle
import random

import pytest

from miquel.centers import SpecialRole
from miquel.chains import ChainRecord
from miquel.errors import CollinearError, GeometryError
from miquel.kernel import (
    LENGTH_EPS,
    Circle,
    Line,
    Point,
    Triangle,
    angle_distance,
    circle_circle_intersections,
    circumcircle,
    directed_angle,
    half_turn,
    invert_point,
    line_circle_intersections,
    reflect_over_line,
    second_intersection,
    triangle_contains,
)
from miquel.triads import Triad

SQ3 = math.sqrt(3.0)


def _triangle():
    return Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))


# a builder of each immutable value type, and the type's fields in order
VALUE_TYPES = [
    (lambda: Point(0.5, 2.0), ("x", "y")),
    (lambda: Circle(Point(1.0, 0.0), 2.0), ("center", "radius")),
    (lambda: Line(Point(1.0, 0.0), Point(3.0, 4.0)), ("anchor", "direction")),
    (_triangle, ("a", "b", "c")),
    (lambda: SpecialRole("s_role", "B"), ("role", "vertex")),
    (lambda: ChainRecord(_triangle(), Point(2.0, 1.0), ((0.0, 0.0, 1.0, 0.0, 0.0, 1.0),)),
     ("seed", "point", "steps_xy")),
    (lambda: Triad.at(_triangle(), 0.3, 0.3, 0.3), ("host", "x", "y", "z")),
]


@pytest.mark.parametrize(
    "make, fields", VALUE_TYPES, ids=[type(make()).__name__ for make, _ in VALUE_TYPES]
)
def test_value_types_are_frozen_and_compare_by_fields(make, fields):
    value, twin = make(), make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and value is not twin and hash(value) == hash(twin)
    values = tuple(getattr(value, name) for name in fields)
    assert repr(value) == (
        f"{type(value).__name__}("
        + ", ".join(f"{name}={v!r}" for name, v in zip(fields, values)) + ")"
    )
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    # a tuple of the same fields is not the value
    assert value != values


class TestPoint:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite coordinates"):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            Point(0.0, math.inf)

    def test_frozen(self):
        p = Point(0.5, 2.0)
        with pytest.raises(AttributeError):
            p.x = 1.0
        assert p == Point(0.5, 2.0)

    def test_equal_points_hash_equal(self):
        p, q = Point(1.5, -2.0), Point(1.5, -2.0)
        assert p == q and p is not q
        assert hash(p) == hash(q)
        assert len({p, q, Point(-2.0, 1.5)}) == 2


class TestCircumcircle:
    def test_right_triangle_hypotenuse_midpoint(self):
        c = circumcircle(Point(0, 0), Point(4, 0), Point(0, 3))
        assert c.center.dist(Point(2, 1.5)) < 1e-12
        assert abs(c.radius - 2.5) < 1e-12

    def test_equilateral_layout(self):
        c = circumcircle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))
        assert c.center.dist(Point(0, 0)) < 1e-12
        assert abs(c.radius - 1.0) < 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(CollinearError):
            circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
            try:
                base = circumcircle(*pts)
            except CollinearError:
                continue
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                c = circumcircle(*(pts[i] for i in perm))
                assert c.center.dist(base.center) < 1e-9 * base.radius
                assert abs(c.radius - base.radius) < 1e-9 * base.radius


class TestCircleCircle:
    def test_symmetric_lens(self):
        hits = circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(1, 0), 1))
        assert len(hits) == 2
        got = sorted(hits, key=lambda p: p.y)
        assert got[1].dist(Point(0.5, SQ3 / 2)) < 1e-12
        assert got[0].dist(Point(0.5, -SQ3 / 2)) < 1e-12

    def test_external_tangency_single_point(self):
        hits = circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(2, 0), 1))
        assert len(hits) == 1
        assert hits[0].dist(Point(1, 0)) < 1e-12

    def test_disjoint(self):
        assert circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(5, 0), 1)) == []

    def test_identical_rejected(self):
        with pytest.raises(GeometryError, match="^the circles coincide within tolerance$"):
            circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(0, 0), 1))

    def test_points_lie_on_both(self):
        rng = random.Random(7)
        for _ in range(200):
            c1 = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.5, 3))
            c2 = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.5, 3))
            try:
                hits = circle_circle_intersections(c1, c2)
            except GeometryError:  # the circles coincide
                continue
            for p in hits:
                scale = max(c1.radius, c2.radius)
                assert abs(c1.offset_of(p)) < 1e-9 * scale
                assert abs(c2.offset_of(p)) < 1e-9 * scale


class TestDirectedAngle:
    """directed_angle's floats, reduced by half_turn and compared by
    angle_distance."""

    def test_perpendicular(self):
        d = directed_angle(Point(1, 0), Point(0, 0), Point(0, 1))
        assert abs(d - math.pi / 2) < 1e-12

    def test_same_line_is_zero(self):
        d = directed_angle(Point(1, 0), Point(0, 0), Point(2, 0))
        assert abs(d) < 1e-12

    def test_quarter_between(self):
        d = directed_angle(Point(1, 0), Point(0, 0), Point(1, 1))
        assert abs(d - math.pi / 4) < 1e-12

    def test_degenerate_leg(self):
        with pytest.raises(GeometryError, match="^angle leg collapses onto the apex$"):
            directed_angle(Point(0, 0), Point(0, 0), Point(1, 1))

    def test_antisymmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            p, q, r = (Point(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3))
            if min(p.dist(q), r.dist(q)) < 1e-6:
                continue
            assert angle_distance(directed_angle(p, q, r), -directed_angle(r, q, p)) < 1e-12

    def test_chain_rule(self):
        # angle(p,q,r) + angle(r,q,s) == angle(p,q,s) mod half turn
        rng = random.Random(5)
        for _ in range(300):
            q = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            p, r, s = (Point(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3))
            if min(p.dist(q), r.dist(q), s.dist(q)) < 1e-3:
                continue
            lhs = half_turn(directed_angle(p, q, r) + directed_angle(r, q, s))
            assert angle_distance(lhs, directed_angle(p, q, s)) < 1e-12

    def test_canonical_range(self):
        for v in (-10.0, -math.pi / 2, 0.0, math.pi / 2, math.pi, 9.7):
            d = half_turn(v)
            assert -math.pi / 2 < d <= math.pi / 2
            assert angle_distance(d, v) < 1e-15
            # a representative is left as it is
            assert half_turn(d) == d
        assert half_turn(-math.pi / 2) == math.pi / 2


class TestInversion:
    def test_radius_squared_over_distance(self):
        c = Circle(Point(0, 0), 1)
        assert invert_point(c, Point(2, 0)).dist(Point(0.5, 0)) < 1e-12

    def test_fixed_on_circle(self):
        c = Circle(Point(0, 0), 1)
        assert invert_point(c, Point(0, 1)).dist(Point(0, 1)) < 1e-12

    def test_center_rejected(self):
        with pytest.raises(GeometryError, match="^the center inverts to an infinite point$"):
            invert_point(Circle(Point(0, 0), 1), Point(0, 0))

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(300):
            c = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.3, 2))
            d = c.radius * rng.uniform(0.1, 10.0)
            phi = rng.uniform(0, 2 * math.pi)
            p = Point(c.center.x + d * math.cos(phi), c.center.y + d * math.sin(phi))
            assert invert_point(c, invert_point(c, p)).dist(p) < 1e-9 * c.radius


class TestReflection:
    def test_y_axis(self):
        axis = Line(Point(0, 0), Point(0, 1))
        assert reflect_over_line(axis, Point(1, 0)).dist(Point(-1, 0)) < 1e-12
        assert reflect_over_line(axis, Point(0, 5)).dist(Point(0, 5)) < 1e-12

    def test_diagonal_swaps_coordinates(self):
        diag = Line(Point(0, 0), Point(1, 1))
        assert reflect_over_line(diag, Point(2, 0)).dist(Point(0, 2)) < 1e-12

    def test_involution_and_line_distances(self):
        rng = random.Random(17)
        for _ in range(200):
            anchor = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if d.norm() < 1e-3:
                continue
            axis = Line(anchor, d)
            p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            q = reflect_over_line(axis, p)
            assert reflect_over_line(axis, q).dist(p) < 1e-12
            for t in (-2.0, 0.0, 1.5):
                on_line = axis.at(t)
                ref = max(1.0, p.dist(on_line))
                assert abs(p.dist(on_line) - q.dist(on_line)) < 1e-12 * ref


class TestSecondIntersection:
    def test_diameter(self):
        line = Line(Point(0, 0), Point(0, 1))
        res = second_intersection(line, Circle(Point(0, 0), 1), Point(0, 1))
        assert res.dist(Point(0, -1)) < 1e-12

    def test_tangent_returns_known(self):
        line = Line(Point(0, 1), Point(1, 0))
        known = Point(0, 1)
        assert second_intersection(line, Circle(Point(0, 0), 1), known) is known

    def test_diagonal_diameter(self):
        s = math.sqrt(2) / 2
        line = Line(Point(0, 0), Point(1, 1))
        res = second_intersection(line, Circle(Point(0, 0), 1), Point(s, s))
        assert res.dist(Point(-s, -s)) < 1e-12

    def test_known_must_lie_on_both(self):
        with pytest.raises(
            GeometryError, match="^the known point is not on both the line and the circle$"
        ):
            second_intersection(Line(Point(0, 0), Point(1, 0)), Circle(Point(0, 0), 1), Point(3, 3))


class TestTriangleContains:
    T = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))

    def test_interior(self):
        assert triangle_contains(self.T, Point(1, 1)) is True

    def test_exterior(self):
        assert triangle_contains(self.T, Point(10, 10)) is False
        # the test is strict: a point on a side is not inside
        assert triangle_contains(self.T, Point(2, 0)) is False


class TestTriangle:
    def test_degenerate_rejected(self):
        with pytest.raises(CollinearError):
            Triangle(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_thin_right_triangle_rejected(self):
        # circumcircle would call the vertices collinear
        with pytest.raises(CollinearError, match="collinear within tolerance"):
            Triangle(Point(0, 0), Point(1, 0), Point(1, 7e-10))

    @pytest.mark.parametrize(
        "vertices",
        [
            # B − A overflows
            ((-1e308, -1e308), (1e308, -1e308), (0, 1e308)),
            # B − A is finite, C − A overflows
            ((-1e308, 0.0), (0.0, 1.0), (1e308, 0.0)),
        ],
    )
    def test_overflowing_vertex_difference_is_a_non_finite_point(self, vertices):
        # Point's error, as when the differences were Points, not CollinearError
        with pytest.raises(ValueError) as info:
            Triangle(*(Point(x, y) for x, y in vertices))
        assert str(info.value) == "non-finite coordinates (inf, 0.0)"

    def test_thin_well_conditioned_triangle_accepted(self):
        # base angles of 6e-4 rad, yet the circumcircle is well defined:
        # R = abc / 4K with a = b = sqrt(0.25 + 9e-8), c = 1, K = 1.5e-4
        t = Triangle(Point(0, 0), Point(1, 0), Point(0.5, 3e-4))
        assert abs(t.circumradius - (0.25 + 9e-8) / 6e-4) < 1e-9

    def test_every_constructed_triangle_has_a_circumcircle(self):
        rng = random.Random(11)
        built = 0
        for _ in range(10000):
            a = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            # c next to b, in any direction: some of these are collinear
            # for circumcircle
            d = (b - a).norm() * 10.0 ** rng.uniform(-12.0, -6.0)
            c = b + Point(d, 0.0).rotated(rng.uniform(0.0, 2.0 * math.pi))
            try:
                t = Triangle(a, b, c)
            except CollinearError:
                continue
            built += 1
            assert t.circumcircle.radius > 0.0
        assert 0 < built < 10000

    def test_angles_sum(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))
        assert abs(sum(t.angles) - math.pi) < 1e-12

    def test_predicates(self):
        t345 = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
        assert t345.is_right()
        assert t345.is_scalene()
        eq = Triangle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))
        assert not eq.is_scalene()
        assert eq.is_isosceles_at("A", LENGTH_EPS)
        iso = Triangle(Point(0, 2), Point(-1, 0), Point(1, 0))
        assert iso.is_isosceles_at("A", LENGTH_EPS)
        assert not iso.is_isosceles_at("B", LENGTH_EPS)

    def test_orientation_sign(self):
        # containment reads the sign of the area, so both turns of the same
        # vertices contain the same points
        ccw = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
        cw = Triangle(Point(0, 0), Point(0, 1), Point(1, 0))
        for t in (ccw, cw):
            assert triangle_contains(t, Point(0.25, 0.25))
            assert not triangle_contains(t, Point(0.75, 0.75))


def test_line_offset_and_param_match_vector_form():
    # the scalar forms do the vector forms' float operations in their order
    rng = random.Random(5)
    for _ in range(200):
        a, b, p = (Point(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(3))
        line = Line.through(a, b)
        assert line.offset(p) == line.direction.cross(p - line.anchor)
        assert line.param_of(p) == (p - line.anchor).dot(line.direction)
    with pytest.raises(ValueError):
        Line.through(a, a)


def test_line_circle_intersections_on_circle():
    c = Circle(Point(1, 1), 2)
    hits = line_circle_intersections(Line(Point(1, 1), Point(1, 0)), c)
    assert len(hits) == 2
    for p in hits:
        assert abs(c.offset_of(p)) < 1e-12
