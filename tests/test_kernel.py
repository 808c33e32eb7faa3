"""Kernel primitives: examples with known values plus algebraic invariants."""

import copy
import math
import pickle
import random

import pytest

from miquel import kernel
from miquel.centers import SpecialRole, is_right, is_scalene, measures_xy
from miquel.chains import ChainRecord
from miquel.errors import CollinearError, GeometryError
from miquel.kernel import (
    LENGTH_EPS,
    Point,
    Triangle,
    angle_distance,
    checked_circle,
    circle_circle_intersections,
    circle_xy,
    circumcircle,
    contains_xy,
    directed_angle_xy,
    half_turn,
    invert_xy,
    line_circle_intersections,
    line_through,
    reflect_xy,
    second_intersection,
    unit_direction,
)

SQ3 = math.sqrt(3.0)


def _triangle():
    return Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))


def _line(anchor, direction):
    """The line through ``anchor`` along ``direction``, normalized."""
    return (anchor.x, anchor.y, *unit_direction(direction.x, direction.y))


def _offset_from(circle, p):
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    return math.hypot(cx - p.x, cy - p.y) - r


def _reflect(line, p):
    return Point(*reflect_xy(*line, p.x, p.y))


def directed_angle(p, q, r):
    return directed_angle_xy(*p, *q, *r)


def _invert(c, p):
    return Point(*invert_xy(c, p.x, p.y))


def _contains(t, p):
    return contains_xy(t.xy, p.x, p.y)


def _is_isosceles_at(t, label, length_eps):
    """The two sides at ``label`` differ by less than ``length_eps`` times R."""
    i = "ABC".index(label)
    m = measures_xy(t.xy)
    lens = m.side_lengths
    return abs(lens[(i + 1) % 3] - lens[(i + 2) % 3]) < length_eps * m.circumradius


# a builder of each immutable value type, and the type's fields in order
VALUE_TYPES = [
    (lambda: Point(0.5, 2.0), ("x", "y")),
    (_triangle, ("a", "b", "c")),
    (lambda: SpecialRole("s_role", "B"), ("role", "vertex")),
    (lambda: ChainRecord(measures_xy(_triangle().xy), (2.0, 1.0),
                         ((0.0, 0.0, 1.0, 0.0, 0.0, 1.0),),
                         (circumcircle(*_triangle().xy), (0.5, 0.5, math.sqrt(0.5)))),
     ("seed", "point", "steps", "circles")),
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
    if type(value) in (SpecialRole, ChainRecord):
        # a NamedTuple: the tuple of its fields is the value
        assert isinstance(value, tuple) and value == values
    else:
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
        cx, cy, r = circumcircle(0, 0, 4, 0, 0, 3)
        assert math.hypot(cx - 2, cy - 1.5) < 1e-12
        assert abs(r - 2.5) < 1e-12

    def test_equilateral_layout(self):
        cx, cy, r = circumcircle(0, 1, -SQ3 / 2, -0.5, SQ3 / 2, -0.5)
        assert math.hypot(cx, cy) < 1e-12
        assert abs(r - 1.0) < 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(CollinearError):
            circumcircle(0, 0, 1, 0, 2, 0)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
            try:
                bx, by, br = circumcircle(*pts[0], *pts[1], *pts[2])
            except CollinearError:
                continue
            for i, j, k in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                cx, cy, r = circumcircle(*pts[i], *pts[j], *pts[k])
                assert math.hypot(cx - bx, cy - by) < 1e-9 * br
                assert abs(r - br) < 1e-9 * br


class TestCheckedCircle:
    """The checks of circumcircle and of miquel_point's circles: the center
    first (checked_xy's error), then the radius."""

    @pytest.mark.parametrize(
        "circle, message",
        [
            ((math.nan, 0.0, 1.0), "non-finite coordinates (nan, 0.0)"),
            ((0.0, math.inf, 1.0), "non-finite coordinates (0.0, inf)"),
            # the center is checked before the radius
            ((-math.inf, 0.0, -1.0), "non-finite coordinates (-inf, 0.0)"),
            ((1.0, 2.0, 0.0), "radius must be strictly positive, got 0.0"),
            ((1.0, 2.0, -0.5), "radius must be strictly positive, got -0.5"),
            ((1.0, 2.0, math.nan), "radius must be strictly positive, got nan"),
            ((1.0, 2.0, math.inf), "radius must be strictly positive, got inf"),
        ],
    )
    def test_messages(self, circle, message, monkeypatch):
        with pytest.raises(ValueError) as info:
            checked_circle(circle)
        assert str(info.value) == message
        # circumcircle raises them for what circle_xy returns
        monkeypatch.setattr(kernel, "circle_xy", lambda *xy: circle)
        with pytest.raises(ValueError) as info:
            circumcircle(0, 0, 4, 0, 1, 3)
        assert str(info.value) == message

    def test_passes_a_finite_circle_through(self):
        circle = circle_xy(0, 0, 4, 0, 1, 3)
        assert checked_circle(circle) is circle
        m = measures_xy(_triangle().xy)
        assert circumcircle(0, 0, 4, 0, 1, 3) == circle == (*m.circumcenter_xy, m.circumradius)


class TestCircleCircle:
    def test_symmetric_lens(self):
        hits = circle_circle_intersections((0, 0, 1), (1, 0, 1))
        assert len(hits) == 2
        got = sorted(hits, key=lambda p: p.y)
        assert math.dist(got[1], (0.5, SQ3 / 2)) < 1e-12
        assert math.dist(got[0], (0.5, -SQ3 / 2)) < 1e-12

    def test_external_tangency_single_point(self):
        hits = circle_circle_intersections((0, 0, 1), (2, 0, 1))
        assert len(hits) == 1
        assert math.dist(hits[0], (1, 0)) < 1e-12

    def test_disjoint(self):
        assert circle_circle_intersections((0, 0, 1), (5, 0, 1)) == []

    def test_identical_rejected(self):
        with pytest.raises(GeometryError, match="^the circles coincide within tolerance$"):
            circle_circle_intersections((0, 0, 1), (0, 0, 1))

    def test_points_lie_on_both(self):
        rng = random.Random(7)
        for _ in range(200):
            c1 = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3))
            c2 = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3))
            try:
                hits = circle_circle_intersections(c1, c2)
            except GeometryError:  # the circles coincide
                continue
            for p in hits:
                scale = max(c1[2], c2[2])
                assert abs(_offset_from(c1, p)) < 1e-9 * scale
                assert abs(_offset_from(c2, p)) < 1e-9 * scale


class TestDirectedAngle:
    """directed_angle_xy's floats, reduced by half_turn and compared by
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
            if min(math.dist(p, q), math.dist(r, q)) < 1e-6:
                continue
            assert angle_distance(directed_angle(p, q, r), -directed_angle(r, q, p)) < 1e-12

    def test_chain_rule(self):
        # angle(p,q,r) + angle(r,q,s) == angle(p,q,s) mod half turn
        rng = random.Random(5)
        for _ in range(300):
            q = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            p, r, s = (Point(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(3))
            if min(math.dist(p, q), math.dist(r, q), math.dist(s, q)) < 1e-3:
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
        assert math.dist(_invert((0, 0, 1), Point(2, 0)), (0.5, 0)) < 1e-12

    def test_fixed_on_circle(self):
        assert math.dist(_invert((0, 0, 1), Point(0, 1)), (0, 1)) < 1e-12

    def test_center_rejected(self):
        with pytest.raises(GeometryError, match="^the center inverts to an infinite point$"):
            _invert((0, 0, 1), Point(0, 0))

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(300):
            c = cx, cy, r = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 2))
            d = r * rng.uniform(0.1, 10.0)
            phi = rng.uniform(0, 2 * math.pi)
            p = Point(cx + d * math.cos(phi), cy + d * math.sin(phi))
            assert math.dist(_invert(c, _invert(c, p)), p) < 1e-9 * r


class TestReflection:
    def test_y_axis(self):
        axis = _line(Point(0, 0), Point(0, 1))
        assert math.dist(_reflect(axis, Point(1, 0)), (-1, 0)) < 1e-12
        assert math.dist(_reflect(axis, Point(0, 5)), (0, 5)) < 1e-12

    def test_diagonal_swaps_coordinates(self):
        diag = _line(Point(0, 0), Point(1, 1))
        assert math.dist(_reflect(diag, Point(2, 0)), (0, 2)) < 1e-12

    def test_involution_and_line_distances(self):
        rng = random.Random(17)
        for _ in range(200):
            anchor = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(d.x, d.y) < 1e-3:
                continue
            axis = _line(anchor, d)
            p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            q = _reflect(axis, p)
            assert math.dist(_reflect(axis, q), p) < 1e-12
            ax, ay, ux, uy = axis
            for t in (-2.0, 0.0, 1.5):
                on_line = Point(ax + t * ux, ay + t * uy)
                ref = max(1.0, math.dist(p, on_line))
                assert abs(math.dist(p, on_line) - math.dist(q, on_line)) < 1e-12 * ref


class TestSecondIntersection:
    def test_diameter(self):
        line = _line(Point(0, 0), Point(0, 1))
        res = Point(*second_intersection(line, (0, 0, 1), Point(0, 1)))
        assert math.dist(res, (0, -1)) < 1e-12

    def test_tangent_returns_known(self):
        line = _line(Point(0, 1), Point(1, 0))
        known = (0.0, 1.0)
        assert second_intersection(line, (0, 0, 1), known) == known
        # a tangent at a generic angle, anchored away from the contact point:
        # the mirror of ``known`` in the center's foot misses it in the last
        # bits, so only the tangency rule returns ``known`` exactly
        c, s = math.cos(0.7), math.sin(0.7)
        known = (c, s)
        line = _line(Point(c - 2.0 * s, s + 2.0 * c), Point(-s, c))
        assert second_intersection(line, (0, 0, 1), known) == known

    def test_diagonal_diameter(self):
        s = math.sqrt(2) / 2
        line = _line(Point(0, 0), Point(1, 1))
        res = Point(*second_intersection(line, (0, 0, 1), Point(s, s)))
        assert math.dist(res, (-s, -s)) < 1e-12

    def test_known_must_lie_on_both(self):
        with pytest.raises(
            GeometryError, match="^the known point is not on both the line and the circle$"
        ):
            second_intersection(_line(Point(0, 0), Point(1, 0)), (0, 0, 1), Point(3, 3))


class TestTriangleContains:
    T = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))

    def test_interior(self):
        assert _contains(self.T, Point(1, 1)) is True

    def test_exterior(self):
        assert _contains(self.T, Point(10, 10)) is False
        # the test is strict: a point on a side is not inside
        assert _contains(self.T, Point(2, 0)) is False


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
        assert abs(measures_xy(t.xy).circumradius - (0.25 + 9e-8) / 6e-4) < 1e-9

    def test_every_constructed_triangle_has_a_circumcircle(self):
        rng = random.Random(11)
        built = 0
        for _ in range(10000):
            a = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            # c next to b, in any direction: some of these are collinear
            # for circumcircle
            d = math.dist(b, a) * 10.0 ** rng.uniform(-12.0, -6.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c = Point(b.x + d * math.cos(phi), b.y + d * math.sin(phi))
            try:
                t = Triangle(a, b, c)
            except CollinearError:
                continue
            built += 1
            assert circumcircle(*t.xy)[2] > 0.0
        assert 0 < built < 10000

    def test_angles_sum(self):
        t = measures_xy((0.0, 0.0, 4.0, 0.0, 1.0, 3.0))
        assert abs(sum(t.angles) - math.pi) < 1e-12

    def test_predicates(self):
        t345 = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
        assert is_right(measures_xy(t345.xy))
        assert is_scalene(measures_xy(t345.xy))
        eq = Triangle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))
        assert not is_scalene(measures_xy(eq.xy))
        assert _is_isosceles_at(eq, "A", LENGTH_EPS)
        iso = Triangle(Point(0, 2), Point(-1, 0), Point(1, 0))
        assert _is_isosceles_at(iso, "A", LENGTH_EPS)
        assert not _is_isosceles_at(iso, "B", LENGTH_EPS)

    def test_orientation_sign(self):
        # containment reads the sign of the area, so both turns of the same
        # vertices contain the same points
        ccw = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
        cw = Triangle(Point(0, 0), Point(0, 1), Point(1, 0))
        for t in (ccw, cw):
            assert _contains(t, Point(0.25, 0.25))
            assert not _contains(t, Point(0.75, 0.75))


def test_line_through_is_anchored_at_its_first_point_with_a_unit_direction():
    rng = random.Random(5)
    for _ in range(200):
        a, b = (Point(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(2))
        ax, ay, dx, dy = line_through(a, b)
        assert Point(ax, ay) == a and abs(math.hypot(dx, dy) - 1.0) < 1e-14
    with pytest.raises(ValueError, match="^line direction must be a nonzero finite vector$"):
        line_through(a, a)


def test_line_circle_intersections_on_circle():
    c = (1, 1, 2)
    hits = line_circle_intersections(_line(Point(1, 1), Point(1, 0)), c)
    assert len(hits) == 2
    for p in hits:
        assert abs(_offset_from(c, p)) < 1e-12
