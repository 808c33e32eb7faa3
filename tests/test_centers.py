"""Named points checked against independent oracles and known values.

The library computes the Brocard, symmedian arc and median points from their
barycentric closed forms. The oracles avoid those formulas: the symmedian
foot is cross-checked by reflecting the median over the bisector, the
Brocard point by a grid search minimizing the spread of its three angles,
the symmedian arc point by scanning the arc for the symmedian crossing, and
all three by their classical constructions from kernel primitives (tangent
circles, the arc through the opposite side and the circumcenter, the second
hit of the median), on acute and obtuse hosts at every vertex.
"""

import math

import pytest

from miquel.centers import (
    NAMED_POINTS,
    SpecialRole,
    brocard_point,
    eleven_point_catalog,
    isogonal_conjugate,
    locate_xy,
    m_point,
    measures_xy,
    s_point,
    symmedian_foot,
)
from miquel.errors import GeometryError, OnSideLineError, RightAngleDegenerateError
from miquel.kernel import (
    CircleXY,
    LineXY,
    Point,
    Triangle,
    angle_distance,
    circle_circle_intersections,
    circumcircle,
    contains_xy,
    directed_angle_xy,
    invert_xy,
    line_circle_intersections,
    line_line_intersection,
    line_through,
    midpoint,
    offset_xy,
    reflect_xy,
    second_intersection,
    unit_direction,
)
from miquel.sampling import (
    random_acute_triangle,
    random_isosceles,
    random_obtuse_at,
    random_triangle,
    rng_for,
)

O, H, G, L = (SpecialRole(r) for r in ("circumcenter", "orthocenter", "centroid", "incenter"))

SQ3 = math.sqrt(3.0)
T345 = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
TSCA = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))  # acute scalene
TOBT = Triangle(Point(0, 0), Point(4, 0), Point(1.6, 0.9))  # obtuse at C
EQUI = Triangle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))


def _line(anchor: Point, direction: Point) -> LineXY:
    """The line through ``anchor`` along ``direction``, normalized."""
    return (anchor.x, anchor.y, *unit_direction(direction.x, direction.y))


def _offset(line: LineXY, p: Point) -> float:
    return offset_xy(*line, p.x, p.y)


def _side(line: LineXY, p: Point) -> int:
    off = _offset(line, p)
    return (off > 0.0) - (off < 0.0)


def _reflect(line: LineXY, p: Point) -> Point:
    return Point(*reflect_xy(*line, p.x, p.y))


def _offset_from(circle: CircleXY, p: Point) -> float:
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    return math.hypot(cx - p.x, cy - p.y) - r


def _point_at(circle: CircleXY, angle: float) -> Point:
    cx, cy, r = circle
    return Point(cx + r * math.cos(angle), cy + r * math.sin(angle))


def _triangle(xy) -> Triangle:
    """The ``Triangle`` on the six coordinates ``xy``, for the oracles' Point
    operators."""
    ax, ay, bx, by, cx, cy = xy
    return Triangle(Point(ax, ay), Point(bx, by), Point(cx, cy))


def _m(t: Triangle):
    """``t`` measured, as the location bodies read it."""
    return measures_xy(t.xy)


def _locate(t: Triangle, role: SpecialRole) -> Point:
    """Where ``role`` sits in ``t`` (``locate_xy`` of ``t`` measured), as a
    Point."""
    return Point(*locate_xy(_m(t), role))


def _excenter(t: Triangle, v: str) -> Point:
    return _locate(t, SpecialRole("excenter", v))


def _conjugate(t: Triangle, p: Point) -> Point:
    return Point(*isogonal_conjugate(_m(t), p.x, p.y))


def _angle(p: Point, q: Point, r: Point) -> float:
    return directed_angle_xy(*p, *q, *r)


def _barycentric_by_operators(t: Triangle, wa: float, wb: float, wc: float) -> Point:
    return (wa * t.a + wb * t.b + wc * t.c) / (wa + wb + wc)


class TestClassicCenters:
    def test_345_circumcenter(self):
        assert _locate(T345, SpecialRole("circumcenter")).dist(Point(2, 1.5)) < 1e-12

    def test_345_orthocenter_is_right_vertex(self):
        assert _locate(T345, SpecialRole("orthocenter")).dist(Point(0, 0)) < 1e-12

    def test_345_incenter(self):
        # inradius (3+4-5)/2 = 1 with the legs on the axes
        assert _locate(T345, SpecialRole("incenter")).dist(Point(1, 1)) < 1e-12

    def test_circumcenter_equidistant(self):
        rng = rng_for(0, "classic", 0)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            o = _locate(t, O)
            d = [o.dist(v) for v in t.vertices]
            assert max(d) - min(d) < 1e-9 * t.circumradius

    def test_orthocenter_on_altitudes(self):
        rng = rng_for(0, "classic", 1)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            h = _locate(t, H)
            for v in "ABC":
                _, _, dx, dy = line_through(*t.opposite(v))
                assert abs((h - t.vertex(v)).dot(Point(dx, dy))) < 1e-9 * t.circumradius

    def test_incenter_and_excenters_equidistant_from_side_lines(self):
        rng = rng_for(0, "classic", 2)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            for center in [_locate(t, L)] + [_excenter(t, v) for v in "ABC"]:
                offs = [abs(_offset(line_through(*t.opposite(v)), center)) for v in "ABC"]
                assert max(offs) - min(offs) < 1e-9 * t.circumradius

    def test_centroid(self):
        assert _locate(T345, G).dist(Point(4 / 3, 1)) < 1e-12

    def test_locate_covers_table_and_rejects_roles_without_location(self):
        def excenter(t, v):
            weights = list(t.side_lengths)
            weights["ABC".index(v)] *= -1.0
            return _barycentric_by_operators(t, *weights)

        # the classical centers by Point operators, the named points by their
        # Point functions
        functions = {
            "circumcenter": lambda t, v: Point(*t.circumcenter_xy),
            "orthocenter": lambda t, v: t.a + t.b + t.c - 2.0 * Point(*t.circumcenter_xy),
            "centroid": lambda t, v: (t.a + t.b + t.c) / 3.0,
            "incenter": lambda t, v: _barycentric_by_operators(t, *t.side_lengths),
            "excenter": excenter,
            "first_brocard": lambda t, v: brocard_point(_m(t), "first"),
            "second_brocard": lambda t, v: brocard_point(_m(t), "second"),
            "s_role": lambda t, v: s_point(_m(t), v),
            "m_role": lambda t, v: m_point(_m(t), v),
        }
        roles = [role for role, _ in NAMED_POINTS]
        assert len(set(roles)) == len(roles) == 15
        for role in roles:
            assert _locate(TSCA, role) == functions[role.role](TSCA, role.vertex)
        for role in (SpecialRole("none"), SpecialRole("q_role", "A")):
            with pytest.raises(ValueError):
                _locate(TSCA, role)
        with pytest.raises(RightAngleDegenerateError):
            _locate(T345, SpecialRole("s_role", "A"))

    def test_role_vertex_labels_checked(self):
        # per-vertex names need a vertex label, every other name takes none
        for role, vertex in (
            ("excenter", None),
            ("q_role", None),
            ("s_role", "D"),
            ("circumcenter", "A"),
            ("none", "B"),
        ):
            with pytest.raises(ValueError):
                SpecialRole(role, vertex)
        assert str(SpecialRole("m_role", "C")) == "m_role(C)"


def _median_reflection_foot(t: Triangle, vertex: str) -> Point:
    """Oracle: reflect the median over the interior bisector, hit the side."""
    apex = t.vertex(vertex)
    b, c = t.opposite(vertex)
    ub = (b - apex) / b.dist(apex)
    uc = (c - apex) / c.dist(apex)
    bisector = _line(apex, ub + uc)
    e = 0.5 * (b + c)
    mirrored = _reflect(bisector, e)
    return line_line_intersection(line_through(apex, mirrored), line_through(b, c))


class TestSymmedianFoot:
    def test_isosceles_gives_midpoint(self):
        iso = Triangle(Point(0, 2), Point(-1, 0), Point(1, 0))
        assert symmedian_foot(iso, "A").dist(Point(0, 0)) < 1e-12

    def test_equilateral_symmetry(self):
        assert symmedian_foot(EQUI, "A").dist(Point(0, -0.5)) < 1e-12

    def test_squared_ratio_and_reflection_oracle(self):
        # frozen from the reflection oracle: D = (28/13, 24/13)
        d = symmedian_foot(TSCA, "A")
        assert d.dist(Point(28 / 13, 24 / 13)) < 1e-12
        assert d.dist(_median_reflection_foot(TSCA, "A")) < 1e-12
        ab = TSCA.a.dist(TSCA.b)
        ac = TSCA.a.dist(TSCA.c)
        ratio = d.dist(TSCA.b) / d.dist(TSCA.c)
        assert abs(ratio - (ab / ac) ** 2) < 1e-12

    def test_reflection_oracle_random(self):
        rng = rng_for(0, "symfoot", 0)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            for v in "ABC":
                assert symmedian_foot(t, v).dist(_median_reflection_foot(t, v)) < 1e-9 * t.circumradius


def _brocard_grid_oracle(t: Triangle, which: str) -> Point:
    """Oracle: grid search minimizing the variance of the three angles,
    refined by pattern descent."""

    def undirected(p: Point, q: Point, r: Point) -> float:
        v1, v2 = p - q, r - q
        return abs(math.atan2(v1.x * v2.y - v1.y * v2.x, v1.dot(v2)))

    def objective(p: Point) -> float:
        if which == "first":
            angs = (undirected(t.b, t.a, p), undirected(t.c, t.b, p), undirected(t.a, t.c, p))
        else:
            angs = (undirected(p, t.a, t.c), undirected(p, t.b, t.a), undirected(p, t.c, t.b))
        m = sum(angs) / 3.0
        return sum((x - m) ** 2 for x in angs)

    best_val, best = math.inf, t.a
    n = 120
    for i in range(1, n):
        for j in range(1, n - i):
            p = t.a + (i / n) * (t.b - t.a) + (j / n) * (t.c - t.a)
            val = objective(p)
            if val < best_val:
                best_val, best = val, p
    step = t.circumradius / n
    while step > 1e-13 * t.circumradius:
        improved = False
        for dx in (-step, 0.0, step):
            for dy in (-step, 0.0, step):
                q = best + Point(dx, dy)
                val = objective(q)
                if val < best_val:
                    best_val, best, improved = val, q, True
        if not improved:
            step *= 0.5
    return best


class TestBrocardPoints:
    def test_equilateral_center(self):
        p = brocard_point(_m(EQUI), "first")
        assert p.dist(Point(0, 0)) < 1e-12
        assert abs(abs(_angle(EQUI.b, EQUI.a, p)) - math.pi / 6) < 1e-12

    def test_frozen_grid_oracle_value(self):
        # frozen from the grid-search oracle on the workhorse triangle
        p = brocard_point(_m(TSCA), "first")
        assert p.dist(Point(1.4012738853503175, 0.7643312101910834)) < 1e-12
        assert p.dist(_brocard_grid_oracle(TSCA, "first")) < 1e-10

    def test_second_against_oracle(self):
        p = brocard_point(_m(TSCA), "second")
        assert p.dist(_brocard_grid_oracle(TSCA, "second")) < 1e-10

    def test_isosceles_mirror_pair(self):
        rng = rng_for(0, "brocard", 0)
        for _ in range(20):
            t = _triangle(random_isosceles(rng, "A"))
            axis = line_through(t.a, 0.5 * (t.b + t.c))
            first = brocard_point(_m(t), "first")
            second = brocard_point(_m(t), "second")
            assert second.dist(_reflect(axis, first)) < 1e-9 * t.circumradius

    def test_angle_conditions_and_interiority(self):
        rng = rng_for(0, "brocard", 1)
        for _ in range(200):
            t = _triangle(random_triangle(rng))
            for which, legs in (
                ("first", lambda p: (_angle(t.b, t.a, p),
                                     _angle(t.c, t.b, p),
                                     _angle(t.a, t.c, p))),
                ("second", lambda p: (_angle(p, t.a, t.c),
                                      _angle(p, t.b, t.a),
                                      _angle(p, t.c, t.b))),
            ):
                p = brocard_point(_m(t), which)
                a1, a2, a3 = legs(p)
                assert angle_distance(a1, a2) < 1e-8
                assert angle_distance(a2, a3) < 1e-8
                assert contains_xy(t.xy, p.x, p.y)


def _arc_scan_oracle(t: Triangle, vertex: str, steps: int = 400000) -> Point:
    """Oracle: scan the arc of the circle through the opposite side's
    endpoints and the circumcenter for the symmedian crossing."""
    o = _locate(t, O)
    b, c = t.opposite(vertex)
    k = circumcircle(*b, *c, *o)
    sym = line_through(t.vertex(vertex), symmedian_foot(t, vertex))
    base = line_through(b, c)
    want = _side(base, o)
    best_val, best = math.inf, o
    for i in range(steps):
        q = _point_at(k, 2.0 * math.pi * i / steps)
        if _side(base, q) != want:
            continue
        val = abs(_offset(sym, q))
        if val < best_val:
            best_val, best = val, q
    return best


class TestSPoint:
    def test_equilateral_coincides_with_circumcenter(self):
        # circle through B, C, O has center (0,-1) and radius 1; the
        # symmedian x=0 meets its upper arc at the origin
        assert s_point(_m(EQUI), "A").dist(Point(0, 0)) < 1e-12

    def test_frozen_values_on_workhorse(self):
        assert s_point(_m(TSCA), "A").dist(Point(28 / 17, 24 / 17)) < 1e-12
        assert s_point(_m(TSCA), "C").dist(Point(1.3, 0.9)) < 1e-12

    def test_arc_scan_oracle(self):
        p = s_point(_m(TSCA), "A")
        assert p.dist(_arc_scan_oracle(TSCA, "A")) < 1e-4 * TSCA.circumradius

    def test_directed_angle_postconditions(self):
        rng = rng_for(0, "spoint", 0)
        for _ in range(100):
            t = _triangle(random_triangle(rng))
            for v in "ABC":
                p = s_point(_m(t), v)
                apex = t.vertex(v)
                b, c = t.opposite(v)
                ang = _angle(b, apex, c)
                assert angle_distance(_angle(b, p, c), 2 * ang) < 1e-8
                assert angle_distance(_angle(c, p, apex), -ang) < 1e-8
                assert angle_distance(_angle(apex, p, b), -ang) < 1e-8

    def test_lemma_ratio_cross_check(self):
        # BD/DC = BP/PC = (AB/AC)^2 where D is the symmedian-line crossing
        rng = rng_for(0, "spoint", 1)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            p = s_point(_m(t), "A")
            d = symmedian_foot(t, "A")
            lhs = d.dist(t.b) / d.dist(t.c)
            mid = p.dist(t.b) / p.dist(t.c)
            rhs = (t.a.dist(t.b) / t.a.dist(t.c)) ** 2
            assert abs(lhs - rhs) < 1e-9
            assert abs(mid - rhs) < 1e-9

    def test_on_arc_with_circumcenter(self):
        rng = rng_for(0, "spoint", 2)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            p = s_point(_m(t), "B")
            o = _locate(t, O)
            b, c = t.opposite("B")
            k = circumcircle(*b, *c, *o)
            assert abs(_offset_from(k, p)) < 1e-9 * t.circumradius
            assert _side(line_through(b, c), p) == _side(line_through(b, c), o)

    def test_right_angle_degenerates(self):
        with pytest.raises(RightAngleDegenerateError):
            s_point(_m(T345), "A")


class TestMPoint:
    def test_equilateral(self):
        # E=(0,-1/2), F=(0,-1), stepping the same distance back gives the origin
        assert m_point(_m(EQUI), "A").dist(Point(0, 0)) < 1e-12

    def test_acute_midpoint_relation(self):
        rng = rng_for(0, "mpoint", 0)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            for v in "ABC":
                if _m(t).angles["ABC".index(v)] >= math.pi / 2:
                    continue
                p = m_point(_m(t), v)
                b, c = t.opposite(v)
                e = 0.5 * (b + c)
                median = line_through(t.vertex(v), e)
                f = Point(*second_intersection(median, t.circumcircle, t.vertex(v)))
                assert abs(e.dist(p) - e.dist(f)) < 1e-9 * t.circumradius
                assert abs(_offset(median, p)) < 1e-9 * t.circumradius

    def test_obtuse_frozen_value_and_circle_membership(self):
        # frozen from the parallelogram construction: M = (34/97, 360/97)
        p = m_point(_m(TOBT), "C")
        assert p.dist(Point(34 / 97, 360 / 97)) < 1e-12
        f = TOBT.a + TOBT.b - TOBT.c
        k = circumcircle(*f, *TOBT.a, *TOBT.b)
        assert abs(_offset_from(k, p)) < 1e-12

    def test_obtuse_random_circle_membership(self):
        rng = rng_for(0, "mpoint", 1)
        for _ in range(50):
            t = _triangle(random_obtuse_at(rng, "A"))
            p = m_point(_m(t), "A")
            f = t.b + t.c - t.a
            k = circumcircle(*f, *t.b, *t.c)
            assert abs(_offset_from(k, p)) < 1e-8 * t.circumradius

    def test_right_angle_degenerates(self):
        with pytest.raises(RightAngleDegenerateError):
            m_point(_m(T345), "A")


def _tangent_circle(at: Point, through: Point, tangent: LineXY) -> CircleXY:
    """The circle through ``at`` and ``through`` tangent to ``tangent`` at ``at``."""
    _, _, dx, dy = tangent
    normal = _line(at, Point(-dy, dx))
    bisector = _line(Point(*midpoint(at, through)), Point(at.y - through.y, through.x - at.x))
    center = line_line_intersection(normal, bisector)
    return (center.x, center.y, center.dist(at))


def _brocard_by_tangent_circles(t: Triangle, which: str) -> Point:
    """Oracle: the non-vertex meet of two circles through B, each tangent to
    a side at a vertex."""
    a, b, c = t.vertices
    if which == "first":
        c1 = _tangent_circle(b, a, line_through(b, c))
        c2 = _tangent_circle(c, b, line_through(c, a))
    else:
        c1 = _tangent_circle(a, b, line_through(a, c))
        c2 = _tangent_circle(b, c, line_through(a, b))
    return max(circle_circle_intersections(c1, c2), key=lambda p: p.dist(b))


def _s_point_by_arc(t: Triangle, vertex: str) -> Point:
    """Oracle: the symmedian's hit on the arc through the opposite side's
    endpoints on the circumcenter's side."""
    o = _locate(t, O)
    b, c = t.opposite(vertex)
    sym = line_through(t.vertex(vertex), symmedian_foot(t, vertex))
    base = line_through(b, c)
    hits = line_circle_intersections(sym, circumcircle(*b, *c, *o))
    (hit,) = [p for p in hits if _side(base, p) == _side(base, o)]
    return hit


def _m_point_by_median(t: Triangle, vertex: str) -> Point:
    """Oracle: acute vertex, the mirror in the side midpoint E of the
    median's second circumcircle hit; obtuse vertex, the median's second hit
    on the circle through the opposite side and the parallelogram point."""
    apex = t.vertex(vertex)
    b, c = t.opposite(vertex)
    e = Point(*midpoint(b, c))
    median = line_through(apex, e)
    if _m(t).angles["ABC".index(vertex)] < math.pi / 2:
        return 2.0 * e - Point(*second_intersection(median, t.circumcircle, apex))
    f = b + c - apex
    return Point(*second_intersection(median, circumcircle(*f, *b, *c), f))


class TestClosedFormsAgainstConstructions:
    def test_acute_and_obtuse_hosts_every_vertex(self):
        rng = rng_for(0, "closed-forms", 0)
        hosts = []
        for _ in range(100):
            hosts.append(_triangle(random_acute_triangle(rng)))
            hosts.extend(_triangle(random_obtuse_at(rng, v)) for v in "ABC")
        for t in hosts:
            r = t.circumradius
            for which in ("first", "second"):
                assert brocard_point(_m(t), which).dist(_brocard_by_tangent_circles(t, which)) < 1e-12 * r
            for v in "ABC":
                assert s_point(_m(t), v).dist(_s_point_by_arc(t, v)) < 1e-12 * r
                assert m_point(_m(t), v).dist(_m_point_by_median(t, v)) < 1e-12 * r


class TestIsogonalConjugate:
    def test_incenter_fixed(self):
        l = _locate(TSCA, L)
        assert _conjugate(TSCA, l).dist(l) < 1e-12

    def test_circumcenter_maps_to_orthocenter(self):
        rng = rng_for(0, "isogonal", 0)
        for _ in range(200):
            t = _triangle(random_triangle(rng))
            assert _conjugate(t, _locate(t, O)).dist(_locate(t, H)) < 1e-8 * t.circumradius
            l = _locate(t, L)
            assert _conjugate(t, l).dist(l) < 1e-8 * t.circumradius

    def test_s_point_maps_to_m_point(self):
        rng = rng_for(0, "isogonal", 1)
        for i in range(100):
            t = _triangle(random_obtuse_at(rng, "A") if i % 2 else random_triangle(rng))
            for v in "ABC":
                assert _conjugate(t, s_point(_m(t), v)).dist(m_point(_m(t), v)) < 1e-8 * t.circumradius

    def test_involution(self):
        rng = rng_for(0, "isogonal", 2)
        from miquel.sampling import random_interior_point

        for _ in range(200):
            t = _triangle(random_triangle(rng))
            p = Point(*random_interior_point(rng, t.xy))
            q = _conjugate(t, p)
            try:
                back = _conjugate(t, q)
            except GeometryError:  # on a side line or the circumcircle
                continue
            assert back.dist(p) < 1e-8 * t.circumradius

    def test_angle_mirror_equations(self):
        rng = rng_for(0, "isogonal", 3)
        from miquel.sampling import random_interior_point

        for _ in range(100):
            t = _triangle(random_triangle(rng))
            p = Point(*random_interior_point(rng, t.xy))
            q = _conjugate(t, p)
            assert angle_distance(_angle(t.c, t.b, q), _angle(p, t.b, t.a)) < 1e-9
            assert angle_distance(_angle(t.b, t.a, p), _angle(q, t.a, t.c)) < 1e-9
            assert angle_distance(_angle(t.a, t.c, q), _angle(p, t.c, t.b)) < 1e-9

    def test_side_line_rejected(self):
        with pytest.raises(OnSideLineError):
            _conjugate(TSCA, Point(2, 0))

    def test_circumcircle_rejected(self):
        p = _point_at(TSCA.circumcircle, 0.8)
        with pytest.raises(GeometryError, match="^the point lies on the circumcircle$"):
            _conjugate(TSCA, p)


class TestInverseInCircumcircle:
    def test_equilateral_value(self):
        assert Point(*invert_xy(EQUI.circumcircle, 0, 0.5)).dist(Point(0, 2)) < 1e-12

    def test_circle_points_fixed(self):
        p = _point_at(TSCA.circumcircle, 1.1)
        assert Point(*invert_xy(TSCA.circumcircle, p.x, p.y)).dist(p) < 1e-12

    def test_center_rejected(self):
        with pytest.raises(GeometryError, match="^the center inverts to an infinite point$"):
            invert_xy(TSCA.circumcircle, *TSCA.circumcenter_xy)


class TestElevenPointCatalog:
    def test_counts_and_sides_of_circle(self):
        cat = eleven_point_catalog(TSCA.xy)
        assert len(cat) == 11
        inside = [e for e in cat if _offset_from(TSCA.circumcircle, Point(*e.location)) < 0]
        outside = [e for e in cat if _offset_from(TSCA.circumcircle, Point(*e.location)) > 0]
        assert len(inside) == 6 and len(outside) == 5
        assert sum(e.inverse for e in cat) == 5

    def test_expected_permutations_recorded(self):
        cat = eleven_point_catalog(TSCA.xy)
        byname = {(e.kind.role, e.kind.vertex, e.inverse): e.order for e in cat}
        # X, Y, Z are 0, 1, 2: Ω₁'s (2, 0, 1) matches Z to A, X to B, Y to C
        assert byname[("circumcenter", None, False)] == (0, 1, 2)
        assert byname[("first_brocard", None, False)] == (2, 0, 1)
        assert byname[("second_brocard", None, False)] == (1, 2, 0)
        assert byname[("s_role", "A", False)] == (0, 2, 1)
        assert byname[("s_role", "B", False)] == (2, 1, 0)
        assert byname[("s_role", "C", False)] == (1, 0, 2)
        assert byname[("s_role", "A", True)] == (0, 2, 1)

    def test_distinctness(self):
        rng = rng_for(0, "catalog", 0)
        from miquel.sampling import random_catalog_triangle

        for _ in range(20):
            t = _triangle(random_catalog_triangle(rng))
            cat = eleven_point_catalog(t.xy)
            pts = [Point(*e.location) for e in cat]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert pts[i].dist(pts[j]) > 1e-6 * t.circumradius

    def test_equilateral_rejected(self):
        with pytest.raises(GeometryError, match="^the catalog requires a scalene triangle$"):
            eleven_point_catalog(EQUI.xy)

    def test_right_triangle_rejected(self):
        # scalene right triangle
        with pytest.raises(GeometryError, match="^the catalog requires a non-right triangle$"):
            eleven_point_catalog(T345.xy)
