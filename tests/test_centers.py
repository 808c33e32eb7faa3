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
import sys

import pytest

from helpers import (
    EQUI,
    T345,
    TSCA,
    circumradius,
    directed_angle,
    line_along,
    locate,
    offset,
    offset_from,
    reflect,
    vertices,
)
from miquel import centers, triads
from miquel.centers import (
    NAMED_POINTS,
    SpecialRole,
    brocard_point,
    eleven_point_catalog,
    isogonal_conjugate,
    m_point,
    measures_xy,
    s_point,
    symmedian_foot,
)
from miquel.errors import GeometryError, OnSideLineError, RightAngleDegenerateError
from miquel.kernel import (
    CircleXY,
    LineXY,
    angle_distance,
    circle_circle_intersections,
    circumcircle,
    contains_xy,
    corners_xy,
    invert_xy,
    line_circle_intersections,
    line_line_intersection,
    line_through,
    midpoint,
    second_intersection,
    side_lengths_xy,
)
from miquel.sampling import (
    random_acute_triangle,
    random_isosceles,
    random_obtuse_at,
    random_triangle,
    rng_for,
)
from miquel.verify import SUITES, run_suite

O, H, G, L = (SpecialRole(r) for r in ("circumcenter", "orthocenter", "centroid", "incenter"))

TOBT = (0, 0, 4, 0, 1.6, 0.9)  # obtuse at C

# the named points' roles, by vertex or by which Brocard point
S_ROLE, M_ROLE = ({v: SpecialRole(name, v) for v in "ABC"} for name in ("s_role", "m_role"))
BROCARD = {which: SpecialRole(f"{which}_brocard") for which in ("first", "second")}


def _side(line: LineXY, p) -> int:
    off = offset(line, p)
    return (off > 0.0) - (off < 0.0)


def _point_at(circle: CircleXY, angle: float):
    cx, cy, r = circle
    return cx + r * math.cos(angle), cy + r * math.sin(angle)


def _m(xy):
    """``xy`` measured, as the location bodies read it."""
    return measures_xy(xy)


def _excenter(xy, v: str):
    return locate(xy, SpecialRole("excenter", v))


def _conjugate(xy, p):
    return isogonal_conjugate(_m(xy), *p)


def _barycentric(xy, wa: float, wb: float, wc: float):
    """(wa·A + wb·B + wc·C) / (wa + wb + wc), coordinate by coordinate."""
    ax, ay, bx, by, cx, cy = xy
    s = wa + wb + wc
    return (wa * ax + wb * bx + wc * cx) / s, (wa * ay + wb * by + wc * cy) / s


class TestClassicCenters:
    def test_345_circumcenter(self):
        assert math.dist(locate(T345, SpecialRole("circumcenter")), (2, 1.5)) < 1e-12

    def test_345_orthocenter_is_right_vertex(self):
        assert math.dist(locate(T345, SpecialRole("orthocenter")), (0, 0)) < 1e-12

    def test_345_incenter(self):
        # inradius (3+4-5)/2 = 1 with the legs on the axes
        assert math.dist(locate(T345, SpecialRole("incenter")), (1, 1)) < 1e-12

    def test_circumcenter_equidistant(self):
        rng = rng_for(0, "classic", 0)
        for _ in range(50):
            t = random_triangle(rng)
            o = locate(t, O)
            d = [math.dist(o, v) for v in vertices(t)]
            assert max(d) - min(d) < 1e-9 * circumradius(t)

    def test_orthocenter_on_altitudes(self):
        rng = rng_for(0, "classic", 1)
        for _ in range(50):
            t = random_triangle(rng)
            hx, hy = locate(t, H)
            for v in "ABC":
                (vx, vy), b, c = corners_xy(t, v)
                _, _, dx, dy = line_through(b, c)
                assert abs((hx - vx) * dx + (hy - vy) * dy) < 1e-9 * circumradius(t)

    def test_incenter_and_excenters_equidistant_from_side_lines(self):
        rng = rng_for(0, "classic", 2)
        for _ in range(50):
            t = random_triangle(rng)
            for center in [locate(t, L)] + [_excenter(t, v) for v in "ABC"]:
                offs = [abs(offset(line_through(*corners_xy(t, v)[1:]), center)) for v in "ABC"]
                assert max(offs) - min(offs) < 1e-9 * circumradius(t)

    def test_centroid(self):
        assert math.dist(locate(T345, G), (4 / 3, 1)) < 1e-12

    def test_locate_covers_table_and_rejects_roles_without_location(self):
        def excenter(t, v):
            weights = list(side_lengths_xy(*t))
            weights["ABC".index(v)] *= -1.0
            return _barycentric(t, *weights)

        def orthocenter(t, v):
            ax, ay, bx, by, cx, cy = t
            ox, oy = circumcircle(*t)[:2]
            return ax + bx + cx - 2.0 * ox, ay + by + cy - 2.0 * oy

        # the classical centers written out, the named points by the wrappers
        # brocard_point, s_point and m_point
        functions = {
            "circumcenter": lambda t, v: circumcircle(*t)[:2],
            "orthocenter": orthocenter,
            "centroid": lambda t, v: ((t[0] + t[2] + t[4]) / 3.0, (t[1] + t[3] + t[5]) / 3.0),
            "incenter": lambda t, v: _barycentric(t, *side_lengths_xy(*t)),
            "excenter": excenter,
            "first_brocard": lambda t, v: tuple(brocard_point(_m(t), "first")),
            "second_brocard": lambda t, v: tuple(brocard_point(_m(t), "second")),
            "s_role": lambda t, v: tuple(s_point(_m(t), v)),
            "m_role": lambda t, v: tuple(m_point(_m(t), v)),
        }
        roles = [role for role, _ in NAMED_POINTS]
        assert len(set(roles)) == len(roles) == 15
        for role in roles:
            assert locate(TSCA, role) == functions[role.role](TSCA, role.vertex)
        for role in (SpecialRole("none"), SpecialRole("q_role", "A")):
            with pytest.raises(ValueError):
                locate(TSCA, role)
        with pytest.raises(RightAngleDegenerateError):
            locate(T345, SpecialRole("s_role", "A"))
        with pytest.raises(ValueError, match="^which must be 'first' or 'second'$"):
            brocard_point(_m(TSCA), "third")

    def test_role_str_names_its_vertex(self):
        assert str(SpecialRole("m_role", "C")) == "m_role(C)"
        assert str(SpecialRole("incenter")) == "incenter"


# the names that come one per vertex; every other name takes no vertex label
_ROLES_WITH_VERTEX = {"excenter", "s_role", "m_role", "q_role"}


def test_every_role_the_package_builds_has_a_vertex_exactly_where_its_name_takes_one(
    monkeypatch,
):
    """``SpecialRole`` checks no label: every role of the tables, every role
    located and every role detected while all suites run is well formed."""
    roles = [role for role, _ in NAMED_POINTS] + list(centers._CATALOG_PERMS)
    locate, detect = centers.locate_xy, triads.detect_special_role

    def located(m, role):
        roles.append(role)
        return locate(m, role)

    def detected(m, px, py, tol):
        roles.append(detect(m, px, py, tol))
        return roles[-1]

    for module in [m for name, m in sys.modules.items() if name.startswith("miquel.")]:
        for attr, value in list(vars(module).items()):
            if value is locate:
                monkeypatch.setattr(module, attr, located)
            elif value is detect:
                monkeypatch.setattr(module, attr, detected)
    for name in SUITES:
        run_suite(name, 5, 3)
    assert {r.role for r in roles} >= _ROLES_WITH_VERTEX
    for r in roles:
        assert type(r) is SpecialRole and type(r.role) is str
        if r.role in _ROLES_WITH_VERTEX:
            assert r.vertex in ("A", "B", "C"), r
        else:
            assert r.vertex is None, r


def _median_reflection_foot(t, vertex: str):
    """Oracle: reflect the median over the interior bisector, hit the side."""
    apex, b, c = corners_xy(t, vertex)
    (ax, ay), (bx, by), (cx, cy) = apex, b, c
    db, dc = math.dist(b, apex), math.dist(c, apex)
    # the unit vectors from the apex to B and to C, summed
    bisector = line_along(apex, ((bx - ax) / db + (cx - ax) / dc, (by - ay) / db + (cy - ay) / dc))
    mirrored = reflect(bisector, midpoint(b, c))
    return tuple(line_line_intersection(line_through(apex, mirrored), line_through(b, c)))


class TestSymmedianFoot:
    def test_isosceles_gives_midpoint(self):
        iso = (0, 2, -1, 0, 1, 0)
        assert math.dist(symmedian_foot(_m(iso), "A"), (0, 0)) < 1e-12

    def test_equilateral_symmetry(self):
        assert math.dist(symmedian_foot(_m(EQUI), "A"), (0, -0.5)) < 1e-12

    def test_squared_ratio_and_reflection_oracle(self):
        # frozen from the reflection oracle: D = (28/13, 24/13)
        d = symmedian_foot(_m(TSCA), "A")
        a, b, c = vertices(TSCA)
        assert math.dist(d, (28 / 13, 24 / 13)) < 1e-12
        assert math.dist(d, _median_reflection_foot(TSCA, "A")) < 1e-12
        ab = math.dist(a, b)
        ac = math.dist(a, c)
        ratio = math.dist(d, b) / math.dist(d, c)
        assert abs(ratio - (ab / ac) ** 2) < 1e-12

    def test_reflection_oracle_random(self):
        rng = rng_for(0, "symfoot", 0)
        for _ in range(50):
            t = random_triangle(rng)
            for v in "ABC":
                foot = symmedian_foot(_m(t), v)
                assert math.dist(foot, _median_reflection_foot(t, v)) < 1e-9 * circumradius(t)


def _brocard_grid_oracle(t, which: str):
    """Oracle: grid search minimizing the variance of the three angles,
    refined by pattern descent."""
    a, b, c = vertices(t)

    def undirected(p, q, r) -> float:
        v1x, v1y, v2x, v2y = p[0] - q[0], p[1] - q[1], r[0] - q[0], r[1] - q[1]
        return abs(math.atan2(v1x * v2y - v1y * v2x, v1x * v2x + v1y * v2y))

    def objective(p) -> float:
        if which == "first":
            angs = (undirected(b, a, p), undirected(c, b, p), undirected(a, c, p))
        else:
            angs = (undirected(p, a, c), undirected(p, b, a), undirected(p, c, b))
        m = sum(angs) / 3.0
        return sum((x - m) ** 2 for x in angs)

    ax, ay, bx, by, cx, cy = t
    best_val, best = math.inf, a
    n = 120
    for i in range(1, n):
        for j in range(1, n - i):
            p = (ax + (i / n) * (bx - ax) + (j / n) * (cx - ax),
                 ay + (i / n) * (by - ay) + (j / n) * (cy - ay))
            val = objective(p)
            if val < best_val:
                best_val, best = val, p
    r = circumradius(t)
    step = r / n
    while step > 1e-13 * r:
        improved = False
        for dx in (-step, 0.0, step):
            for dy in (-step, 0.0, step):
                q = (best[0] + dx, best[1] + dy)
                val = objective(q)
                if val < best_val:
                    best_val, best, improved = val, q, True
        if not improved:
            step *= 0.5
    return best


class TestBrocardPoints:
    def test_equilateral_center(self):
        p = locate(EQUI, BROCARD["first"])
        a, b, _ = vertices(EQUI)
        assert math.dist(p, (0, 0)) < 1e-12
        assert abs(abs(directed_angle(b, a, p)) - math.pi / 6) < 1e-12

    def test_frozen_grid_oracle_value(self):
        # frozen from the grid-search oracle on the workhorse triangle
        p = locate(TSCA, BROCARD["first"])
        assert math.dist(p, (1.4012738853503175, 0.7643312101910834)) < 1e-12
        assert math.dist(p, _brocard_grid_oracle(TSCA, "first")) < 1e-10

    def test_second_against_oracle(self):
        p = locate(TSCA, BROCARD["second"])
        assert math.dist(p, _brocard_grid_oracle(TSCA, "second")) < 1e-10

    def test_isosceles_mirror_pair(self):
        rng = rng_for(0, "brocard", 0)
        for _ in range(20):
            t = random_isosceles(rng, "A")
            a, b, c = vertices(t)
            axis = line_through(a, midpoint(b, c))
            first = locate(t, BROCARD["first"])
            second = locate(t, BROCARD["second"])
            assert math.dist(second, reflect(axis, first)) < 1e-9 * circumradius(t)

    def test_angle_conditions_and_interiority(self):
        rng = rng_for(0, "brocard", 1)
        for _ in range(200):
            t = random_triangle(rng)
            a, b, c = vertices(t)
            for which, legs in (
                ("first", lambda p: ((b, a, p), (c, b, p), (a, c, p))),
                ("second", lambda p: ((p, a, c), (p, b, a), (p, c, b))),
            ):
                p = locate(t, BROCARD[which])
                a1, a2, a3 = (directed_angle(*leg) for leg in legs(p))
                assert angle_distance(a1, a2) < 1e-8
                assert angle_distance(a2, a3) < 1e-8
                assert contains_xy(t, *p)


def _arc_scan_oracle(t, vertex: str, steps: int = 400000):
    """Oracle: scan the arc of the circle through the opposite side's
    endpoints and the circumcenter for the symmedian crossing."""
    o = locate(t, O)
    apex, b, c = corners_xy(t, vertex)
    k = circumcircle(*b, *c, *o)
    sym = line_through(apex, symmedian_foot(_m(t), vertex))
    base = line_through(b, c)
    want = _side(base, o)
    best_val, best = math.inf, o
    for i in range(steps):
        q = _point_at(k, 2.0 * math.pi * i / steps)
        if _side(base, q) != want:
            continue
        val = abs(offset(sym, q))
        if val < best_val:
            best_val, best = val, q
    return best


class TestSPoint:
    def test_equilateral_coincides_with_circumcenter(self):
        # circle through B, C, O has center (0,-1) and radius 1; the
        # symmedian x=0 meets its upper arc at the origin
        assert math.dist(locate(EQUI, S_ROLE["A"]), (0, 0)) < 1e-12

    def test_frozen_values_on_workhorse(self):
        assert math.dist(locate(TSCA, S_ROLE["A"]), (28 / 17, 24 / 17)) < 1e-12
        assert math.dist(locate(TSCA, S_ROLE["C"]), (1.3, 0.9)) < 1e-12

    def test_arc_scan_oracle(self):
        p = locate(TSCA, S_ROLE["A"])
        assert math.dist(p, _arc_scan_oracle(TSCA, "A")) < 1e-4 * circumradius(TSCA)

    def test_directed_angle_postconditions(self):
        rng = rng_for(0, "spoint", 0)
        for _ in range(100):
            t = random_triangle(rng)
            for v in "ABC":
                p = locate(t, S_ROLE[v])
                apex, b, c = corners_xy(t, v)
                ang = directed_angle(b, apex, c)
                assert angle_distance(directed_angle(b, p, c), 2 * ang) < 1e-8
                assert angle_distance(directed_angle(c, p, apex), -ang) < 1e-8
                assert angle_distance(directed_angle(apex, p, b), -ang) < 1e-8

    def test_lemma_ratio_cross_check(self):
        # BD/DC = BP/PC = (AB/AC)^2 where D is the symmedian-line crossing
        rng = rng_for(0, "spoint", 1)
        for _ in range(50):
            t = random_triangle(rng)
            a, b, c = vertices(t)
            p = locate(t, S_ROLE["A"])
            d = symmedian_foot(_m(t), "A")
            lhs = math.dist(d, b) / math.dist(d, c)
            mid = math.dist(p, b) / math.dist(p, c)
            rhs = (math.dist(a, b) / math.dist(a, c)) ** 2
            assert abs(lhs - rhs) < 1e-9
            assert abs(mid - rhs) < 1e-9

    def test_on_arc_with_circumcenter(self):
        rng = rng_for(0, "spoint", 2)
        for _ in range(50):
            t = random_triangle(rng)
            p = locate(t, S_ROLE["B"])
            o = locate(t, O)
            _, b, c = corners_xy(t, "B")
            k = circumcircle(*b, *c, *o)
            assert abs(offset_from(k, p)) < 1e-9 * circumradius(t)
            assert _side(line_through(b, c), p) == _side(line_through(b, c), o)

    def test_right_angle_degenerates(self):
        with pytest.raises(RightAngleDegenerateError):
            locate(T345, S_ROLE["A"])


class TestMPoint:
    def test_equilateral(self):
        # E=(0,-1/2), F=(0,-1), stepping the same distance back gives the origin
        assert math.dist(locate(EQUI, M_ROLE["A"]), (0, 0)) < 1e-12

    def test_acute_midpoint_relation(self):
        rng = rng_for(0, "mpoint", 0)
        for _ in range(50):
            t = random_triangle(rng)
            r = circumradius(t)
            for v in "ABC":
                if _m(t).angles["ABC".index(v)] >= math.pi / 2:
                    continue
                p = locate(t, M_ROLE[v])
                apex, b, c = corners_xy(t, v)
                e = midpoint(b, c)
                median = line_through(apex, e)
                f = second_intersection(median, circumcircle(*t), apex)
                assert abs(math.dist(e, p) - math.dist(e, f)) < 1e-9 * r
                assert abs(offset(median, p)) < 1e-9 * r

    def test_obtuse_frozen_value_and_circle_membership(self):
        # frozen from the parallelogram construction: M = (34/97, 360/97)
        p = locate(TOBT, M_ROLE["C"])
        assert math.dist(p, (34 / 97, 360 / 97)) < 1e-12
        ax, ay, bx, by, cx, cy = TOBT
        k = circumcircle(ax + bx - cx, ay + by - cy, ax, ay, bx, by)
        assert abs(offset_from(k, p)) < 1e-12

    def test_obtuse_random_circle_membership(self):
        rng = rng_for(0, "mpoint", 1)
        for _ in range(50):
            t = random_obtuse_at(rng, "A")
            p = locate(t, M_ROLE["A"])
            ax, ay, bx, by, cx, cy = t
            k = circumcircle(bx + cx - ax, by + cy - ay, bx, by, cx, cy)
            assert abs(offset_from(k, p)) < 1e-8 * circumradius(t)

    def test_right_angle_degenerates(self):
        with pytest.raises(RightAngleDegenerateError):
            locate(T345, M_ROLE["A"])


def _tangent_circle(at, through, tangent: LineXY) -> CircleXY:
    """The circle through ``at`` and ``through`` tangent to ``tangent`` at ``at``."""
    _, _, dx, dy = tangent
    (ax, ay), (tx, ty) = at, through
    normal = line_along(at, (-dy, dx))
    bisector = line_along(midpoint(at, through), (ay - ty, tx - ax))
    center = line_line_intersection(normal, bisector)
    return (*center, math.dist(center, at))


def _brocard_by_tangent_circles(t, which: str):
    """Oracle: the non-vertex meet of two circles through B, each tangent to
    a side at a vertex."""
    a, b, c = vertices(t)
    if which == "first":
        c1 = _tangent_circle(b, a, line_through(b, c))
        c2 = _tangent_circle(c, b, line_through(c, a))
    else:
        c1 = _tangent_circle(a, b, line_through(a, c))
        c2 = _tangent_circle(b, c, line_through(a, b))
    return max(circle_circle_intersections(c1, c2), key=lambda p: math.dist(p, b))


def _s_point_by_arc(t, vertex: str):
    """Oracle: the symmedian's hit on the arc through the opposite side's
    endpoints on the circumcenter's side."""
    o = locate(t, O)
    apex, b, c = corners_xy(t, vertex)
    sym = line_through(apex, symmedian_foot(_m(t), vertex))
    base = line_through(b, c)
    hits = line_circle_intersections(sym, circumcircle(*b, *c, *o))
    (hit,) = [p for p in hits if _side(base, p) == _side(base, o)]
    return hit


def _m_point_by_median(t, vertex: str):
    """Oracle: acute vertex, the mirror in the side midpoint E of the
    median's second circumcircle hit; obtuse vertex, the median's second hit
    on the circle through the opposite side and the parallelogram point."""
    apex, b, c = corners_xy(t, vertex)
    ex, ey = e = midpoint(b, c)
    median = line_through(apex, e)
    if _m(t).angles["ABC".index(vertex)] < math.pi / 2:
        fx, fy = second_intersection(median, circumcircle(*t), apex)
        return 2.0 * ex - fx, 2.0 * ey - fy
    f = (b[0] + c[0] - apex[0], b[1] + c[1] - apex[1])
    return second_intersection(median, circumcircle(*f, *b, *c), f)


class TestClosedFormsAgainstConstructions:
    def test_acute_and_obtuse_hosts_every_vertex(self):
        rng = rng_for(0, "closed-forms", 0)
        hosts = []
        for _ in range(100):
            hosts.append(random_acute_triangle(rng))
            hosts.extend(random_obtuse_at(rng, v) for v in "ABC")
        for t in hosts:
            r = circumradius(t)
            for which in ("first", "second"):
                oracle = _brocard_by_tangent_circles(t, which)
                assert math.dist(locate(t, BROCARD[which]), oracle) < 1e-12 * r
            for v in "ABC":
                assert math.dist(locate(t, S_ROLE[v]), _s_point_by_arc(t, v)) < 1e-12 * r
                assert math.dist(locate(t, M_ROLE[v]), _m_point_by_median(t, v)) < 1e-12 * r


class TestIsogonalConjugate:
    def test_incenter_fixed(self):
        l = locate(TSCA, L)
        assert math.dist(_conjugate(TSCA, l), l) < 1e-12

    def test_circumcenter_maps_to_orthocenter(self):
        rng = rng_for(0, "isogonal", 0)
        for _ in range(200):
            t = random_triangle(rng)
            r = circumradius(t)
            assert math.dist(_conjugate(t, locate(t, O)), locate(t, H)) < 1e-8 * r
            l = locate(t, L)
            assert math.dist(_conjugate(t, l), l) < 1e-8 * r

    def test_s_point_maps_to_m_point(self):
        rng = rng_for(0, "isogonal", 1)
        for i in range(100):
            t = random_obtuse_at(rng, "A") if i % 2 else random_triangle(rng)
            for v in "ABC":
                s, m = locate(t, S_ROLE[v]), locate(t, M_ROLE[v])
                assert math.dist(_conjugate(t, s), m) < 1e-8 * circumradius(t)

    def test_involution(self):
        rng = rng_for(0, "isogonal", 2)
        from miquel.sampling import random_interior_point

        for _ in range(200):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            q = _conjugate(t, p)
            try:
                back = _conjugate(t, q)
            except GeometryError:  # on a side line or the circumcircle
                continue
            assert math.dist(back, p) < 1e-8 * circumradius(t)

    def test_angle_mirror_equations(self):
        rng = rng_for(0, "isogonal", 3)
        from miquel.sampling import random_interior_point

        for _ in range(100):
            t = random_triangle(rng)
            a, b, c = vertices(t)
            p = random_interior_point(rng, t)
            q = _conjugate(t, p)
            assert angle_distance(directed_angle(c, b, q), directed_angle(p, b, a)) < 1e-9
            assert angle_distance(directed_angle(b, a, p), directed_angle(q, a, c)) < 1e-9
            assert angle_distance(directed_angle(a, c, q), directed_angle(p, c, b)) < 1e-9

    def test_side_line_rejected(self):
        with pytest.raises(OnSideLineError):
            _conjugate(TSCA, (2, 0))

    def test_circumcircle_rejected(self):
        p = _point_at(circumcircle(*TSCA), 0.8)
        with pytest.raises(GeometryError, match="^the point lies on the circumcircle$"):
            _conjugate(TSCA, p)


class TestInverseInCircumcircle:
    def test_equilateral_value(self):
        assert math.dist(invert_xy(circumcircle(*EQUI), 0, 0.5), (0, 2)) < 1e-12

    def test_circle_points_fixed(self):
        circle = circumcircle(*TSCA)
        p = _point_at(circle, 1.1)
        assert math.dist(invert_xy(circle, *p), p) < 1e-12

    def test_center_rejected(self):
        circle = circumcircle(*TSCA)
        with pytest.raises(GeometryError, match="^the center inverts to an infinite point$"):
            invert_xy(circle, *circle[:2])


class TestElevenPointCatalog:
    def test_counts_and_sides_of_circle(self):
        cat = eleven_point_catalog(_m(TSCA))
        circle = circumcircle(*TSCA)
        assert len(cat) == 11
        inside = [e for e in cat if offset_from(circle, e.location) < 0]
        outside = [e for e in cat if offset_from(circle, e.location) > 0]
        assert len(inside) == 6 and len(outside) == 5
        assert sum(e.inverse for e in cat) == 5

    def test_expected_permutations_recorded(self):
        cat = eleven_point_catalog(_m(TSCA))
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
            t = random_catalog_triangle(rng)
            cat = eleven_point_catalog(_m(t))
            pts = [e.location for e in cat]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert math.dist(pts[i], pts[j]) > 1e-6 * circumradius(t)

    def test_equilateral_rejected(self):
        with pytest.raises(GeometryError, match="^the catalog requires a scalene triangle$"):
            eleven_point_catalog(_m(EQUI))

    def test_right_triangle_rejected(self):
        # scalene right triangle
        with pytest.raises(GeometryError, match="^the catalog requires a non-right triangle$"):
            eleven_point_catalog(_m(T345))
