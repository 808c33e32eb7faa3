"""Triad constructions: concurrency, families, angle bookkeeping, similarity
classification, role detection and containment parity."""

import math

import pytest

from miquel import sampling, triads
from miquel.centers import (
    brocard_point,
    eleven_point_catalog,
    locate_xy,
    m_point,
    measures_xy,
    s_point,
)
from miquel.chains import CHAIN_DETECT_TOL
from miquel.errors import CollinearError, GeometryError, OnSideLineError
from miquel.kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    Point,
    Triangle,
    angle_distance,
    circle_circle_intersections,
    circle_xy,
    circumcircle,
    corners_xy,
    directed_angle_at_xy,
    directed_angle_xy,
    half_turn,
    invert_xy,
    line_line_intersection,
    line_through,
    midpoint,
    offset_xy,
    project_xy,
    reject_side_lines,
    shape_gap,
    shape_ratio,
    unit_direction,
)
from miquel.sampling import (
    random_acute_triangle,
    random_catalog_triangle,
    random_circumcircle_point,
    random_exterior_point,
    random_interior_point,
    random_isosceles,
    random_obtuse_at,
    random_point_in_circumdisk,
    random_triangle,
    rng_for,
)
from miquel.triads import (
    CONCURRENCY_BAND,
    ParityReport,
    SpecialRole,
    cevian_angles_xy,
    checked_triad,
    classify_similarity,
    containment_parity,
    detect_special_role,
    family_member,
    miquel_angles_xy,
    miquel_point,
    on_circle_xy,
    pedal_triad,
    simson_line,
    triad_params,
    triad_xy,
    verify_miquel_equations,
)

SQ3 = math.sqrt(3.0)
T345 = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
TSCA = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))
EQUI = Triangle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))

# family_member's message for a rotation outside (-pi/2, pi/2)
THETA_OUT_OF_RANGE = r"^rotation \S+ not inside \(-pi/2, pi/2\)$"

O, H, L = (SpecialRole(r) for r in ("circumcenter", "orthocenter", "incenter"))


def _offset(line, p):
    return offset_xy(*line, *p)


def _angle(p, q, r):
    return directed_angle_xy(*p, *q, *r)


def _triangle(xy) -> Triangle:
    """The ``Triangle`` on the six coordinates ``xy``, for the oracles' Point
    operators."""
    ax, ay, bx, by, cx, cy = xy
    return Triangle(Point(ax, ay), Point(bx, by), Point(cx, cy))


def _points(triad) -> tuple[Point, Point, Point]:
    """The points X, Y, Z of ``triad``, a TriangleXY."""
    return Point(*triad[0:2]), Point(*triad[2:4]), Point(*triad[4:6])


def _locate(t, role) -> Point:
    """Where ``role`` sits in ``t`` (``locate_xy`` of ``t`` measured), as a
    Point."""
    return Point(*locate_xy(measures_xy(t.xy), role))


def _triad_at(t, u, v, w):
    """The triad at affine parameters u, v, w, checked."""
    return checked_triad(triad_xy(t.xy, u, v, w))


def _pedal(t, p):
    return pedal_triad(t.xy, p.x, p.y)


def _family(t, p, theta):
    return family_member(t.xy, p.x, p.y, theta)


def _miquel(t, triad):
    return miquel_point(t.xy, triad)


def _simson(t, p):
    return simson_line(t.xy, p.x, p.y)


def _parity(t, p):
    return containment_parity(t.xy, _circle(t), p.x, p.y)


def _equations(t, p, triad):
    return verify_miquel_equations(t.xy, p.x, p.y, triad)


def _circle(t):
    return circumcircle(*t.xy)


def _radius(t) -> float:
    return _circle(t)[2]


def _opposite(t, label):
    """The endpoints of the side of ``t`` opposite ``label``, in cyclic order."""
    return corners_xy(t.xy, label)[1:]


def _along(line, p, q) -> float:
    """The component of p − q along the direction of ``line``."""
    _, _, dx, dy = line
    (px, py), (qx, qy) = p, q
    return (px - qx) * dx + (py - qy) * dy


def _offset_from(circle, p):
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    px, py = p
    return math.hypot(cx - px, cy - py) - r


class TestPedalTriad:
    def test_circumcenter_gives_midpoints(self):
        ped = _pedal(TSCA, _locate(TSCA, O))
        assert all(abs(s - 0.5) < 1e-12 for s in triad_params(TSCA.xy, ped))

    def test_orthocenter_gives_altitude_feet(self):
        h = _locate(TSCA, H)
        ped = _pedal(TSCA, h)
        for foot, v in zip(_points(ped), "ABC"):
            side = line_through(*_opposite(TSCA, v))
            assert abs(_offset(side, foot)) < 1e-12
            assert abs(_along(side, foot, h)) < 1e-12

    def test_antipode_simson_on_hypotenuse_line(self):
        # antipode of the right-angle vertex: the feet collapse onto line BC
        sim = _simson(T345, Point(4, 3))
        feet = sorted(sim.feet, key=lambda f: f[0])
        assert math.dist(feet[0], (0, 3)) < 1e-12
        assert math.dist(feet[1], (64 / 25, 27 / 25)) < 1e-12
        assert math.dist(feet[2], (4, 0)) < 1e-12
        hypotenuse = line_through(*_opposite(T345, "A"))
        for f in sim.feet:
            assert abs(_offset(hypotenuse, f)) < 1e-12
        assert sim.max_deviation() < 1e-12

    def test_foot_on_the_side_line_is_the_point(self):
        # (2, 0) is on line AB, so Z is the point at every rotation
        p = Point(2, 0)
        assert _points(_pedal(TSCA, p))[2] == p
        for theta in (-1.0, 0.3):
            assert _points(_family(TSCA, p, theta))[2] == p

    def test_vertex_simson_line_is_the_altitude(self):
        # A is on lines CA and AB, so two feet are A; the third is the foot of
        # the altitude from A
        sim = _simson(TSCA, TSCA.a)
        foot = Point(*project_xy(*line_through(*_opposite(TSCA, "A")), *TSCA.a))
        altitude = line_through(TSCA.a, foot)
        for f in sim.feet:
            assert abs(_offset(altitude, f)) < 1e-12
        assert sim.max_deviation() < 1e-12

    def test_feet_are_perpendicular_projections(self):
        rng = rng_for(0, "pedal", 0)
        for _ in range(100):
            t = _triangle(random_triangle(rng))
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            triad = _pedal(t, p)
            for foot, v in zip(_points(triad), "ABC"):
                side = line_through(*_opposite(t, v))
                assert abs(_offset(side, foot)) < 1e-12 * _radius(t)
                assert abs(_along(side, foot, p)) < 1e-12 * _radius(t)


class TestTriadAt:
    def test_points_at_the_parameters(self):
        triad = _triad_at(TSCA, 0.5, -1.0, 2.0)
        assert _points(triad) == (Point(2.5, 1.5), Point(2.0, 6.0), Point(8.0, 0.0))
        assert triad_params(TSCA.xy, triad) == (0.5, -1.0, 2.0)

    @pytest.mark.parametrize("slot", range(3))
    def test_points_are_checked_in_turn(self, slot):
        # the first point that is not finite, in X, Y, Z order, gives
        # Point's message for it, though a later one is not finite either
        xy = [2.5, 1.5, 2.0, 6.0, 8.0, 0.0]
        xy[2 * slot + 1] = -math.inf
        xy[5] = math.nan
        with pytest.raises(ValueError) as point:
            Point(*xy[2 * slot:2 * slot + 2])
        with pytest.raises(ValueError, match="^non-finite coordinates") as triad:
            checked_triad(tuple(xy))
        assert str(triad.value) == str(point.value)
        assert checked_triad(_triad_at(TSCA, 0.5, -1.0, 2.0)) == (2.5, 1.5, 2.0, 6.0, 8.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_parameters_rejected(self, bad, slot):
        params = [0.3, 0.3, 0.3]
        params[slot] = bad
        with pytest.raises(ValueError, match="^triad parameters must be finite$"):
            _triad_at(TSCA, *params)


class TestMiquelPoint:
    def test_midpoints_give_circumcenter(self):
        res = _miquel(TSCA, _triad_at(TSCA, 0.5, 0.5, 0.5))
        assert math.dist(res.point, _locate(TSCA, O)) < 1e-12
        assert res.residual < 1e-12

    def test_altitude_feet_give_orthocenter(self):
        ped = _pedal(TSCA, _locate(TSCA, H))
        res = _miquel(TSCA, ped)
        assert math.dist(res.point, _locate(TSCA, H)) < 1e-12

    def test_uniform_params_concurrency(self):
        res = _miquel(TSCA, _triad_at(TSCA, 0.3, 0.3, 0.3))
        assert res.residual < 1e-9 * _radius(TSCA)
        # frozen regression value for the workhorse triangle
        assert math.dist(res.point, Point(1.7023121387283235, 0.6849710982658955)) < 1e-10

    def test_concurrency_on_extensions(self):
        rng = rng_for(0, "miquel", 0)
        for _ in range(300):
            t = _triangle(random_triangle(rng))
            params = []
            while len(params) < 3:
                s = rng.uniform(-1.0, 2.0)
                if abs(s) > 0.05 and abs(s - 1.0) > 0.05:
                    params.append(s)
            res = _miquel(t, _triad_at(t, *params))
            assert res.residual < 1e-8 * _radius(t)

    def test_circles_pass_through_expected_points(self):
        triad = _triad_at(TSCA, 0.4, 0.7, 0.2)
        res = _miquel(TSCA, triad)
        ca, cb, cc = res.circles
        x, y, z = _points(triad)
        for circ, pts in ((ca, (TSCA.a, y, z)), (cb, (TSCA.b, z, x)), (cc, (TSCA.c, x, y))):
            # the circle through the vertex and its triad points, float for float
            assert circ == circle_xy(*pts[0], *pts[1], *pts[2])
            for q in pts:
                assert abs(_offset_from(circ, q)) < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_circle_is_checked(self, k, monkeypatch):
        # a circle AYZ, BZX or CXY whose center or radius is not finite
        real = triads.miquel_xy
        triad = _triad_at(TSCA, 0.4, 0.7, 0.2)
        for bad, message in (
            ((math.nan, 0.0, 1.0), "non-finite coordinates (nan, 0.0)"),
            ((1.0, 2.0, math.inf), "radius must be strictly positive, got inf"),
        ):
            def broken(host, points):
                rows = list(real(host, points))
                rows[k] = bad
                return tuple(rows)

            monkeypatch.setattr(triads, "miquel_xy", broken)
            with pytest.raises(ValueError) as info:
                _miquel(TSCA, triad)
            assert str(info.value) == message

    def test_tangent_when_the_point_is_z(self):
        # README's triangle: circles AYZ and BZX touch at Z
        triad = _triad_at(TSCA, 0.2, 0.8, 0.1716117818584988)
        res = _miquel(TSCA, triad)
        assert res.tangent
        assert math.dist(res.point, _points(triad)[2]) < 1e-12 * _radius(TSCA)
        assert not _miquel(TSCA, _triad_at(TSCA, 0.2, 0.8, 0.3)).tangent


class TestFamilyMember:
    def test_zero_theta_reproduces_pedal(self):
        p = Point(1.2, 0.8)
        ped = _pedal(TSCA, p)
        fam = _family(TSCA, p, 0.0)
        assert fam == ped

    def test_equilateral_ratio_at_pi_over_six(self):
        o = _locate(EQUI, O)
        fam = _family(EQUI, o, math.pi / 6)
        ped = _pedal(EQUI, o)
        ratio = _triangle(fam).side_lengths[0] / _triangle(ped).side_lengths[0]
        assert abs(ratio - 2.0 / SQ3) < 1e-12

    def test_roundtrip_and_similarity_ratio(self):
        rng = rng_for(0, "family", 0)
        for _ in range(500):
            t = _triangle(random_triangle(rng))
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            theta = rng.uniform(-1.2, 1.2)
            fam = _family(t, p, theta)
            res = _miquel(t, fam)
            assert math.dist(res.point, p) < 1e-8 * _radius(t)
            ped = _pedal(t, p)
            ratio = _triangle(fam).side_lengths[0] / _triangle(ped).side_lengths[0]
            assert abs(ratio - 1.0 / math.cos(theta)) < 1e-8 * (1.0 / math.cos(theta))

    def test_theta_range_enforced(self):
        with pytest.raises(GeometryError, match=THETA_OUT_OF_RANGE):
            _family(TSCA, Point(1.2, 0.8), math.pi / 2)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_out_of_range(self, theta):
        with pytest.raises(GeometryError, match=THETA_OUT_OF_RANGE):
            _family(TSCA, Point(1.2, 0.8), theta)

    def test_family_members_mutually_similar(self):
        p = Point(1.2, 0.8)
        tol = 1e-8
        thetas = [-1.4 + 2.8 * k / 19 for k in range(20)]
        tris = [_triangle(_family(TSCA, p, th)) for th in thetas]
        ped = _triangle(_pedal(TSCA, p))
        for th, tri in zip(thetas, tris):
            match = classify_similarity(ped.xy, tri.xy, tol)
            assert match is not None and match.order == (0, 1, 2)
            scale = _radius(tri) / _radius(ped)
            assert abs(scale - 1.0 / math.cos(th)) < 1e-8 / math.cos(th)
        for i in range(len(tris) - 1):
            match = classify_similarity(tris[i].xy, tris[i + 1].xy, tol)
            assert match is not None and match.order == (0, 1, 2)

    def test_every_catalog_family_holds_the_host_shape(self):
        # a family member is the pedal triangle under a spiral similarity
        # about p, so each of the eleven families, the three on a side line
        # included, keeps the host's shape under the recorded correspondence
        rng = rng_for(0, "family", 1)
        for _ in range(20):
            t = _triangle(random_catalog_triangle(rng))
            host = shape_ratio(t.xy, (0, 1, 2))
            for e in eleven_point_catalog(measures_xy(t.xy)):
                for theta in (-1.0, -0.4, 0.0, 0.3, 1.2):
                    member = _triangle(_family(t, Point(*e.location), theta))
                    gap = shape_gap(host, shape_ratio(member.xy, e.order), e.mirrored)
                    assert gap < 1e-12, (str(e.kind), e.inverse, theta)


def _family_member_by_spoke_lines(t, p, theta):
    """Each spoke from p to its pedal foot, rotated and cut with its side line."""
    feet = []
    for v in "ABC":
        side = line_through(*_opposite(t, v))
        fx, fy = project_xy(*side, p.x, p.y)
        sx, sy = fx - p.x, fy - p.y
        c, s = math.cos(theta), math.sin(theta)
        spoke = unit_direction(c * sx - s * sy, s * sx + c * sy)
        feet.append(line_line_intersection((p.x, p.y, *spoke), side))
    return feet


def _miquel_point_by_radical_line(t, triad):
    """The hit of circles AYZ and BZX farther from Z, where both meet."""
    x, y, z = _points(triad)
    hits = circle_circle_intersections(circumcircle(*t.a, *y, *z), circumcircle(*t.b, *z, *x))
    return max(hits, key=lambda q: math.dist(q, z))


class TestClosedFormsAgainstConstructions:
    def test_acute_and_obtuse_hosts(self):
        rng = rng_for(0, "chain-step-oracles", 0)
        hosts = []
        for _ in range(100):
            hosts.append(_triangle(random_acute_triangle(rng)))
            hosts.extend(_triangle(random_obtuse_at(rng, v)) for v in "ABC")
        for t in hosts:
            r = _radius(t)
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            theta = rng.uniform(-1.2, 1.2)
            fam = _family(t, p, theta)
            for foot, oracle in zip(_points(fam), _family_member_by_spoke_lines(t, p, theta)):
                assert math.dist(foot, oracle) < 1e-12 * r
            params = [rng.uniform(-1.0, 2.0) for _ in range(3)]
            for triad in (fam, _triad_at(t, *params)):
                point = _miquel(t, triad).point
                assert math.dist(point, _miquel_point_by_radical_line(t, triad)) < 1e-12 * r


def _cevian_angles(t, p):
    """alpha1, beta1, gamma1 and alpha2, beta2, gamma2 of the point p."""
    xy, r = t.xy, _radius(t)
    return (cevian_angles_xy(xy, p.x, p.y, r, False),
            cevian_angles_xy(xy, p.x, p.y, r, True))


class TestAngleSextet:
    """The six cevian angles of cevian_angles_xy."""

    def test_equilateral_circumcenter_all_pi_six(self):
        for trio in _cevian_angles(EQUI, Point(0, 0)):
            for ang in trio:
                assert abs(abs(ang) - math.pi / 6) < 1e-12

    def test_incenter_halves_the_angles(self):
        firsts, seconds = _cevian_angles(TSCA, _locate(TSCA, L))
        for first, second in zip(firsts, seconds):
            assert angle_distance(first, second) < 1e-12

    def test_first_brocard_equalizes_tail_angles(self):
        _, (a2, b2, g2) = _cevian_angles(TSCA, brocard_point(measures_xy(TSCA.xy), "first"))
        assert angle_distance(a2, b2) < 1e-10
        assert angle_distance(b2, g2) < 1e-10

    def test_pairs_sum_to_vertex_angles(self):
        rng = rng_for(0, "sextet", 0)
        for _ in range(100):
            t = _triangle(random_triangle(rng))
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            firsts, seconds = _cevian_angles(t, p)
            for first, second, v in zip(firsts, seconds, "ABC"):
                assert angle_distance(first + second, directed_angle_at_xy(t.xy, v)) < 1e-12

    def test_vertex_rejected(self):
        for second in (False, True):
            with pytest.raises(GeometryError, match="^the point coincides with a vertex$"):
                cevian_angles_xy(TSCA.xy, 0.0, 0.0, _radius(TSCA), second)


def _miquel_angles(t, p):
    return miquel_angles_xy(t.xy, p.x, p.y, _radius(t))


class TestMiquelTriangleAngles:
    """The triad-triangle angles of miquel_angles_xy."""

    def test_circumcenter_reproduces_host_angles(self):
        angs = _miquel_angles(TSCA, _locate(TSCA, O))
        for ang, v in zip(angs, "ABC"):
            assert angle_distance(ang, directed_angle_at_xy(TSCA.xy, v)) < 1e-12

    def test_equilateral_circumcenter(self):
        for ang in _miquel_angles(EQUI, Point(0, 0)):
            assert angle_distance(ang, math.pi / 3) < 1e-12

    def test_incenter_half_angle_formula(self):
        # at the incenter the formulas reduce to pi/2 - half the host angle
        angs = _miquel_angles(TSCA, _locate(TSCA, L))
        for got, angle in zip(angs, measures_xy(TSCA.xy).angles):
            expected = math.pi / 2 - 0.5 * _orientation(TSCA) * angle
            assert angle_distance(got, expected) < 1e-12

    def test_matches_measured_pedal_angles(self):
        rng = rng_for(0, "lemma-angles", 0)
        for _ in range(200):
            t = _triangle(random_triangle(rng))
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            ang_x, ang_y, ang_z = _miquel_angles(t, p)
            x, y, z = _points(_pedal(t, p))
            assert angle_distance(ang_x, _angle(y, x, z)) < 1e-8
            assert angle_distance(ang_y, _angle(z, y, x)) < 1e-8
            assert angle_distance(ang_z, _angle(x, z, y)) < 1e-8
            # the three formulas sum to the host angle sum: zero mod half turn
            assert angle_distance(ang_x + ang_y + ang_z, 0.0) < 1e-12


class TestMiquelEquations:
    def test_circumcenter_doubles_vertex_angles(self):
        o = _locate(TSCA, O)
        assert _equations(TSCA, o, _triad_at(TSCA, 0.5, 0.5, 0.5)) < 1e-12
        double_a = 2 * directed_angle_at_xy(TSCA.xy, "A")
        assert angle_distance(_angle(TSCA.b, o, TSCA.c), double_a) < 1e-12

    def test_equilateral_center(self):
        o = Point(0, 0)
        assert _equations(EQUI, o, _pedal(EQUI, o)) < 1e-12

    def test_random_family_members(self):
        rng = rng_for(0, "equations", 0)
        for _ in range(500):
            t = _triangle(random_triangle(rng))
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t)))
            theta = rng.uniform(-1.2, 1.2)
            assert _equations(t, p, _family(t, p, theta)) < 1e-9

    def test_foreign_triad_rejected(self):
        with pytest.raises(
            GeometryError, match="^the triad's concurrency point is not the given point$"
        ):
            _equations(TSCA, Point(1.0, 1.0), _triad_at(TSCA, 0.5, 0.5, 0.5))


class TestClassifySimilarity:
    def test_identity(self):
        match = classify_similarity(TSCA.xy, TSCA.xy, ANGLE_EPS)
        assert match.order == (0, 1, 2)
        assert match.mirrored is False
        assert match.residual == 0.0

    def test_mirror_is_inverse_orientation(self):
        mirrored = Triangle(
            Point(-TSCA.a.x, TSCA.a.y), Point(-TSCA.b.x, TSCA.b.y), Point(-TSCA.c.x, TSCA.c.y)
        )
        match = classify_similarity(TSCA.xy, mirrored.xy, ANGLE_EPS)
        assert match.order == (0, 1, 2)
        assert match.mirrored is True

    def test_dissimilar_returns_none(self):
        assert classify_similarity(T345.xy, EQUI.xy, ANGLE_EPS) is None

    def test_scaled_rotated_copy(self):
        rng = rng_for(0, "classify", 0)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            s = rng.uniform(0.3, 3.0)
            phi = rng.uniform(0, 2 * math.pi)
            shift_x, shift_y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            c, sn = math.cos(phi), math.sin(phi)
            moved = Triangle(*(
                Point((c * dx - sn * dy) * s + shift_x, (sn * dx + c * dy) * s + shift_y)
                for dx, dy in ((v.x - t.a.x, v.y - t.a.y) for v in (t.a, t.b, t.c))
            ))
            match = classify_similarity(t.xy, moved.xy, ANGLE_EPS)
            assert match is not None
            assert match.order == (0, 1, 2)
            assert abs(_radius(moved) / _radius(t) - s) < 1e-9 * s

    def test_equilateral_tie_goes_to_abc(self):
        # all six correspondences fit EQUI, even against a relabeled copy;
        # the first in order wins, not the best fit
        relabeled = Triangle(EQUI.b, EQUI.c, EQUI.a)
        for other in (EQUI, relabeled):
            match = classify_similarity(EQUI.xy, other.xy, 1e-6)
            assert match.order == (0, 1, 2)
            assert match.mirrored is False
        assert classify_similarity(EQUI.xy, EQUI.xy, 1e-6).residual == 0.0
        # against the copy (2, 0, 1) maps vertex for vertex and fits exactly,
        # while the identity's gap is float noise: the ratio of a relabeled copy is not
        # bit-identical
        seed = shape_ratio(EQUI.xy, (0, 1, 2))
        assert shape_gap(seed, shape_ratio(relabeled.xy, (2, 0, 1)), False) == 0.0
        assert 0.0 < classify_similarity(EQUI.xy, relabeled.xy, 1e-6).residual < 1e-15

    def test_isosceles_tie_goes_to_the_first_map(self):
        # against its mirror image in the axis, an isosceles triangle fits the
        # identity mirrored and (0, 2, 1) direct; the orders are tried in turn,
        # each direct before mirrored, so the identity wins
        iso = Triangle(Point(0, 2), Point(-1, 0), Point(1, 0))
        mirrored = Triangle(Point(0, 2), Point(1, 0), Point(-1, 0))
        match = classify_similarity(iso.xy, mirrored.xy, 1e-9)
        assert (match.order, match.mirrored) == ((0, 1, 2), True)


class TestDetectSpecialRole:
    def test_named_centers(self):
        def detect(p):
            return detect_special_role(measures_xy(TSCA.xy), p.x, p.y, LENGTH_EPS)

        assert detect(_locate(TSCA, O)) == SpecialRole("circumcenter")
        assert detect(brocard_point(measures_xy(TSCA.xy), "first")) == SpecialRole("first_brocard")
        assert detect(s_point(measures_xy(TSCA.xy), "B")) == SpecialRole("s_role", "B")
        assert detect(m_point(measures_xy(TSCA.xy), "C")) == SpecialRole("m_role", "C")
        assert detect(_locate(TSCA, SpecialRole("excenter", "A"))) == SpecialRole("excenter", "A")

    def test_automedian_centroid_is_median_role(self):
        # b² + c² = 2a² puts M_A on the centroid; the centroid is no candidate
        t = Triangle(Point(0, 0), Point(4, 0), Point(3, math.sqrt(23)))
        g = (t.a.x + t.b.x + t.c.x) / 3.0, (t.a.y + t.b.y + t.c.y) / 3.0
        assert math.dist(m_point(measures_xy(t.xy), "A"), g) < 1e-12 * _radius(t)
        assert detect_special_role(measures_xy(t.xy), *g, LENGTH_EPS) == SpecialRole("m_role", "A")

    def test_generic_point_is_none(self):
        none = SpecialRole("none")
        assert detect_special_role(measures_xy(TSCA.xy), 1.31, 0.87, LENGTH_EPS) == none

    def test_equilateral_tie_goes_to_circumcenter(self):
        # every classic center of an equilateral host coincides; the
        # nearest-wins rule keeps the first candidate, the circumcenter
        circ = SpecialRole("circumcenter")
        assert detect_special_role(measures_xy(EQUI.xy), 0.0, 0.0, LENGTH_EPS) == circ
        for center in (O, L, H):
            m = measures_xy(EQUI.xy)
            assert detect_special_role(m, *_locate(EQUI, center), LENGTH_EPS) == circ

    def test_q_role_on_incenter_arc(self):
        rng = rng_for(0, "qrole", 0)
        from miquel.sampling import random_arc_point

        for _ in range(20):
            t = _triangle(random_isosceles(rng, "A"))
            l = _locate(t, L)
            p = Point(*random_arc_point(rng, circumcircle(*t.b, *t.c, *l), t.c, t.b, l))
            role = detect_special_role(measures_xy(t.xy), *p, 1e-7)
            assert role == SpecialRole("q_role", "A")

    def test_q_role_when_base_and_incenter_are_nearly_collinear(self):
        # B, C and the incenter are collinear within the chain band but not
        # within LENGTH_EPS (circumcircle's test: |cross| against eps * span²);
        # the arc circle is built all the same
        t = Triangle(Point(0, 3e-6), Point(-1, 0), Point(1, 0))
        l = _locate(t, L)
        (bx, by), (cx, cy), (lx, ly) = t.b, t.c, l
        cross, span = (cx - bx) * (ly - by) - (cy - by) * (lx - bx), math.dist(t.b, t.c)
        assert LENGTH_EPS * span**2 < abs(cross) <= CHAIN_DETECT_TOL * span**2
        arc = circumcircle(*t.b, *t.c, *l)
        # on the arc, away from every named point (the nearest, at x = 1/3,
        # is 0.27 from it; the band is 0.17)
        p = Point(0.6, arc[1] + math.sqrt(arc[2]**2 - 0.36))
        assert abs(_offset_from(arc, p)) < LENGTH_EPS * _radius(t)
        role = detect_special_role(measures_xy(t.xy), *p, CHAIN_DETECT_TOL)
        assert role == SpecialRole("q_role", "A")


class TestContainmentParity:
    def test_incenter_inside_both(self):
        rep = _parity(TSCA, _locate(TSCA, L))
        assert rep.inside_host and rep.inside_miquel and rep.agree

    def test_circumcenter_of_acute_host(self):
        rep = _parity(TSCA, _locate(TSCA, O))
        assert rep.agree and rep.inside_host
        assert abs(rep.ray_angle_sum - 2 * math.pi) < 1e-9

    def test_far_exterior_point(self):
        rng = rng_for(0, "parity", 0)
        for _ in range(50):
            t = _triangle(random_triangle(rng))
            p = Point(*random_exterior_point(rng, t.xy, _circle(t), min_factor=2.0))
            rep = _parity(t, p)
            assert not rep.inside_host and not rep.inside_miquel and rep.agree

    def test_parity_everywhere(self, monkeypatch):
        # points 0.2 to 4 circumradii from the circumcenter
        monkeypatch.setattr(sampling, "EXTERIOR_REACH", 4.0)
        rng = rng_for(0, "parity", 1)
        for _ in range(300):
            t = _triangle(random_triangle(rng))
            p = (
                Point(*random_interior_point(rng, t.xy))
                if rng.random() < 0.5
                else Point(*random_exterior_point(rng, t.xy, _circle(t), min_factor=0.2))
            )
            if abs(_offset_from(_circle(t), p)) < 1e-3 * _radius(t):
                continue
            if t.min_side_line_distance(p) < 1e-3 * _radius(t):
                continue
            assert _parity(t, p).agree

    def test_on_circle_rejected(self):
        rng = rng_for(0, "parity", 2)
        t = _triangle(random_triangle(rng))
        with pytest.raises(
            GeometryError, match="^the pedal triple degenerates on the circumcircle$"
        ):
            _parity(t, Point(*random_circumcircle_point(rng, t.xy, _circle(t))))

    def test_side_line_point_rejected(self):
        with pytest.raises(OnSideLineError):
            _parity(TSCA, Point(*midpoint(TSCA.b, TSCA.c)))

    def test_vertex_rejected_as_side_line_point(self):
        # a vertex is on two side lines and on the circumcircle: the side-line
        # check runs first
        with pytest.raises(OnSideLineError):
            _parity(TSCA, TSCA.a)


def _orientation(t):
    """+1 when A, B, C turn counter-clockwise, else -1: the sign of the area."""
    (ax, ay), (bx, by), (cx, cy) = t.a, t.b, t.c
    return 1 if 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) > 0.0 else -1


def _contains_by_operators(t, p):
    """p is on the inner side of each edge: sign·(q2 − q1)×(p − q1) > 0."""
    sign = _orientation(t)
    return all(
        sign * ((q2.x - q1.x) * (p.y - q1.y) - (q2.y - q1.y) * (p.x - q1.x)) > 0.0
        for q1, q2 in ((t.a, t.b), (t.b, t.c), (t.c, t.a))
    )


def _miquel_equations_by_objects(t, p, triad):
    """verify_miquel_equations on the object path: the point of
    miquel_point's MiquelResult and the host's directed_angle_at, each
    angle sum reduced by half_turn."""
    if math.dist(_miquel(t, triad).point, p) > CONCURRENCY_BAND * _radius(t):
        raise GeometryError("the triad's concurrency point is not the given point")
    x, y, z = _points(triad)
    ang_a, ang_b, ang_c = (directed_angle_at_xy(t.xy, v) for v in "ABC")
    return max(
        angle_distance(half_turn(ang_a + _angle(y, x, z)), _angle(t.b, p, t.c)),
        angle_distance(half_turn(ang_b + _angle(z, y, x)), _angle(t.c, p, t.a)),
        angle_distance(half_turn(ang_c + _angle(x, z, y)), _angle(t.a, p, t.b)),
    )


def _containment_parity_by_objects(t, p):
    """containment_parity on the object path: the checked pedal triad, its Triangle,
    Point differences and the host's min_side_line_distance."""
    reject_side_lines(t.min_side_line_distance(p), _radius(t))
    if on_circle_xy(_circle(t), p.x, p.y):
        raise GeometryError("the pedal triple degenerates on the circumcircle")
    triad = _pedal(t, p)
    inside_host = _contains_by_operators(t, p)
    inside_miquel = _contains_by_operators(_triangle(triad), p)
    ray_sum = None
    if inside_host:
        dirs = sorted(math.atan2(q.y - p.y, q.x - p.x) for q in _points(triad))
        gaps = [dirs[1] - dirs[0], dirs[2] - dirs[1], 2.0 * math.pi - (dirs[2] - dirs[0])]
        ray_sum = sum(min(g, 2.0 * math.pi - g) for g in gaps)
    return ParityReport(inside_host, inside_miquel, inside_host == inside_miquel, ray_sum)


def _outcome(f, *args):
    try:
        return f(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _trial_points(rng, t, i):
    """An interior point, a point in the circumdisk outside the triangle, or
    an exterior point, by trial index."""
    if i % 3 == 0:
        return Point(*random_interior_point(rng, t.xy))
    if i % 3 == 1:
        while True:
            p = Point(*random_point_in_circumdisk(rng, t.xy, _circle(t), line_margin=0.03))
            if not _contains_by_operators(t, p):
                return p
    return Point(*random_exterior_point(rng, t.xy, _circle(t), min_factor=1.05))


class TestCoordinatePathsAgainstObjects:
    """verify_miquel_equations and containment_parity build no MiquelResult
    or pedal Triangle; the object path gives the same floats and the same
    errors."""

    def test_miquel_equations(self):
        rng = rng_for(0, "equations", 1)
        for i in range(300):
            t = _triangle(random_triangle(rng))
            p = _trial_points(rng, t, i)
            triad = (
                _family(t, p, rng.uniform(-1.2, 1.2))
                if i % 10
                else _triad_at(t, *(rng.uniform(-1.0, 2.0) for _ in range(3)))
            )
            # p itself, and p moved just past the drift band
            off = Point(p.x + 1.5 * CONCURRENCY_BAND * _radius(t), p.y)
            for q in (p, off):
                expected = _outcome(_miquel_equations_by_objects, t, q, triad)
                assert _outcome(_equations, t, q, triad) == expected

    def test_containment_parity(self):
        rng = rng_for(0, "parity", 3)
        for i in range(300):
            t = _triangle(random_triangle(rng))
            trial = _trial_points(rng, t, i)
            on_circle = Point(*random_circumcircle_point(rng, t.xy, _circle(t)))
            for p in (trial, on_circle):
                expected = _outcome(_containment_parity_by_objects, t, p)
                assert _outcome(_parity, t, p) == expected
            for p in (t.b, Point(*midpoint(t.a, t.c))):
                assert _outcome(_parity, t, p) == (
                    OnSideLineError, "the point lies on a side line of the triangle"
                )


    def test_error_order_on_a_thin_host(self):
        # an angle of 0.006 at A: points just outside the circumcircle band
        # have collinear pedal feet, which Triangle(X, Y, Z) rejected
        t = Triangle(*(Point(math.cos(phi), math.sin(phi)) for phi in (HALF_PI, -1.5648, -1.5768)))
        for phi in (0.3, 1.0, 2.5):
            for radius in (1.0 + 1.5e-7, 1.0 - 1.5e-7, 1.0 + 1e-8):
                p = Point(radius * math.cos(phi), radius * math.sin(phi))
                expected = _outcome(_containment_parity_by_objects, t, p)
                assert expected[0] in (CollinearError, GeometryError)
                assert _outcome(_parity, t, p) == expected


class TestSimson:
    def test_collinearity_on_circumcircle(self):
        rng = rng_for(0, "simson", 0)
        for _ in range(200):
            t = _triangle(random_triangle(rng))
            p = Point(*random_circumcircle_point(rng, t.xy, _circle(t)))
            assert _simson(t, p).max_deviation() < 1e-9 * _radius(t)


class TestExteriorCatalogFeet:
    def test_inverse_s_point_feet_reproduce_host_shape(self):
        # the circumcircle inverse of a symmedian arc point always lands on
        # the opposite side line, where the foot on that line is the point
        rng = rng_for(0, "extcat", 0)
        for _ in range(20):
            t = _triangle(random_catalog_triangle(rng))
            for v in "ABC":
                q = Point(*invert_xy(_circle(t), *s_point(measures_xy(t.xy), v)))
                assert t.min_side_line_distance(q) < 1e-9 * _radius(t)
                shape = _triangle(_pedal(t, q))
                match = classify_similarity(t.xy, shape.xy, 1e-7)
                assert match is not None
