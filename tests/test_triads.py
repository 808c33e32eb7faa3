"""Triad constructions: concurrency, families, angle bookkeeping, similarity
classification, role detection and containment parity."""

import math

import pytest

from helpers import (
    EQUI,
    SQ3,
    T345,
    TSCA,
    circumradius,
    contains_by_operators,
    directed_angle,
    locate,
    offset,
    offset_from,
    opposite,
    orientation,
    vertices,
)
from miquel import sampling, triads
from miquel.centers import eleven_point_catalog, measures_xy
from miquel.chains import CHAIN_DETECT_TOL
from miquel.errors import CollinearError, GeometryError, OnSideLineError
from miquel.kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    angle_distance,
    checked_xy,
    circle_circle_intersections,
    circle_xy,
    circumcircle,
    directed_angle_at_xy,
    half_turn,
    invert_xy,
    line_line_intersection,
    line_through,
    midpoint,
    min_side_line_distance_xy,
    project_xy,
    reject_side_lines,
    shape_gap,
    shape_ratio,
    side_lengths_xy,
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

# family_member's message for a rotation outside (-pi/2, pi/2)
THETA_OUT_OF_RANGE = r"^rotation \S+ not inside \(-pi/2, pi/2\)$"

O, H, L = (SpecialRole(r) for r in ("circumcenter", "orthocenter", "incenter"))


def _along(line, p, q) -> float:
    """The component of p − q along the direction of ``line``."""
    _, _, dx, dy = line
    (px, py), (qx, qy) = p, q
    return (px - qx) * dx + (py - qy) * dy


class TestPedalTriad:
    def test_circumcenter_gives_midpoints(self):
        ped = pedal_triad(TSCA, *locate(TSCA, O))
        assert all(abs(s - 0.5) < 1e-12 for s in triad_params(TSCA, ped))

    def test_orthocenter_gives_altitude_feet(self):
        h = locate(TSCA, H)
        ped = pedal_triad(TSCA, *h)
        for foot, v in zip(vertices(ped), "ABC"):
            side = line_through(*opposite(TSCA, v))
            assert abs(offset(side, foot)) < 1e-12
            assert abs(_along(side, foot, h)) < 1e-12

    def test_antipode_simson_on_hypotenuse_line(self):
        # antipode of the right-angle vertex: the feet collapse onto line BC
        sim = simson_line(T345, 4, 3)
        feet = sorted(sim.feet, key=lambda f: f[0])
        assert math.dist(feet[0], (0, 3)) < 1e-12
        assert math.dist(feet[1], (64 / 25, 27 / 25)) < 1e-12
        assert math.dist(feet[2], (4, 0)) < 1e-12
        hypotenuse = line_through(*opposite(T345, "A"))
        for f in sim.feet:
            assert abs(offset(hypotenuse, f)) < 1e-12
        assert sim.max_deviation() < 1e-12

    def test_foot_on_the_side_line_is_the_point(self):
        # (2, 0) is on line AB, so Z is the point at every rotation
        p = (2, 0)
        assert vertices(pedal_triad(TSCA, *p))[2] == p
        for theta in (-1.0, 0.3):
            assert vertices(family_member(TSCA, *p, theta))[2] == p

    def test_vertex_simson_line_is_the_altitude(self):
        # A is on lines CA and AB, so two feet are A; the third is the foot of
        # the altitude from A
        a = TSCA[0:2]
        sim = simson_line(TSCA, *a)
        foot = project_xy(*line_through(*opposite(TSCA, "A")), *a)
        altitude = line_through(a, foot)
        for f in sim.feet:
            assert abs(offset(altitude, f)) < 1e-12
        assert sim.max_deviation() < 1e-12

    def test_feet_are_perpendicular_projections(self):
        rng = rng_for(0, "pedal", 0)
        for _ in range(100):
            t = random_triangle(rng)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            triad = pedal_triad(t, *p)
            for foot, v in zip(vertices(triad), "ABC"):
                side = line_through(*opposite(t, v))
                assert abs(offset(side, foot)) < 1e-12 * circumradius(t)
                assert abs(_along(side, foot, p)) < 1e-12 * circumradius(t)


class TestTriadAt:
    def test_points_at_the_parameters(self):
        triad = checked_triad(triad_xy(TSCA, 0.5, -1.0, 2.0))
        assert triad == (2.5, 1.5, 2.0, 6.0, 8.0, 0.0)
        assert triad_params(TSCA, triad) == (0.5, -1.0, 2.0)

    @pytest.mark.parametrize("slot", range(3))
    def test_points_are_checked_in_turn(self, slot):
        # the first point that is not finite, in X, Y, Z order, gives
        # checked_xy's message for it, though a later one is not finite either
        xy = [2.5, 1.5, 2.0, 6.0, 8.0, 0.0]
        xy[2 * slot + 1] = -math.inf
        xy[5] = math.nan
        with pytest.raises(ValueError) as point:
            checked_xy(*xy[2 * slot:2 * slot + 2])
        with pytest.raises(ValueError, match="^non-finite coordinates") as triad:
            checked_triad(tuple(xy))
        assert str(triad.value) == str(point.value)
        assert checked_triad(triad_xy(TSCA, 0.5, -1.0, 2.0)) == (2.5, 1.5, 2.0, 6.0, 8.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_parameters_rejected(self, bad, slot):
        params = [0.3, 0.3, 0.3]
        params[slot] = bad
        with pytest.raises(ValueError, match="^triad parameters must be finite$"):
            checked_triad(triad_xy(TSCA, *params))


class TestMiquelPoint:
    def test_midpoints_give_circumcenter(self):
        res = miquel_point(TSCA, checked_triad(triad_xy(TSCA, 0.5, 0.5, 0.5)))
        assert math.dist(res.point, locate(TSCA, O)) < 1e-12
        assert res.residual < 1e-12

    def test_altitude_feet_give_orthocenter(self):
        ped = pedal_triad(TSCA, *locate(TSCA, H))
        res = miquel_point(TSCA, ped)
        assert math.dist(res.point, locate(TSCA, H)) < 1e-12

    def test_uniform_params_concurrency(self):
        res = miquel_point(TSCA, checked_triad(triad_xy(TSCA, 0.3, 0.3, 0.3)))
        assert res.residual < 1e-9 * circumradius(TSCA)
        # frozen regression value for the workhorse triangle
        assert math.dist(res.point, (1.7023121387283235, 0.6849710982658955)) < 1e-10

    def test_concurrency_on_extensions(self):
        rng = rng_for(0, "miquel", 0)
        for _ in range(300):
            t = random_triangle(rng)
            params = []
            while len(params) < 3:
                s = rng.uniform(-1.0, 2.0)
                if abs(s) > 0.05 and abs(s - 1.0) > 0.05:
                    params.append(s)
            res = miquel_point(t, checked_triad(triad_xy(t, *params)))
            assert res.residual < 1e-8 * circumradius(t)

    def test_circles_pass_through_expected_points(self):
        triad = checked_triad(triad_xy(TSCA, 0.4, 0.7, 0.2))
        res = miquel_point(TSCA, triad)
        ca, cb, cc = res.circles
        (a, b, c), (x, y, z) = vertices(TSCA), vertices(triad)
        for circ, pts in ((ca, (a, y, z)), (cb, (b, z, x)), (cc, (c, x, y))):
            # the circle through the vertex and its triad points, float for float
            assert circ == circle_xy(*pts[0], *pts[1], *pts[2])
            for q in pts:
                assert abs(offset_from(circ, q)) < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_circle_is_checked(self, k, monkeypatch):
        # a circle AYZ, BZX or CXY whose center or radius is not finite
        real = triads.miquel_xy
        triad = checked_triad(triad_xy(TSCA, 0.4, 0.7, 0.2))
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
                miquel_point(TSCA, triad)
            assert str(info.value) == message

    def test_tangent_when_the_point_is_z(self):
        # README's triangle: circles AYZ and BZX touch at Z
        triad = checked_triad(triad_xy(TSCA, 0.2, 0.8, 0.1716117818584988))
        res = miquel_point(TSCA, triad)
        assert res.tangent
        assert math.dist(res.point, triad[4:6]) < 1e-12 * circumradius(TSCA)
        assert not miquel_point(TSCA, checked_triad(triad_xy(TSCA, 0.2, 0.8, 0.3))).tangent


class TestFamilyMember:
    def test_zero_theta_reproduces_pedal(self):
        p = (1.2, 0.8)
        ped = pedal_triad(TSCA, *p)
        fam = family_member(TSCA, *p, 0.0)
        assert fam == ped

    def test_equilateral_ratio_at_pi_over_six(self):
        o = locate(EQUI, O)
        fam = family_member(EQUI, *o, math.pi / 6)
        ped = pedal_triad(EQUI, *o)
        ratio = side_lengths_xy(*fam)[0] / side_lengths_xy(*ped)[0]
        assert abs(ratio - 2.0 / SQ3) < 1e-12

    def test_roundtrip_and_similarity_ratio(self):
        rng = rng_for(0, "family", 0)
        for _ in range(500):
            t = random_triangle(rng)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            theta = rng.uniform(-1.2, 1.2)
            fam = family_member(t, *p, theta)
            res = miquel_point(t, fam)
            assert math.dist(res.point, p) < 1e-8 * circumradius(t)
            ped = pedal_triad(t, *p)
            ratio = side_lengths_xy(*fam)[0] / side_lengths_xy(*ped)[0]
            assert abs(ratio - 1.0 / math.cos(theta)) < 1e-8 * (1.0 / math.cos(theta))

    def test_theta_range_enforced(self):
        with pytest.raises(GeometryError, match=THETA_OUT_OF_RANGE):
            family_member(TSCA, 1.2, 0.8, math.pi / 2)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_out_of_range(self, theta):
        with pytest.raises(GeometryError, match=THETA_OUT_OF_RANGE):
            family_member(TSCA, 1.2, 0.8, theta)

    def test_family_members_mutually_similar(self):
        p = (1.2, 0.8)
        tol = 1e-8
        thetas = [-1.4 + 2.8 * k / 19 for k in range(20)]
        tris = [family_member(TSCA, *p, th) for th in thetas]
        ped = pedal_triad(TSCA, *p)
        for tri in (*tris, ped):
            side_lengths_xy(*tri)  # a triangle, not three collinear points
        for th, tri in zip(thetas, tris):
            match = classify_similarity(ped, tri, tol)
            assert match is not None and match.order == (0, 1, 2)
            scale = circumradius(tri) / circumradius(ped)
            assert abs(scale - 1.0 / math.cos(th)) < 1e-8 / math.cos(th)
        for i in range(len(tris) - 1):
            match = classify_similarity(tris[i], tris[i + 1], tol)
            assert match is not None and match.order == (0, 1, 2)

    def test_every_catalog_family_holds_the_host_shape(self):
        # a family member is the pedal triangle under a spiral similarity
        # about p, so each of the eleven families, the three on a side line
        # included, keeps the host's shape under the recorded correspondence
        rng = rng_for(0, "family", 1)
        for _ in range(20):
            t = random_catalog_triangle(rng)
            host = shape_ratio(t, (0, 1, 2))
            for e in eleven_point_catalog(measures_xy(t)):
                for theta in (-1.0, -0.4, 0.0, 0.3, 1.2):
                    member = family_member(t, *e.location, theta)
                    side_lengths_xy(*member)  # a triangle, not three collinear points
                    gap = shape_gap(host, shape_ratio(member, e.order), e.mirrored)
                    assert gap < 1e-12, (str(e.kind), e.inverse, theta)


def _family_member_by_spoke_lines(t, p, theta):
    """Each spoke from p to its pedal foot, rotated and cut with its side line."""
    px, py = p
    feet = []
    for v in "ABC":
        side = line_through(*opposite(t, v))
        fx, fy = project_xy(*side, px, py)
        sx, sy = fx - px, fy - py
        c, s = math.cos(theta), math.sin(theta)
        spoke = unit_direction(c * sx - s * sy, s * sx + c * sy)
        feet.append(line_line_intersection((px, py, *spoke), side))
    return feet


def _miquel_point_by_radical_line(t, triad):
    """The hit of circles AYZ and BZX farther from Z, where both meet."""
    x, y, z = vertices(triad)
    hits = circle_circle_intersections(circumcircle(*t[0:2], *y, *z),
                                       circumcircle(*t[2:4], *z, *x))
    return max(hits, key=lambda q: math.dist(q, z))


class TestClosedFormsAgainstConstructions:
    def test_acute_and_obtuse_hosts(self):
        rng = rng_for(0, "chain-step-oracles", 0)
        hosts = []
        for _ in range(100):
            hosts.append(random_acute_triangle(rng))
            hosts.extend(random_obtuse_at(rng, v) for v in "ABC")
        for t in hosts:
            r = circumradius(t)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            theta = rng.uniform(-1.2, 1.2)
            fam = family_member(t, *p, theta)
            for foot, oracle in zip(vertices(fam), _family_member_by_spoke_lines(t, p, theta)):
                assert math.dist(foot, oracle) < 1e-12 * r
            params = [rng.uniform(-1.0, 2.0) for _ in range(3)]
            for triad in (fam, checked_triad(triad_xy(t, *params))):
                point = miquel_point(t, triad).point
                assert math.dist(point, _miquel_point_by_radical_line(t, triad)) < 1e-12 * r


def _cevian_angles(t, p):
    """alpha1, beta1, gamma1 and alpha2, beta2, gamma2 of the point p."""
    r = circumradius(t)
    return (cevian_angles_xy(t, *p, r, False), cevian_angles_xy(t, *p, r, True))


class TestAngleSextet:
    """The six cevian angles of cevian_angles_xy."""

    def test_equilateral_circumcenter_all_pi_six(self):
        for trio in _cevian_angles(EQUI, (0, 0)):
            for ang in trio:
                assert abs(abs(ang) - math.pi / 6) < 1e-12

    def test_incenter_halves_the_angles(self):
        firsts, seconds = _cevian_angles(TSCA, locate(TSCA, L))
        for first, second in zip(firsts, seconds):
            assert angle_distance(first, second) < 1e-12

    def test_first_brocard_equalizes_tail_angles(self):
        _, (a2, b2, g2) = _cevian_angles(TSCA, locate(TSCA, SpecialRole("first_brocard")))
        assert angle_distance(a2, b2) < 1e-10
        assert angle_distance(b2, g2) < 1e-10

    def test_pairs_sum_to_vertex_angles(self):
        rng = rng_for(0, "sextet", 0)
        for _ in range(100):
            t = random_triangle(rng)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            firsts, seconds = _cevian_angles(t, p)
            for first, second, v in zip(firsts, seconds, "ABC"):
                assert angle_distance(first + second, directed_angle_at_xy(t, v)) < 1e-12

    def test_vertex_rejected(self):
        for second in (False, True):
            with pytest.raises(GeometryError, match="^the point coincides with a vertex$"):
                cevian_angles_xy(TSCA, 0.0, 0.0, circumradius(TSCA), second)


class TestMiquelTriangleAngles:
    """The triad-triangle angles of miquel_angles_xy."""

    def test_circumcenter_reproduces_host_angles(self):
        angs = miquel_angles_xy(TSCA, *locate(TSCA, O), circumradius(TSCA))
        for ang, v in zip(angs, "ABC"):
            assert angle_distance(ang, directed_angle_at_xy(TSCA, v)) < 1e-12

    def test_equilateral_circumcenter(self):
        for ang in miquel_angles_xy(EQUI, 0, 0, circumradius(EQUI)):
            assert angle_distance(ang, math.pi / 3) < 1e-12

    def test_incenter_half_angle_formula(self):
        # at the incenter the formulas reduce to pi/2 - half the host angle
        angs = miquel_angles_xy(TSCA, *locate(TSCA, L), circumradius(TSCA))
        for got, angle in zip(angs, measures_xy(TSCA).angles):
            expected = math.pi / 2 - 0.5 * orientation(TSCA) * angle
            assert angle_distance(got, expected) < 1e-12

    def test_matches_measured_pedal_angles(self):
        rng = rng_for(0, "lemma-angles", 0)
        for _ in range(200):
            t = random_triangle(rng)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            ang_x, ang_y, ang_z = miquel_angles_xy(t, *p, circumradius(t))
            x, y, z = vertices(pedal_triad(t, *p))
            assert angle_distance(ang_x, directed_angle(y, x, z)) < 1e-8
            assert angle_distance(ang_y, directed_angle(z, y, x)) < 1e-8
            assert angle_distance(ang_z, directed_angle(x, z, y)) < 1e-8
            # the three formulas sum to the host angle sum: zero mod half turn
            assert angle_distance(ang_x + ang_y + ang_z, 0.0) < 1e-12


class TestMiquelEquations:
    def test_circumcenter_doubles_vertex_angles(self):
        o = locate(TSCA, O)
        triad = checked_triad(triad_xy(TSCA, 0.5, 0.5, 0.5))
        assert verify_miquel_equations(TSCA, *o, triad) < 1e-12
        double_a = 2 * directed_angle_at_xy(TSCA, "A")
        assert angle_distance(directed_angle(TSCA[2:4], o, TSCA[4:6]), double_a) < 1e-12

    def test_equilateral_center(self):
        assert verify_miquel_equations(EQUI, 0, 0, pedal_triad(EQUI, 0, 0)) < 1e-12

    def test_random_family_members(self):
        rng = rng_for(0, "equations", 0)
        for _ in range(500):
            t = random_triangle(rng)
            p = random_point_in_circumdisk(rng, t, circumcircle(*t))
            theta = rng.uniform(-1.2, 1.2)
            assert verify_miquel_equations(t, *p, family_member(t, *p, theta)) < 1e-9

    def test_foreign_triad_rejected(self):
        with pytest.raises(
            GeometryError, match="^the triad's concurrency point is not the given point$"
        ):
            verify_miquel_equations(TSCA, 1.0, 1.0, checked_triad(triad_xy(TSCA, 0.5, 0.5, 0.5)))


class TestClassifySimilarity:
    def test_identity(self):
        match = classify_similarity(TSCA, TSCA, ANGLE_EPS)
        assert match.order == (0, 1, 2)
        assert match.mirrored is False
        assert match.residual == 0.0

    def test_mirror_is_inverse_orientation(self):
        ax, ay, bx, by, cx, cy = TSCA
        match = classify_similarity(TSCA, (-ax, ay, -bx, by, -cx, cy), ANGLE_EPS)
        assert match.order == (0, 1, 2)
        assert match.mirrored is True

    def test_dissimilar_returns_none(self):
        assert classify_similarity(T345, EQUI, ANGLE_EPS) is None

    def test_scaled_rotated_copy(self):
        rng = rng_for(0, "classify", 0)
        for _ in range(50):
            t = random_triangle(rng)
            s = rng.uniform(0.3, 3.0)
            phi = rng.uniform(0, 2 * math.pi)
            shift_x, shift_y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            c, sn = math.cos(phi), math.sin(phi)
            moved = []
            for x, y in vertices(t):
                dx, dy = x - t[0], y - t[1]
                moved += [(c * dx - sn * dy) * s + shift_x, (sn * dx + c * dy) * s + shift_y]
            match = classify_similarity(t, tuple(moved), ANGLE_EPS)
            assert match is not None
            assert match.order == (0, 1, 2)
            assert abs(circumradius(moved) / circumradius(t) - s) < 1e-9 * s

    def test_equilateral_tie_goes_to_abc(self):
        # all six correspondences fit EQUI, even against a relabeled copy;
        # the first in order wins, not the best fit
        relabeled = (*EQUI[2:], *EQUI[:2])
        for other in (EQUI, relabeled):
            match = classify_similarity(EQUI, other, 1e-6)
            assert match.order == (0, 1, 2)
            assert match.mirrored is False
        assert classify_similarity(EQUI, EQUI, 1e-6).residual == 0.0
        # against the copy (2, 0, 1) maps vertex for vertex and fits exactly,
        # while the identity's gap is float noise: the ratio of a relabeled copy is not
        # bit-identical
        seed = shape_ratio(EQUI, (0, 1, 2))
        assert shape_gap(seed, shape_ratio(relabeled, (2, 0, 1)), False) == 0.0
        assert 0.0 < classify_similarity(EQUI, relabeled, 1e-6).residual < 1e-15

    def test_isosceles_tie_goes_to_the_first_map(self):
        # against its mirror image in the axis, an isosceles triangle fits the
        # identity mirrored and (0, 2, 1) direct; the orders are tried in turn,
        # each direct before mirrored, so the identity wins
        match = classify_similarity((0, 2, -1, 0, 1, 0), (0, 2, 1, 0, -1, 0), 1e-9)
        assert (match.order, match.mirrored) == ((0, 1, 2), True)


class TestDetectSpecialRole:
    def test_named_centers(self):
        def detect(p):
            return detect_special_role(measures_xy(TSCA), *p, LENGTH_EPS)

        for role in (O, SpecialRole("first_brocard"), SpecialRole("s_role", "B"),
                     SpecialRole("m_role", "C"), SpecialRole("excenter", "A")):
            assert detect(locate(TSCA, role)) == role

    def test_automedian_centroid_is_median_role(self):
        # b² + c² = 2a² puts M_A on the centroid; the centroid is no candidate
        t = (0, 0, 4, 0, 3, math.sqrt(23))
        g = (t[0] + t[2] + t[4]) / 3.0, (t[1] + t[3] + t[5]) / 3.0
        assert math.dist(locate(t, SpecialRole("m_role", "A")), g) < 1e-12 * circumradius(t)
        assert detect_special_role(measures_xy(t), *g, LENGTH_EPS) == SpecialRole("m_role", "A")

    def test_generic_point_is_none(self):
        none = SpecialRole("none")
        assert detect_special_role(measures_xy(TSCA), 1.31, 0.87, LENGTH_EPS) == none

    def test_equilateral_tie_goes_to_circumcenter(self):
        # every classic center of an equilateral host coincides; the
        # nearest-wins rule keeps the first candidate, the circumcenter
        circ = SpecialRole("circumcenter")
        assert detect_special_role(measures_xy(EQUI), 0.0, 0.0, LENGTH_EPS) == circ
        for center in (O, L, H):
            m = measures_xy(EQUI)
            assert detect_special_role(m, *locate(EQUI, center), LENGTH_EPS) == circ

    def test_q_role_on_incenter_arc(self):
        rng = rng_for(0, "qrole", 0)
        from miquel.sampling import random_arc_point

        for _ in range(20):
            t = random_isosceles(rng, "A")
            _, b, c = vertices(t)
            l = locate(t, L)
            p = random_arc_point(rng, circumcircle(*b, *c, *l), c, b, l)
            role = detect_special_role(measures_xy(t), *p, 1e-7)
            assert role == SpecialRole("q_role", "A")

    def test_q_role_when_base_and_incenter_are_nearly_collinear(self):
        # B, C and the incenter are collinear within the chain band but not
        # within LENGTH_EPS (circumcircle's test: |cross| against eps * span²);
        # the arc circle is built all the same
        t = (0, 3e-6, -1, 0, 1, 0)
        _, b, c = vertices(t)
        l = locate(t, L)
        (bx, by), (cx, cy), (lx, ly) = b, c, l
        cross, span = (cx - bx) * (ly - by) - (cy - by) * (lx - bx), math.dist(b, c)
        assert LENGTH_EPS * span**2 < abs(cross) <= CHAIN_DETECT_TOL * span**2
        arc = circumcircle(*b, *c, *l)
        # on the arc, away from every named point (the nearest, at x = 1/3,
        # is 0.27 from it; the band is 0.17)
        p = (0.6, arc[1] + math.sqrt(arc[2]**2 - 0.36))
        assert abs(offset_from(arc, p)) < LENGTH_EPS * circumradius(t)
        role = detect_special_role(measures_xy(t), *p, CHAIN_DETECT_TOL)
        assert role == SpecialRole("q_role", "A")


class TestContainmentParity:
    def test_incenter_inside_both(self):
        rep = containment_parity(TSCA, circumcircle(*TSCA), *locate(TSCA, L))
        assert rep.inside_host and rep.inside_miquel and rep.agree

    def test_circumcenter_of_acute_host(self):
        rep = containment_parity(TSCA, circumcircle(*TSCA), *locate(TSCA, O))
        assert rep.agree and rep.inside_host
        assert abs(rep.ray_angle_sum - 2 * math.pi) < 1e-9

    def test_far_exterior_point(self):
        rng = rng_for(0, "parity", 0)
        for _ in range(50):
            t = random_triangle(rng)
            circle = circumcircle(*t)
            p = random_exterior_point(rng, t, circle, min_factor=2.0)
            rep = containment_parity(t, circle, *p)
            assert not rep.inside_host and not rep.inside_miquel and rep.agree

    def test_parity_everywhere(self, monkeypatch):
        # points 0.2 to 4 circumradii from the circumcenter
        monkeypatch.setattr(sampling, "EXTERIOR_REACH", 4.0)
        rng = rng_for(0, "parity", 1)
        for _ in range(300):
            t = random_triangle(rng)
            circle = circumcircle(*t)
            p = (
                random_interior_point(rng, t)
                if rng.random() < 0.5
                else random_exterior_point(rng, t, circle, min_factor=0.2)
            )
            if abs(offset_from(circle, p)) < 1e-3 * circle[2]:
                continue
            if min_side_line_distance_xy(t, *p) < 1e-3 * circle[2]:
                continue
            assert containment_parity(t, circle, *p).agree

    def test_on_circle_rejected(self):
        rng = rng_for(0, "parity", 2)
        t = random_triangle(rng)
        circle = circumcircle(*t)
        with pytest.raises(
            GeometryError, match="^the pedal triple degenerates on the circumcircle$"
        ):
            containment_parity(t, circle, *random_circumcircle_point(rng, t, circle))

    def test_side_line_point_rejected(self):
        with pytest.raises(OnSideLineError):
            containment_parity(TSCA, circumcircle(*TSCA), *midpoint(TSCA[2:4], TSCA[4:6]))

    def test_vertex_rejected_as_side_line_point(self):
        # a vertex is on two side lines and on the circumcircle: the side-line
        # check runs first
        with pytest.raises(OnSideLineError):
            containment_parity(TSCA, circumcircle(*TSCA), *TSCA[0:2])


def _miquel_equations_by_objects(t, p, triad):
    """verify_miquel_equations on the object path: the point of
    miquel_point's MiquelResult and the host's directed_angle_at, each
    angle sum reduced by half_turn."""
    if math.dist(miquel_point(t, triad).point, p) > CONCURRENCY_BAND * circumradius(t):
        raise GeometryError("the triad's concurrency point is not the given point")
    (a, b, c), (x, y, z) = vertices(t), vertices(triad)
    ang_a, ang_b, ang_c = (directed_angle_at_xy(t, v) for v in "ABC")
    return max(
        angle_distance(half_turn(ang_a + directed_angle(y, x, z)), directed_angle(b, p, c)),
        angle_distance(half_turn(ang_b + directed_angle(z, y, x)), directed_angle(c, p, a)),
        angle_distance(half_turn(ang_c + directed_angle(x, z, y)), directed_angle(a, p, b)),
    )


def _containment_parity_by_objects(t, p):
    """containment_parity on the object path: the checked pedal triad, its
    side lengths (the pedal triangle's construction test), point differences
    and the host's min_side_line_distance."""
    circle = circumcircle(*t)
    reject_side_lines(min_side_line_distance_xy(t, *p), circle[2])
    if on_circle_xy(circle, *p):
        raise GeometryError("the pedal triple degenerates on the circumcircle")
    triad = pedal_triad(t, *p)
    inside_host = contains_by_operators(t, p)
    side_lengths_xy(*triad)
    inside_miquel = contains_by_operators(triad, p)
    ray_sum = None
    if inside_host:
        px, py = p
        dirs = sorted(math.atan2(qy - py, qx - px) for qx, qy in vertices(triad))
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
        return random_interior_point(rng, t)
    if i % 3 == 1:
        while True:
            p = random_point_in_circumdisk(rng, t, circumcircle(*t), line_margin=0.03)
            if not contains_by_operators(t, p):
                return p
    return random_exterior_point(rng, t, circumcircle(*t), min_factor=1.05)


class TestCoordinatePathsAgainstObjects:
    """verify_miquel_equations and containment_parity build no MiquelResult
    or pedal triangle; the object path gives the same floats and the same
    errors."""

    def test_miquel_equations(self):
        rng = rng_for(0, "equations", 1)
        for i in range(300):
            t = random_triangle(rng)
            p = _trial_points(rng, t, i)
            triad = (
                family_member(t, *p, rng.uniform(-1.2, 1.2))
                if i % 10
                else checked_triad(triad_xy(t, *(rng.uniform(-1.0, 2.0) for _ in range(3))))
            )
            # p itself, and p moved just past the drift band
            off = (p[0] + 1.5 * CONCURRENCY_BAND * circumradius(t), p[1])
            for q in (p, off):
                expected = _outcome(_miquel_equations_by_objects, t, q, triad)
                assert _outcome(verify_miquel_equations, t, *q, triad) == expected

    def test_containment_parity(self):
        rng = rng_for(0, "parity", 3)
        for i in range(300):
            t = random_triangle(rng)
            circle = circumcircle(*t)
            trial = _trial_points(rng, t, i)
            on_circle = random_circumcircle_point(rng, t, circle)
            for p in (trial, on_circle):
                expected = _outcome(_containment_parity_by_objects, t, p)
                assert _outcome(containment_parity, t, circle, *p) == expected
            for p in (t[2:4], midpoint(t[0:2], t[4:6])):
                assert _outcome(containment_parity, t, circle, *p) == (
                    OnSideLineError, "the point lies on a side line of the triangle"
                )


    def test_error_order_on_a_thin_host(self):
        # an angle of 0.006 at A: points just outside the circumcircle band
        # have collinear pedal feet, which the pedal triangle's construction
        # test rejected
        t = tuple(c for phi in (HALF_PI, -1.5648, -1.5768) for c in (math.cos(phi), math.sin(phi)))
        circle = circumcircle(*t)
        for phi in (0.3, 1.0, 2.5):
            for rho in (1.0 + 1.5e-7, 1.0 - 1.5e-7, 1.0 + 1e-8):
                p = (rho * math.cos(phi), rho * math.sin(phi))
                expected = _outcome(_containment_parity_by_objects, t, p)
                assert expected[0] in (CollinearError, GeometryError)
                assert _outcome(containment_parity, t, circle, *p) == expected


class TestSimson:
    def test_collinearity_on_circumcircle(self):
        rng = rng_for(0, "simson", 0)
        for _ in range(200):
            t = random_triangle(rng)
            p = random_circumcircle_point(rng, t, circumcircle(*t))
            assert simson_line(t, *p).max_deviation() < 1e-9 * circumradius(t)


class TestExteriorCatalogFeet:
    def test_inverse_s_point_feet_reproduce_host_shape(self):
        # the circumcircle inverse of a symmedian arc point always lands on
        # the opposite side line, where the foot on that line is the point
        rng = rng_for(0, "extcat", 0)
        for _ in range(20):
            t = random_catalog_triangle(rng)
            for v in "ABC":
                q = invert_xy(circumcircle(*t), *locate(t, SpecialRole("s_role", v)))
                assert min_side_line_distance_xy(t, *q) < 1e-9 * circumradius(t)
                shape = pedal_triad(t, *q)
                side_lengths_xy(*shape)  # a triangle, not three collinear points
                match = classify_similarity(t, shape, 1e-7)
                assert match is not None
