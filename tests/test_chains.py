"""Nested triad chains: mod-3 similarity, role recurrences, degeneracy, and
the chain correspondences on an exact rational oracle."""

import math
import random
from fractions import Fraction

import pytest

import miquel.chains
import miquel.verify
from miquel.centers import SpecialRole, eleven_point_catalog, locate_xy, measures_xy
from miquel.chains import (
    CHAIN_DETECT_TOL,
    CHAIN_SIMILARITY_TOL,
    MAX_CHAIN_STEPS,
    ChainRecord,
    check_mod3_similarity,
    follows_role_cycle,
    iterate_chain,
)
from miquel.errors import CollinearError, DegenerateStepError, OnSideLineError
from miquel.kernel import (
    Triangle,
    checked_xy,
    circle_xy,
    circumcircle,
    corners_xy,
    midpoint,
    side_lengths_xy,
)
from miquel.sampling import (
    random_circumcircle_point,
    random_interior_point,
    random_triangle,
    rng_for,
)
from miquel.triads import (
    CIRCUMCIRCLE_BAND,
    classify_similarity,
    detect_special_role,
    family_member,
    miquel_point,
)
from miquel.verify import SEED_CORRESPONDENCES, run_suite

SQ3 = math.sqrt(3.0)
O, H, L = (SpecialRole(r) for r in ("circumcenter", "orthocenter", "incenter"))
TSCA = (0.0, 0.0, 4.0, 0.0, 1.0, 3.0)
EQUI = (0.0, 1.0, -SQ3 / 2, -0.5, SQ3 / 2, -0.5)


def _locate(t, role):
    """Where ``role`` sits in the triangle ``t``, checked as the suites check it."""
    return checked_xy(*locate_xy(measures_xy(t), role))


def _triangles(rec):
    """The seed and the step triangles of ``rec``, as coordinates."""
    return (rec.seed.xy, *rec.steps)


def _radius(t):
    return circumcircle(*t)[2]


class TestIterateChain:
    def test_equilateral_medial_chain(self):
        rec = iterate_chain(measures_xy(EQUI), 0.0, 0.0, 3)
        for host, step in zip(_triangles(rec), rec.steps):
            # the pedal feet of the center are the side midpoints
            for v in "ABC":
                _, b, c = corners_xy(host, v)
                assert math.dist(corners_xy(step, v)[0], midpoint(b, c)) < 1e-12
        tris = _triangles(rec)
        for i in range(3):
            match = classify_similarity(tris[i], tris[i + 1], CHAIN_SIMILARITY_TOL)
            assert match is not None
            scale = _radius(tris[i + 1]) / _radius(tris[i])
            assert abs(scale - 0.5) < 1e-12

    def test_scalene_mod3_seed_similarity(self):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 3)
        match = classify_similarity(rec.seed.xy, rec.steps[2], CHAIN_SIMILARITY_TOL)
        assert match is not None

    def test_circumcircle_point_collapses(self):
        rng = rng_for(0, "chains", 0)
        p = random_circumcircle_point(rng, TSCA, circumcircle(*TSCA))
        with pytest.raises(DegenerateStepError):
            iterate_chain(measures_xy(TSCA), *p, 2)

    def test_side_line_point_degenerates(self):
        # the midpoint of BC lies on a side line of the seed
        with pytest.raises(DegenerateStepError, match="step 0") as info:
            iterate_chain(measures_xy(TSCA), *midpoint(TSCA[2:4], TSCA[4:6]), 3)
        assert isinstance(info.value.__cause__, OnSideLineError)

    def test_collinear_step_triangle_degenerates(self):
        # README's thin host (R = 416.67) and a point just outside the
        # circumcircle band: circles AYZ, BZX and CXY exist, but the pedal
        # triangle is collinear within tolerance, which the step's circle
        # test reports
        thin = (0.0, 0.0, 1.0, 0.0, 0.5, 3e-4)
        cx, cy, r = circumcircle(*thin)
        p = (cx + r * (1 + 1.01 * CIRCUMCIRCLE_BAND), cy)
        triad = family_member(thin, *p, 0.0)
        miquel_point(thin, triad)
        with pytest.raises(CollinearError):
            side_lengths_xy(*triad)
        message = "^step 0 degenerated: the three points are collinear within tolerance$"
        with pytest.raises(DegenerateStepError, match=message) as info:
            iterate_chain(measures_xy(thin), *p, 1)
        assert isinstance(info.value.__cause__, CollinearError)

    def test_miquel_point_fixed_along_chain(self):
        p = (1.4, 0.9)
        rec = iterate_chain(measures_xy(TSCA), *p, 5)
        for host, step in zip(_triangles(rec), rec.steps):
            point = miquel_point(host, family_member(host, *p, 0.0)).point
            assert math.dist(point, p) < 1e-8 * _radius(step)

    def test_chain_leaving_the_coordinate_range_degenerates(self):
        # each step at theta = 1.57 stretches the triangle about 1256 times;
        # the fourth step triangle is past 1e50, where the Brocard weights of
        # later steps would overflow
        t = (0.0, 0.0, 4e40, 0.0, 1e40, 3e40)
        p = (2e40, 1e40)
        assert len(iterate_chain(measures_xy(t), *p, 3, [1.57] * 3).steps) == 3
        with pytest.raises(DegenerateStepError, match="step 3 degenerated: .* out of range"):
            iterate_chain(measures_xy(t), *p, 12, [1.57] * 12)

    def test_chain_shrinking_below_the_coordinate_range_degenerates(self):
        # the medial chain halves the sides; step 4's longest side is
        # sqrt(3)·1e-49 / 32 < 1e-50
        tiny = tuple([c * 1e-49 for c in EQUI])
        assert len(iterate_chain(measures_xy(tiny), 0.0, 0.0, 4).steps) == 4
        with pytest.raises(DegenerateStepError, match="step 4 degenerated: .* out of range"):
            iterate_chain(measures_xy(tiny), 0.0, 0.0, 5)

    def test_bad_schedule_length_rejected(self):
        with pytest.raises(ValueError):
            iterate_chain(measures_xy(TSCA), 1.4, 0.9, 3, thetas=[0.1, 0.2])

    def test_step_cap(self):
        assert MAX_CHAIN_STEPS == 12
        rec = iterate_chain(measures_xy(TSCA), 1.4, 0.9, 12)
        assert len(rec.steps) == 12
        with pytest.raises(ValueError, match="cap of 12 steps"):
            iterate_chain(measures_xy(TSCA), 1.4, 0.9, 13)


class TestMod3Similarity:
    def test_classes_partition(self):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 6)
        assert check_mod3_similarity(rec) < CHAIN_SIMILARITY_TOL

    def test_brocard_chain_everything_similar(self):
        p = _locate(TSCA, SpecialRole("first_brocard"))
        rec = iterate_chain(measures_xy(TSCA), *p, 6)
        tris = _triangles(rec)
        for i in range(len(tris) - 1):
            assert classify_similarity(tris[i], tris[i + 1], CHAIN_SIMILARITY_TOL) is not None

    def test_circumcenter_chain_merges_first_two_classes(self):
        # the pedal triangle of the circumcenter is the medial triangle,
        # so classes k=0 and k=1 coincide
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 6)
        tris = _triangles(rec)
        assert classify_similarity(tris[0], tris[1], CHAIN_SIMILARITY_TOL) is not None

    def test_generic_point_classes_distinct(self):
        rec = iterate_chain(measures_xy(TSCA), 1.31, 0.87, 9)
        assert check_mod3_similarity(rec) < CHAIN_SIMILARITY_TOL
        tris = _triangles(rec)
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                if (j - i) % 3:
                    assert classify_similarity(tris[i], tris[j], CHAIN_SIMILARITY_TOL) is None

    def test_theta_schedule_invariance(self):
        rng = rng_for(0, "chains", 1)
        for _ in range(10):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            thetas = [rng.uniform(-math.pi / 3, math.pi / 3) for _ in range(6)]
            gap = check_mod3_similarity(iterate_chain(measures_xy(t), *p, 6, thetas=thetas))
            assert gap < CHAIN_SIMILARITY_TOL

    @pytest.mark.parametrize(
        "swap",
        [
            lambda ax, ay, bx, by, cx, cy: (ax, -ay, bx, -by, cx, -cy),  # mirrored
            lambda ax, ay, bx, by, cx, cy: (bx, by, cx, cy, ax, ay),  # relabeled cyclically
        ],
        ids=["mirrored", "relabeled"],
    )
    def test_similar_but_not_vertex_for_vertex_fails(self, swap):
        rec = iterate_chain(measures_xy(TSCA), 1.31, 0.87, 9)
        bad = swap(*rec.steps[2])
        # a search over every vertex map and orientation accepts the swap
        assert classify_similarity(rec.seed.xy, bad, CHAIN_SIMILARITY_TOL) is not None
        steps = (*rec.steps[:2], bad, *rec.steps[3:])
        bad_rec = ChainRecord(rec.seed, rec.point, steps, rec.circles)
        assert check_mod3_similarity(bad_rec) >= CHAIN_SIMILARITY_TOL

    def test_needs_four_triangles(self):
        with pytest.raises(ValueError):
            check_mod3_similarity(iterate_chain(measures_xy(TSCA), 1.31, 0.87, 2))


class TestSeedCorrespondences:
    @pytest.mark.parametrize(
        "swap",
        [
            lambda ax, ay, bx, by, cx, cy: (ax, -ay, bx, -by, cx, -cy),  # mirrored
            lambda ax, ay, bx, by, cx, cy: (bx, by, cx, cy, ax, ay),  # relabeled cyclically
        ],
        ids=["mirrored", "relabeled"],
    )
    def test_similar_but_not_the_pinned_correspondence_fails(self, monkeypatch, swap):
        # triangle 3 of every chain is checked against the seed vertex for
        # vertex, direct; a search over every vertex map and orientation
        # accepts the swapped triangle
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 6)
        bad = swap(*rec.steps[2])
        assert classify_similarity(rec.seed.xy, bad, CHAIN_SIMILARITY_TOL) is not None

        def swapped(seed, px, py, k, thetas=None):
            rec = iterate_chain(seed, px, py, k, thetas)
            if k < 3:  # the generic claim's chain has no triangle 3
                return rec
            steps = (*rec.steps[:2], swap(*rec.steps[2]), *rec.steps[3:])
            return ChainRecord(rec.seed, rec.point, steps, rec.circles)

        assert run_suite("theorem15", 7, 3).passed
        monkeypatch.setattr(miquel.verify, "iterate_chain", swapped)
        claims = {c.name: c for c in run_suite("theorem15", 7, 3).claims}
        for name in (
            "brocard-all-similar",
            "seed-similar-steps-0-1-mod3",
            "seed-similar-steps-2-0-mod3",
        ):
            assert not claims[name].passed, name


class TestRoleCycles:
    def test_circumcenter_cycle(self):
        roles = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 4).roles
        names = [r.role for r in roles]
        assert names == ["circumcenter", "orthocenter", "incenter", "circumcenter", "orthocenter"]
        assert follows_role_cycle(roles)
        assert not follows_role_cycle([roles[0], roles[2], roles[1]])
        assert not follows_role_cycle([*roles[:2], SpecialRole("none")])

    def test_symmedian_point_cycle(self):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, SpecialRole("s_role", "A")), 4)
        roles = rec.roles
        assert [r.role for r in roles] == ["s_role", "m_role", "q_role", "s_role", "m_role"]
        assert all(r.vertex == "A" for r in roles)

    def test_brocard_fixed_role(self):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, SpecialRole("first_brocard")), 4)
        assert all(r.role == "first_brocard" for r in rec.roles)
        rec2 = iterate_chain(measures_xy(TSCA), *_locate(TSCA, SpecialRole("second_brocard")), 4)
        assert all(r.role == "second_brocard" for r in rec2.roles)

    def test_orthocenter_seed_includes_excenter_leg(self):
        tob = (0.0, 0.0, 4.0, 0.0, 1.6, 0.9)
        rec = iterate_chain(measures_xy(tob), *_locate(tob, H), 5)
        names = [r.role for r in rec.roles]
        assert names[0] == "orthocenter"
        assert names[1] in ("incenter", "excenter")
        assert names[2] == "circumcenter"
        assert follows_role_cycle(rec.roles)

    def test_incenter_seed(self):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, L), 4)
        names = [r.role for r in rec.roles]
        assert names == ["incenter", "circumcenter", "orthocenter", "incenter", "circumcenter"]

    def test_role_positions_track_detected_centers(self):
        rng = rng_for(0, "chains", 2)
        for _ in range(10):
            t = random_triangle(rng)
            o = _locate(t, O)
            rec = iterate_chain(measures_xy(t), *o, 6)
            expect = {"circumcenter", "orthocenter", "incenter", "excenter"}
            for step, role in zip(rec.steps, rec.roles[1:]):
                assert role.role in expect
                assert math.dist(_locate(step, role), o) < 1e-6 * _radius(step)


class TestLazyRoles:
    @pytest.fixture
    def detect_calls(self, monkeypatch):
        calls = []

        def counted(m, px, py, tol):
            calls.append(tol)
            return detect_special_role(m, px, py, tol)

        monkeypatch.setattr(miquel.chains, "detect_special_role", counted)
        return calls

    def test_unread_roles_cost_no_detection(self, detect_calls):
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), 6)
        check_mod3_similarity(rec)
        assert len(_triangles(rec)) == 7
        assert detect_calls == []

    def test_roles_detected_on_each_read(self, detect_calls):
        k = 5
        rec = iterate_chain(measures_xy(TSCA), *_locate(TSCA, O), k)
        assert detect_calls == []
        first = rec.roles
        assert len(first) == k + 1
        assert len(detect_calls) == k + 1
        assert all(tol == CHAIN_DETECT_TOL for tol in detect_calls)
        # not cached: a second read detects all k + 1 again, to the same roles
        assert rec.roles == first
        assert len(detect_calls) == 2 * (k + 1)
        assert all(tol == CHAIN_DETECT_TOL for tol in detect_calls)

    def test_lazy_roles_match_explicit_detection(self):
        for p in (_locate(TSCA, O), _locate(TSCA, SpecialRole("s_role", "A")), (1.31, 0.87)):
            rec = iterate_chain(measures_xy(TSCA), *p, 4)
            expect = [detect_special_role(measures_xy(t), *p, CHAIN_DETECT_TOL)
                      for t in _triangles(rec)]
            assert list(rec.roles) == expect

    def test_roles_measure_each_step_once_and_the_seed_never(self, monkeypatch):
        # the seed's role is detected on the Measures the chain was given;
        # k + 1 roles take k fresh measures, one per step on its kept circle
        measured, detected = [], []

        def measuring(xy, circle=None):
            measured.append((xy, circle))
            return measures_xy(xy, circle)

        def detecting(m, px, py, tol):
            detected.append(m)
            return detect_special_role(m, px, py, tol)

        monkeypatch.setattr(miquel.chains, "measures_xy", measuring)
        monkeypatch.setattr(miquel.chains, "detect_special_role", detecting)
        k = 5
        m = measures_xy(TSCA)
        rec = iterate_chain(m, *_locate(TSCA, O), k)
        assert rec.seed is m and measured == []
        assert len(rec.roles) == k + 1
        assert measured == list(zip(rec.steps, rec.circles[1:]))
        assert detected[0] is m and len(detected) == k + 1


class TestLazySteps:
    """Chains build no ``Triangle``: the record keeps its seed and steps as
    coordinates, and reading them or their roles builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts Triangle constructions."""
        calls = []
        init = Triangle.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Triangle, "__init__", counted)
        return calls

    @pytest.mark.parametrize("thetas", [None, (0.3, -0.5, 0.7, 0.1, -0.9, 0.4, 0.2, -0.6, 0.8)])
    def test_unread_chain_builds_no_step_triangle(self, built, thetas):
        rec = iterate_chain(measures_xy(TSCA), 1.31, 0.87, 9, thetas)
        check_mod3_similarity(rec)
        steps = rec.steps
        assert len(steps) == 9
        assert all(len(s) == 6 and all(type(c) is float for c in s) for s in steps)
        assert rec.seed.xy == TSCA and rec.point == (1.31, 0.87)
        assert built == []

    def test_roles_are_detected_without_step_triangles(self, built):
        for p in (_locate(TSCA, O), _locate(TSCA, SpecialRole("s_role", "A")), (1.31, 0.87)):
            rec = iterate_chain(measures_xy(TSCA), *p, 6)
            assert len(rec.roles) == 7
        assert built == []

    @pytest.mark.parametrize("suite", ["theorem15", "corollary4"])
    def test_chain_suites_build_no_triangle(self, built, suite):
        # the seeds come from sampling as coordinates, and every chain step
        # and every detection stays on them
        assert run_suite(suite, 7, 6).passed
        assert built == []

    def test_step_circumcircles_are_the_ones_the_chain_used(self, monkeypatch):
        used = []
        real = miquel.chains.on_circle_xy

        def recording(circle, px, py):
            used.append(circle)
            return real(circle, px, py)

        monkeypatch.setattr(miquel.chains, "on_circle_xy", recording)
        k = 6
        rec = iterate_chain(measures_xy(TSCA), 1.31, 0.87, k, [0.2, -0.4, 0.1, 0.5, -0.3, 0.0])
        # the hosts of the k steps: the seed, then step triangles 0 to k-2
        assert [circumcircle(*t) for t in _triangles(rec)[:-1]] == used


def test_kept_circles_are_the_circumcircles_and_roles_read_them():
    """Over 480 chains, pedal and rotated: the record keeps the seed's
    measures, whose circle is the seed's ``circumcircle``, and each step's
    ``circle_xy``, and the roles it detects on them are detection on each
    triangle measured afresh."""
    rng = rng_for(0, "chains", 3)
    chains, names = 0, set()
    for i in range(60):
        t = random_triangle(rng, min_angle=0.35, right_gap=0.1)
        m = measures_xy(t)
        points = (_locate(t, O), _locate(t, SpecialRole("s_role", "ABC"[i % 3])),
                  _locate(t, SpecialRole("first_brocard")), random_interior_point(rng, t))
        for p in points:
            for thetas in (None, [rng.uniform(-math.pi / 3, math.pi / 3) for _ in range(6)]):
                rec = iterate_chain(m, *p, 6, thetas)
                assert len(rec.circles) == 7
                assert rec.seed is m and rec.circles[0] == circumcircle(*m.xy)
                for k in range(1, 7):
                    assert rec.circles[k] == circle_xy(*rec.steps[k - 1])
                fresh = [detect_special_role(measures_xy(xy), *p, CHAIN_DETECT_TOL)
                         for xy in _triangles(rec)]
                assert list(rec.roles) == fresh
                names.update(r.role for r in fresh)
                chains += 1
    assert chains == 480
    assert names >= {"circumcenter", "orthocenter", "incenter", "first_brocard",
                     "s_role", "m_role", "q_role", "none"}


# ---------------------------------------------------------------- exact oracle
#
# Chains on Fraction coordinates. A family step is rational when tan θ is: it
# puts each new vertex at P + (F − P)·(1 + i·tan θ), where F is the foot of the
# perpendicular from P on the opposite side (tan θ = 0 is the pedal step).


def _exact_step(tri, p, tan):
    px, py = p
    new = []
    for v in range(3):
        (ux, uy), (wx, wy) = tri[(v + 1) % 3], tri[(v + 2) % 3]
        dx, dy = wx - ux, wy - uy
        s = ((px - ux) * dx + (py - uy) * dy) / (dx * dx + dy * dy)
        fx, fy = ux + s * dx - px, uy + s * dy - py
        new.append((px + fx - tan * fy, py + fy + tan * fx))
    return tuple(new)


def _exact_chain(tri, p, tans):
    tris = [tri]
    for tan in tans:
        tris.append(_exact_step(tris[-1], p, tan))
    return tris


def _exact_ratio(tri, order=(0, 1, 2)):
    """The shape ratio (B − A)/(C − A) as (real, imaginary), reading the
    triangle's vertices in ``order``, as ``kernel.shape_ratio`` does."""
    a, b, c = (tri[i] for i in order)
    ux, uy, wx, wy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
    n = wx * wx + wy * wy
    return (ux * wx + uy * wy) / n, (uy * wx - ux * wy) / n


def _squared_sides(tri):
    return tuple(
        (tri[i][0] - tri[j][0]) ** 2 + (tri[i][1] - tri[j][1]) ** 2
        for i, j in ((1, 2), (2, 0), (0, 1))
    )


def _barycentric(tri, weights):
    total = sum(weights)
    return tuple(sum(w * v[axis] for w, v in zip(weights, tri)) / total for axis in (0, 1))


def _named_points(tri):
    """O, H, Ω₁, Ω₂, S_v and M_v, whose barycentrics are polynomials in the
    squared sides, with the role the library locates each as."""
    a2, b2, c2 = _squared_sides(tri)
    sa, sb, sc = b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2
    weights = {
        "O": ((a2 * sa, b2 * sb, c2 * sc), O),
        "H": ((sb * sc, sc * sa, sa * sb), H),
        "Ω₁": ((c2 * a2, a2 * b2, b2 * c2), SpecialRole("first_brocard")),
        "Ω₂": ((a2 * b2, b2 * c2, c2 * a2), SpecialRole("second_brocard")),
        "S_A": ((sa, b2, c2), SpecialRole("s_role", "A")),
        "S_B": ((a2, sb, c2), SpecialRole("s_role", "B")),
        "S_C": ((a2, b2, sc), SpecialRole("s_role", "C")),
        "M_A": ((a2, sa, sa), SpecialRole("m_role", "A")),
        "M_B": ((sb, b2, sb), SpecialRole("m_role", "B")),
        "M_C": ((sc, sc, c2), SpecialRole("m_role", "C")),
    }
    return {name: (_barycentric(tri, w), role) for name, (w, role) in weights.items()}


def _rational_hosts(n):
    """Scalene, non-right integer triangles with no angle below ~0.25 rad."""
    rng = random.Random("exact-chain-hosts")
    hosts = []
    while len(hosts) < n:
        tri = tuple((Fraction(rng.randint(-12, 12)), Fraction(rng.randint(-12, 12))) for _ in "ABC")
        a2, b2, c2 = sq = _squared_sides(tri)
        (ax, ay), (bx, by), (cx, cy) = tri
        area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        scalene = len(set(sq)) == 3
        right = 0 in (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
        if scalene and not right and abs(area2) > max(sq) / 4:
            hosts.append(tri)
    return hosts


HOSTS = _rational_hosts(12)


def _float_triangle(tri):
    return tuple([float(c) for vertex in tri for c in vertex])


def _close(tri, t, tol):
    """Every exact vertex of ``tri`` within ``tol`` times the circumradius of
    the float triangle ``t`` of its vertex."""
    r = _radius(t)
    return all(
        math.hypot(float(x) - t[k], float(y) - t[k + 1]) < tol * r
        for (x, y), k in zip(tri, (0, 2, 4))
    )


class TestExactCorrespondences:
    @pytest.mark.parametrize("schedule", ["pedal", "rotated"])
    def test_mod3_shape_ratios_equal(self, schedule):
        rng = random.Random(f"exact-chain-{schedule}")
        for host in HOSTS:
            p = _barycentric(host, [Fraction(rng.randint(1, 9)) for _ in "ABC"])
            tans = [Fraction(0)] * 9
            if schedule == "rotated":
                tans = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in tans]
            tris = _exact_chain(host, p, tans)
            ratios = [_exact_ratio(tri) for tri in tris]
            for i in range(len(tris)):
                for j in range(i + 3, len(tris), 3):
                    assert ratios[j] == ratios[i]
            # the oracle runs the library's chain: same labels, same rotation sense
            rec = iterate_chain(
                measures_xy(_float_triangle(host)),
                float(p[0]),
                float(p[1]),
                9,
                thetas=[math.atan(tan) for tan in tans],
            )
            assert all(_close(tri, t, 1e-9) for tri, t in zip(tris, _triangles(rec)))
            assert check_mod3_similarity(rec) < CHAIN_SIMILARITY_TOL

    def test_family_member_is_the_exact_step(self):
        # one float step at theta = atan(q) against the exact step at tan θ = q
        rng = random.Random("exact-family-step")
        for host in HOSTS:
            t = _float_triangle(host)
            for _ in range(5):
                p = _barycentric(host, [Fraction(rng.randint(1, 9)) for _ in "ABC"])
                q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                triad = family_member(t, float(p[0]), float(p[1]), math.atan(q))
                assert _close(_exact_step(host, p, q), triad, 1e-13)

    def test_seed_correspondences(self):
        for host in HOSTS:
            seed_ratio = _exact_ratio(host)
            mirrored_ratio = (seed_ratio[0], -seed_ratio[1])
            for name, (p, role) in _named_points(host).items():
                t = _float_triangle(host)
                assert math.dist(_locate(t, role), (float(p[0]), float(p[1]))) < 1e-10 * _radius(t)
                tris = _exact_chain(host, p, [Fraction(0)] * 6)
                for k in range(1, 7):
                    if k % 3 not in SEED_CORRESPONDENCES[name]:
                        continue
                    order, mirrored = SEED_CORRESPONDENCES[name][k % 3]
                    expect = mirrored_ratio if mirrored else seed_ratio
                    assert _exact_ratio(tris[k], order) == expect, (name, k)


# ------------------------------------------------- the pedal correspondences
#
# On the integer hosts O, Ω₁, Ω₂ and S_v are rational, and so are their
# circumcircle inverses and the pedal triangles of all of them. theorem3 and
# theorem4 check these correspondences on floats; here they hold exactly.


def _exact_inverse(tri, p):
    """The inverse of ``p`` in the circumcircle of ``tri``."""
    (ox, oy), _ = _named_points(tri)["O"]
    (ax, ay), (px, py) = tri[0], p
    s = ((ax - ox) ** 2 + (ay - oy) ** 2) / ((px - ox) ** 2 + (py - oy) ** 2)
    return ox + s * (px - ox), oy + s * (py - oy)


def _exact_pedal(tri, p):
    """The feet of ``p`` on BC, CA and AB: X, Y, Z."""
    return _exact_step(tri, p, Fraction(0))


def _catalog_table(host):
    """The catalog's recorded (order, mirrored) for each (role, inverse)."""
    return {
        (e.kind, e.inverse): (e.order, e.mirrored)
        for e in eleven_point_catalog(measures_xy(_float_triangle(host)))
    }


_CATALOG_NAMES = {"circumcenter": "O", "first_brocard": "Ω₁", "second_brocard": "Ω₂"}


def _catalog_pin_failures(table):
    """The (role, inverse) keys of ``table`` whose exact pedal shape ratio,
    under the recorded order, is not the host's ratio (its conjugate
    when mirrored) on some host."""
    failures = set()
    for host in HOSTS:
        re, im = _exact_ratio(host)
        points = _named_points(host)
        for (role, inverse), (order, mirrored) in table.items():
            p, _ = points[_CATALOG_NAMES.get(role.role) or f"S_{role.vertex}"]
            if inverse:
                p = _exact_inverse(host, p)
            if _exact_ratio(_exact_pedal(host, p), order) != ((re, -im) if mirrored else (re, im)):
                failures.add((role, inverse))
    return failures


class TestExactPedalCorrespondences:
    def test_catalog_locations(self):
        for host in HOSTS:
            t = _float_triangle(host)
            points = _named_points(host)
            for e in eleven_point_catalog(measures_xy(t)):
                p, _ = points[_CATALOG_NAMES.get(e.kind.role) or f"S_{e.kind.vertex}"]
                if e.inverse:
                    p = _exact_inverse(host, p)
                assert math.dist(e.location, (float(p[0]), float(p[1]))) < 1e-9 * _radius(t)

    def test_catalog_correspondences(self):
        table = _catalog_table(HOSTS[0])
        assert all(_catalog_table(host) == table for host in HOSTS)
        assert len(table) == 11
        assert _catalog_pin_failures(table) == set()
        # direct for O, Ω₁ and Ω₂, mirrored for S_v, flipped for every inverse
        for (role, inverse), (_, mirrored) in table.items():
            assert mirrored == ((role.role == "s_role") != inverse)

    def test_flipped_mirrored_flag_fails(self):
        table = _catalog_table(HOSTS[0])
        for key, (order, mirrored) in table.items():
            assert _catalog_pin_failures({**table, key: (order, not mirrored)}) == {key}

    def test_inverse_points_have_mirrored_pedal_triangles(self):
        rng = random.Random("exact-inverse-pedals")
        for host in HOSTS:
            (ox, oy), _ = _named_points(host)["O"]
            r2 = (host[0][0] - ox) ** 2 + (host[0][1] - oy) ** 2
            for _ in range(10):
                p = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 4)) for _ in "xy")
                if (p[0] - ox) ** 2 + (p[1] - oy) ** 2 in (0, r2):
                    continue  # the center has no inverse; a circle point collapses
                re, im = _exact_ratio(_exact_pedal(host, p))
                assert _exact_ratio(_exact_pedal(host, _exact_inverse(host, p))) == (re, -im)
