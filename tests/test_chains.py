"""Nested triad chains: mod-3 similarity, role recurrences, degeneracy."""

import math

import pytest

import miquel.chains
from miquel.centers import (
    SpecialRole,
    brocard_point,
    circumcenter,
    incenter,
    orthocenter,
    s_point,
)
from miquel.chains import (
    CHAIN_DETECT_TOL,
    CHAIN_SIMILARITY_TOL,
    MAX_CHAIN_STEPS,
    check_mod3_similarity,
    follows_role_cycle,
    iterate_chain,
)
from miquel.errors import DegenerateStepError, OnSideLineError
from miquel.kernel import Point, Triangle, midpoint
from miquel.sampling import (
    random_circumcircle_point,
    random_interior_point,
    random_triangle,
    rng_for,
)
from miquel.triads import (
    classify_similarity,
    detect_special_role,
    family_member,
    miquel_point,
)

SQ3 = math.sqrt(3.0)
TSCA = Triangle(Point(0, 0), Point(4, 0), Point(1, 3))
EQUI = Triangle(Point(0, 1), Point(-SQ3 / 2, -0.5), Point(SQ3 / 2, -0.5))


class TestIterateChain:
    def test_equilateral_medial_chain(self):
        rec = iterate_chain(EQUI, Point(0, 0), 3)
        for host, step in zip(rec.triangles, rec.steps):
            # the pedal feet of the center are the side midpoints
            for v in "ABC":
                assert step.vertex(v).dist(midpoint(*host.opposite(v))) < 1e-12
        for i in range(3):
            match = classify_similarity(
                rec.triangles[i], rec.triangles[i + 1], CHAIN_SIMILARITY_TOL
            )
            assert match is not None
            assert abs(match.ratio - 0.5) < 1e-12

    def test_scalene_mod3_seed_similarity(self):
        rec = iterate_chain(TSCA, circumcenter(TSCA), 3)
        match = classify_similarity(rec.triangles[0], rec.triangles[3], CHAIN_SIMILARITY_TOL)
        assert match is not None

    def test_circumcircle_point_collapses(self):
        rng = rng_for(0, "chains", 0)
        p = random_circumcircle_point(rng, TSCA)
        with pytest.raises(DegenerateStepError):
            iterate_chain(TSCA, p, 2)

    def test_side_line_point_degenerates(self):
        # the midpoint of BC lies on a side line of the seed
        with pytest.raises(DegenerateStepError, match="step 0") as info:
            iterate_chain(TSCA, midpoint(TSCA.b, TSCA.c), 3)
        assert isinstance(info.value.__cause__, OnSideLineError)

    def test_miquel_point_fixed_along_chain(self):
        p = Point(1.4, 0.9)
        rec = iterate_chain(TSCA, p, 5)
        for host, step in zip(rec.triangles, rec.steps):
            point = miquel_point(host, family_member(host, p, 0.0)).point
            assert point.dist(p) < 1e-8 * step.circumradius

    def test_chain_leaving_the_coordinate_range_degenerates(self):
        # each step at theta = 1.57 stretches the triangle about 1256 times;
        # the fourth step triangle is past 1e50, where the Brocard weights of
        # later steps would overflow
        t = Triangle(Point(0, 0), Point(4e40, 0), Point(1e40, 3e40))
        p = Point(2e40, 1e40)
        assert len(iterate_chain(t, p, 3, [1.57] * 3).steps) == 3
        with pytest.raises(DegenerateStepError, match="step 3 degenerated: .* out of range"):
            iterate_chain(t, p, 12, [1.57] * 12)

    def test_chain_shrinking_below_the_coordinate_range_degenerates(self):
        # the medial chain halves the sides; step 4's longest side is
        # sqrt(3)·1e-49 / 32 < 1e-50
        tiny = Triangle(*(v * 1e-49 for v in EQUI.vertices))
        assert len(iterate_chain(tiny, Point(0, 0), 4).steps) == 4
        with pytest.raises(DegenerateStepError, match="step 4 degenerated: .* out of range"):
            iterate_chain(tiny, Point(0, 0), 5)

    def test_bad_schedule_length_rejected(self):
        with pytest.raises(ValueError):
            iterate_chain(TSCA, Point(1.4, 0.9), 3, thetas=[0.1, 0.2])

    def test_step_cap(self):
        assert MAX_CHAIN_STEPS == 12
        rec = iterate_chain(TSCA, Point(1.4, 0.9), 12)
        assert len(rec.steps) == 12
        with pytest.raises(ValueError, match="cap of 12 steps"):
            iterate_chain(TSCA, Point(1.4, 0.9), 13)


class TestMod3Similarity:
    def test_classes_partition(self):
        rec = iterate_chain(TSCA, circumcenter(TSCA), 6)
        ok, worst = check_mod3_similarity(rec)
        assert ok
        assert worst < 1e-6

    def test_brocard_chain_everything_similar(self):
        p = brocard_point(TSCA, "first")
        rec = iterate_chain(TSCA, p, 6)
        tris = rec.triangles
        for i in range(len(tris) - 1):
            assert classify_similarity(tris[i], tris[i + 1], CHAIN_SIMILARITY_TOL) is not None

    def test_circumcenter_chain_merges_first_two_classes(self):
        # the pedal triangle of the circumcenter is the medial triangle,
        # so classes k=0 and k=1 coincide
        rec = iterate_chain(TSCA, circumcenter(TSCA), 6)
        tris = rec.triangles
        assert classify_similarity(tris[0], tris[1], CHAIN_SIMILARITY_TOL) is not None

    def test_generic_point_classes_distinct(self):
        rec = iterate_chain(TSCA, Point(1.31, 0.87), 9)
        assert check_mod3_similarity(rec)[0]
        tris = rec.triangles
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
            assert check_mod3_similarity(iterate_chain(t, p, 6, thetas=thetas))[0]

    def test_only_same_class_pairs_classified(self, monkeypatch):
        tols = []

        def counted(t1, t2, tol):
            tols.append(tol)
            return classify_similarity(t1, t2, tol)

        monkeypatch.setattr(miquel.chains, "classify_similarity", counted)
        check_mod3_similarity(iterate_chain(TSCA, Point(1.31, 0.87), 9))
        # of the 45 index pairs of ten triangles, 12 differ by a multiple of 3
        assert len(tols) == 12
        assert all(tol == CHAIN_SIMILARITY_TOL for tol in tols)

    def test_needs_four_triangles(self):
        with pytest.raises(ValueError):
            check_mod3_similarity(iterate_chain(TSCA, Point(1.31, 0.87), 2))


class TestRoleCycles:
    def test_circumcenter_cycle(self):
        roles = iterate_chain(TSCA, circumcenter(TSCA), 4).roles
        names = [r.role for r in roles]
        assert names == ["circumcenter", "orthocenter", "incenter", "circumcenter", "orthocenter"]
        assert follows_role_cycle(roles)
        assert not follows_role_cycle([roles[0], roles[2], roles[1]])
        assert not follows_role_cycle([*roles[:2], SpecialRole("none")])

    def test_symmedian_point_cycle(self):
        rec = iterate_chain(TSCA, s_point(TSCA, "A"), 4)
        roles = rec.roles
        assert [r.role for r in roles] == ["s_role", "m_role", "q_role", "s_role", "m_role"]
        assert all(r.vertex == "A" for r in roles)

    def test_brocard_fixed_role(self):
        rec = iterate_chain(TSCA, brocard_point(TSCA, "first"), 4)
        assert all(r.role == "first_brocard" for r in rec.roles)
        rec2 = iterate_chain(TSCA, brocard_point(TSCA, "second"), 4)
        assert all(r.role == "second_brocard" for r in rec2.roles)

    def test_orthocenter_seed_includes_excenter_leg(self):
        tob = Triangle(Point(0, 0), Point(4, 0), Point(1.6, 0.9))
        rec = iterate_chain(tob, orthocenter(tob), 5)
        names = [r.role for r in rec.roles]
        assert names[0] == "orthocenter"
        assert names[1] in ("incenter", "excenter")
        assert names[2] == "circumcenter"
        assert follows_role_cycle(rec.roles)

    def test_incenter_seed(self):
        rec = iterate_chain(TSCA, incenter(TSCA), 4)
        names = [r.role for r in rec.roles]
        assert names == ["incenter", "circumcenter", "orthocenter", "incenter", "circumcenter"]

    def test_role_positions_track_detected_centers(self):
        rng = rng_for(0, "chains", 2)
        for _ in range(10):
            t = random_triangle(rng)
            o = circumcenter(t)
            rec = iterate_chain(t, o, 6)
            from miquel.centers import locate

            expect = {"circumcenter", "orthocenter", "incenter", "excenter"}
            for step, role in zip(rec.steps, rec.roles[1:]):
                assert role.role in expect
                assert locate(step, role).dist(o) < 1e-6 * step.circumradius


class TestLazyRoles:
    @pytest.fixture
    def detect_calls(self, monkeypatch):
        calls = []

        def counted(t, p, tol):
            calls.append(tol)
            return detect_special_role(t, p, tol)

        monkeypatch.setattr(miquel.chains, "detect_special_role", counted)
        return calls

    def test_unread_roles_cost_no_detection(self, detect_calls):
        rec = iterate_chain(TSCA, circumcenter(TSCA), 6)
        check_mod3_similarity(rec)
        assert len(rec.triangles) == 7
        assert detect_calls == []

    def test_roles_detected_once_on_first_read(self, detect_calls):
        k = 5
        rec = iterate_chain(TSCA, circumcenter(TSCA), k)
        assert detect_calls == []
        first = rec.roles
        assert len(first) == k + 1
        assert len(detect_calls) == k + 1
        assert all(tol == CHAIN_DETECT_TOL for tol in detect_calls)
        assert rec.roles is first
        assert len(detect_calls) == k + 1

    def test_lazy_roles_match_explicit_detection(self):
        for p in (circumcenter(TSCA), s_point(TSCA, "A"), Point(1.31, 0.87)):
            rec = iterate_chain(TSCA, p, 4)
            expect = [detect_special_role(t, p, CHAIN_DETECT_TOL) for t in rec.triangles]
            assert list(rec.roles) == expect
