"""Seeded generators: determinism and the constraints they promise."""

import math

from miquel.kernel import HALF_PI, LENGTH_EPS, Triangle, triangle_contains
from miquel.sampling import (
    random_acute_triangle,
    random_arc_point,
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


def test_rng_for_is_reproducible_and_keyed():
    assert rng_for(7, "x", 3).random() == rng_for(7, "x", 3).random()
    assert rng_for(7, "x", 3).random() != rng_for(7, "x", 4).random()
    assert rng_for(7, "x", 3).random() != rng_for(8, "x", 3).random()


def test_random_triangle_margins():
    rng = rng_for(0, "sampling", 0)
    for _ in range(100):
        t = random_triangle(rng)
        assert min(t.angles) > 0.30 - 1e-12
        assert all(abs(a - HALF_PI) > 0.05 - 1e-12 for a in t.angles)
        assert t.is_scalene()


def test_catalog_triangle_constraints():
    rng = rng_for(0, "sampling", 1)
    for _ in range(50):
        t = random_catalog_triangle(rng)
        a, b, c = t.angles
        gaps = (abs(a - b), abs(b - c), abs(c - a))
        assert min(gaps) > math.radians(5.0) - 1e-12
        assert all(abs(x - HALF_PI) > math.radians(20.0) - 1e-12 for x in t.angles)


def test_acute_and_obtuse_generators():
    rng = rng_for(0, "sampling", 2)
    for _ in range(50):
        assert max(random_acute_triangle(rng).angles) < HALF_PI
    for v in "ABC":
        for _ in range(20):
            t = random_obtuse_at(rng, v)
            assert t.angle(v) > HALF_PI
            assert all(t.angle(u) < HALF_PI for u in "ABC" if u != v)


def test_isosceles_generator():
    rng = rng_for(0, "sampling", 3)
    for v in "ABC":
        for _ in range(20):
            t = random_isosceles(rng, v)
            assert t.is_isosceles_at(v, LENGTH_EPS)
            others = [u for u in "ABC" if u != v]
            assert abs(t.angle(others[0]) - t.angle(others[1])) < 1e-12


def _offset_from(circle, p):
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    return math.hypot(cx - p.x, cy - p.y) - r


def test_point_generators_hit_their_regions():
    rng = rng_for(0, "sampling", 4)
    for _ in range(50):
        t = random_triangle(rng)
        r = t.circumradius
        p = random_interior_point(rng, t)
        assert triangle_contains(t, p)
        q = random_point_in_circumdisk(rng, t)
        assert _offset_from(t.circumcircle, q) < 0.0
        x = random_exterior_point(rng, t)
        assert _offset_from(t.circumcircle, x) > 0.0
        s = random_circumcircle_point(rng, t)
        assert abs(_offset_from(t.circumcircle, s)) < 1e-12 * r
        assert min(s.dist(v) for v in t.vertices) > 0.01 * r


def test_arc_point_passes_through_via_side():
    rng = rng_for(0, "sampling", 5)
    from miquel.centers import incenter
    from miquel.kernel import circumcircle, line_through, offset_xy

    for _ in range(30):
        t = random_isosceles(rng, "A")
        l = incenter(t)
        arc = circumcircle(*t.b, *t.c, *l)
        p = random_arc_point(rng, arc, t.c, t.b, l)
        assert abs(_offset_from(arc, p)) < 1e-12 * arc[2]
        # the arc through the incenter stays on the incenter's side of BC
        base = line_through(t.b, t.c)
        assert offset_xy(*base, *p) * offset_xy(*base, *l) > 0.0
