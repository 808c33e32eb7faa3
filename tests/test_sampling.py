"""Seeded generators: determinism and the constraints they promise."""

import math

import pytest

from miquel.centers import SpecialRole, is_scalene, locate
from miquel.errors import CollinearError
from miquel.kernel import HALF_PI, LENGTH_EPS, Point, contains_xy, triangle_of
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
    triangle_from_angles,
)


def test_rng_for_is_reproducible_and_keyed():
    assert rng_for(7, "x", 3).random() == rng_for(7, "x", 3).random()
    assert rng_for(7, "x", 3).random() != rng_for(7, "x", 4).random()
    assert rng_for(7, "x", 3).random() != rng_for(8, "x", 3).random()


def test_random_triangle_margins():
    rng = rng_for(0, "sampling", 0)
    for _ in range(100):
        t = triangle_of(random_triangle(rng))
        assert min(t.angles) > 0.30 - 1e-12
        assert all(abs(a - HALF_PI) > 0.05 - 1e-12 for a in t.angles)
        assert is_scalene(t)


def test_catalog_triangle_constraints():
    rng = rng_for(0, "sampling", 1)
    for _ in range(50):
        t = triangle_of(random_catalog_triangle(rng))
        a, b, c = t.angles
        gaps = (abs(a - b), abs(b - c), abs(c - a))
        assert min(gaps) > math.radians(5.0) - 1e-12
        assert all(abs(x - HALF_PI) > math.radians(20.0) - 1e-12 for x in t.angles)


def test_acute_and_obtuse_generators():
    rng = rng_for(0, "sampling", 2)
    for _ in range(50):
        assert max(triangle_of(random_acute_triangle(rng)).angles) < HALF_PI
    for v in "ABC":
        for _ in range(20):
            t = triangle_of(random_obtuse_at(rng, v))
            i = "ABC".index(v)
            assert t.angles[i] > HALF_PI
            assert all(t.angles[j] < HALF_PI for j in range(3) if j != i)


def test_isosceles_generator():
    rng = rng_for(0, "sampling", 3)
    for v in "ABC":
        for _ in range(20):
            t = triangle_of(random_isosceles(rng, v))
            i = "ABC".index(v)
            sides = t.side_lengths
            assert abs(sides[(i + 1) % 3] - sides[(i + 2) % 3]) < LENGTH_EPS * t.circumradius
            assert abs(t.angles[(i + 1) % 3] - t.angles[(i + 2) % 3]) < 1e-12


def _offset_from(circle, p):
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    return math.hypot(cx - p.x, cy - p.y) - r


def test_point_generators_hit_their_regions():
    rng = rng_for(0, "sampling", 4)
    for _ in range(50):
        t = triangle_of(random_triangle(rng))
        r = t.circumradius
        p = Point(*random_interior_point(rng, t.xy))
        assert contains_xy(t.xy, p.x, p.y)
        q = Point(*random_point_in_circumdisk(rng, t.xy, t.circumcircle))
        assert _offset_from(t.circumcircle, q) < 0.0
        x = Point(*random_exterior_point(rng, t.xy, t.circumcircle))
        assert _offset_from(t.circumcircle, x) > 0.0
        s = Point(*random_circumcircle_point(rng, t.xy, t.circumcircle))
        assert abs(_offset_from(t.circumcircle, s)) < 1e-12 * r
        assert min(s.dist(v) for v in t.vertices) > 0.01 * r


def test_arc_point_passes_through_via_side():
    rng = rng_for(0, "sampling", 5)
    from miquel.kernel import circumcircle, line_through, offset_xy

    for _ in range(30):
        t = triangle_of(random_isosceles(rng, "A"))
        l = locate(t, SpecialRole("incenter"))
        arc = circumcircle(*t.b, *t.c, *l)
        p = Point(*random_arc_point(rng, arc, t.c, t.b, l))
        assert abs(_offset_from(arc, p)) < 1e-12 * arc[2]
        # the arc through the incenter stays on the incenter's side of BC
        base = line_through(t.b, t.c)
        assert offset_xy(*base, *p) * offset_xy(*base, *l) > 0.0


def test_hosts_are_checked_as_triangle_checks_them():
    # an angle of 1e-10 at A puts the vertices on one line within tolerance,
    # where Triangle raises; the sampled coordinates raise the same error
    rng = rng_for(0, "sampling", 6)
    with pytest.raises(CollinearError, match="^degenerate triangle: collinear within tolerance$"):
        triangle_from_angles(rng, (1e-10, math.pi / 2, math.pi / 2 - 1e-10))
