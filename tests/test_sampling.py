"""Seeded generators: determinism and the constraints they promise."""

import math
import random

import pytest

from miquel import sampling
from miquel.centers import SpecialRole, is_scalene, locate_xy, measures_xy
from miquel.errors import CollinearError
from miquel.kernel import (HALF_PI, LENGTH_EPS, circumcircle, contains_xy,
                           min_side_line_distance_xy)
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
        t = measures_xy(random_triangle(rng))
        assert min(t.angles) > 0.30 - 1e-12
        assert all(abs(a - HALF_PI) > 0.05 - 1e-12 for a in t.angles)
        assert is_scalene(t)


def test_catalog_triangle_constraints():
    rng = rng_for(0, "sampling", 1)
    for _ in range(50):
        t = measures_xy(random_catalog_triangle(rng))
        a, b, c = t.angles
        gaps = (abs(a - b), abs(b - c), abs(c - a))
        assert min(gaps) > math.radians(5.0) - 1e-12
        assert all(abs(x - HALF_PI) > math.radians(20.0) - 1e-12 for x in t.angles)


def test_acute_and_obtuse_generators():
    rng = rng_for(0, "sampling", 2)
    for _ in range(50):
        assert max(measures_xy(random_acute_triangle(rng)).angles) < HALF_PI
    for v in "ABC":
        for _ in range(20):
            t = measures_xy(random_obtuse_at(rng, v))
            i = "ABC".index(v)
            assert t.angles[i] > HALF_PI
            assert all(t.angles[j] < HALF_PI for j in range(3) if j != i)


def test_isosceles_generator():
    rng = rng_for(0, "sampling", 3)
    for v in "ABC":
        for _ in range(20):
            t = measures_xy(random_isosceles(rng, v))
            i = "ABC".index(v)
            sides = t.side_lengths
            assert abs(sides[(i + 1) % 3] - sides[(i + 2) % 3]) < LENGTH_EPS * t.circumradius
            assert abs(t.angles[(i + 1) % 3] - t.angles[(i + 2) % 3]) < 1e-12


def _offset_from(circle, p):
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    px, py = p
    return math.hypot(cx - px, cy - py) - r


def test_point_generators_hit_their_regions():
    rng = rng_for(0, "sampling", 4)
    for _ in range(50):
        t = random_triangle(rng)
        circle = circumcircle(*t)
        r = circle[2]
        p = random_interior_point(rng, t)
        assert contains_xy(t, *p)
        q = random_point_in_circumdisk(rng, t, circle)
        assert _offset_from(circle, q) < 0.0
        x = random_exterior_point(rng, t, circle)
        assert _offset_from(circle, x) > 0.0
        s = random_circumcircle_point(rng, t, circle)
        assert abs(_offset_from(circle, s)) < 1e-12 * r
        assert min(math.dist(s, t[k:k + 2]) for k in (0, 2, 4)) > 0.01 * r


def test_arc_point_passes_through_via_side():
    rng = rng_for(0, "sampling", 5)
    from miquel.kernel import circumcircle, line_through, offset_xy

    for _ in range(30):
        t = random_isosceles(rng, "A")
        b, c = t[2:4], t[4:6]
        l = locate_xy(measures_xy(t), SpecialRole("incenter"))
        arc = circumcircle(*b, *c, *l)
        p = random_arc_point(rng, arc, c, b, l)
        assert abs(_offset_from(arc, p)) < 1e-12 * arc[2]
        # the arc through the incenter stays on the incenter's side of BC
        base = line_through(b, c)
        assert offset_xy(*base, *p) * offset_xy(*base, *l) > 0.0


def test_hosts_are_checked_as_triangle_checks_them():
    # an angle of 1e-10 at A puts the vertices on one line within tolerance,
    # where Triangle raises; the sampled coordinates raise the same error
    rng = rng_for(0, "sampling", 6)
    with pytest.raises(CollinearError, match="^degenerate triangle: collinear within tolerance$"):
        triangle_from_angles(rng, (1e-10, math.pi / 2, math.pi / 2 - 1e-10))


# ---------------------------------------------------------------- draws against rng.uniform
#
# The samplers draw with rng.random and write rng.uniform(lo, hi) out as
# lo + (hi - lo) * draw(). The oracles below are the samplers' bodies with
# rng.uniform itself; every sampler must draw the same floats, as many of
# them, from the same generator state.

def _angles_by_uniform(rng, min_angle, pairwise_gap, right_gap):
    for _ in range(1000):
        a = rng.uniform(min_angle, math.pi - 2.0 * min_angle)
        b = rng.uniform(min_angle, math.pi - a - min_angle)
        c = math.pi - a - b
        angles = (a, b, c)
        if min(angles) < min_angle:
            continue
        if pairwise_gap > 0.0 and (
            abs(a - b) < pairwise_gap or abs(b - c) < pairwise_gap or abs(c - a) < pairwise_gap
        ):
            continue
        if right_gap > 0.0 and any(abs(x - HALF_PI) < right_gap for x in angles):
            continue
        return angles
    raise RuntimeError("angle sampling failed to satisfy the constraints")


def _triangle_from_angles_by_uniform(rng, angles):
    a, b, c = angles
    radius = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ox = rng.uniform(-3.0, 3.0)
    oy = rng.uniform(-3.0, 3.0)
    ta, tb = phase, phase + 2.0 * c
    tc = tb + 2.0 * a
    xy = (ox + radius * math.cos(ta), oy + radius * math.sin(ta),
          ox + radius * math.cos(tb), oy + radius * math.sin(tb),
          ox + radius * math.cos(tc), oy + radius * math.sin(tc))
    if rng.random() < 0.5:
        ax, ay, bx, by, cx, cy = xy
        xy = (ax, 2.0 * oy - ay, bx, 2.0 * oy - by, cx, 2.0 * oy - cy)
    return xy


def _point_in_circumdisk_by_uniform(rng, t, circle, line_margin=0.02, radial_margin=0.03):
    ox, oy, radius = circle
    while True:
        r = radius * math.sqrt(rng.random()) * (1.0 - radial_margin)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        px, py = ox + r * math.cos(phi), oy + r * math.sin(phi)
        if min_side_line_distance_xy(t, px, py) < line_margin * radius:
            continue
        return px, py


def _exterior_point_by_uniform(rng, t, circle, min_factor=1.1, max_factor=5.0):
    ox, oy, radius = circle
    while True:
        r = radius * rng.uniform(min_factor, max_factor)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        px, py = ox + r * math.cos(phi), oy + r * math.sin(phi)
        if min_side_line_distance_xy(t, px, py) < 0.02 * radius:
            continue
        return px, py


class _CountingRandom(random.Random):
    """A generator that counts its draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


# (sampler, oracle), each called with a generator and a host with its
# circumcircle; None for a triangle sampler, whose oracle is itself with
# _angles and triangle_from_angles swapped for the forms above
_SAMPLERS = {
    "random_triangle": (lambda rng, host: random_triangle(rng), None),
    "random_catalog_triangle": (lambda rng, host: random_catalog_triangle(rng), None),
    "random_acute_triangle": (lambda rng, host: random_acute_triangle(rng), None),
    **{f"random_obtuse_at_{v}": (lambda rng, host, v=v: random_obtuse_at(rng, v), None)
       for v in "ABC"},
    **{f"random_isosceles_{v}": (lambda rng, host, v=v: random_isosceles(rng, v), None)
       for v in "ABC"},
    "random_point_in_circumdisk": (
        lambda rng, host: random_point_in_circumdisk(rng, *host),
        lambda rng, host: _point_in_circumdisk_by_uniform(rng, *host)),
    "random_point_in_circumdisk_margins": (
        lambda rng, host: random_point_in_circumdisk(rng, *host, 0.03, 0.05),
        lambda rng, host: _point_in_circumdisk_by_uniform(rng, *host, 0.03, 0.05)),
    "random_exterior_point": (
        lambda rng, host: random_exterior_point(rng, *host),
        lambda rng, host: _exterior_point_by_uniform(rng, *host)),
    "random_exterior_point_factors": (
        lambda rng, host: random_exterior_point(rng, *host, 1.05, 5.0),
        lambda rng, host: _exterior_point_by_uniform(rng, *host, 1.05, 5.0)),
}


@pytest.mark.parametrize("name", _SAMPLERS)
def test_draws_match_the_uniform_oracle(name, monkeypatch):
    """2000 seeds: the same floats as the oracle, and the generator left in
    the same state; the draw counts differ between seeds, so the rejection
    branches ran."""
    sample, oracle = _SAMPLERS[name]
    hosts = []
    for seed in range(2000):
        t = random_triangle(rng_for(seed, "sampling-oracle-host", 0))
        hosts.append((t, circumcircle(*t)))
    key = f"sampling-oracle:{name}"
    drawn, counts = [], set()
    for seed, host in enumerate(hosts):
        rng = _CountingRandom(f"{key}:{seed}")
        drawn.append((sample(rng, host), rng.getstate()))
        counts.add(rng.draws)
    assert len(counts) > 1
    if oracle is None:
        monkeypatch.setattr(sampling, "_angles", _angles_by_uniform)
        monkeypatch.setattr(sampling, "triangle_from_angles", _triangle_from_angles_by_uniform)
        oracle = sample
    for seed, host in enumerate(hosts):
        rng = random.Random(f"{key}:{seed}")
        assert drawn[seed] == (oracle(rng, host), rng.getstate()), seed
