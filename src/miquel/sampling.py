"""Deterministic random generators for triangles and points.

Every generator takes an explicit ``random.Random`` so that concurrent or
repeated runs reproduce bit-identically from the same seed. Triangles are
built from sampled interior angles placed on a circumcircle, which gives
direct control over scaleneness and right-angle margins.
"""

from __future__ import annotations

import math
import random

from .kernel import HALF_PI, VERTEX_LABELS, CircleXY, Point, Triangle


def rng_for(seed: int, suite: str, index: int) -> random.Random:
    """Deterministic per-trial generator, independent of trial order."""
    return random.Random(f"{suite}:{seed}:{index}")


def _angles(
    rng: random.Random, min_angle: float, pairwise_gap: float, right_gap: float
) -> tuple[float, float, float]:
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


def triangle_from_angles(
    rng: random.Random, angles: tuple[float, float, float]
) -> Triangle:
    """Inscribe the angle triple in a random circle (random pose and size)."""
    a, b, c = angles
    radius = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    cx = rng.uniform(-3.0, 3.0)
    cy = rng.uniform(-3.0, 3.0)
    # central arcs: vertex A at phase, B after arc 2C, C after further 2A
    ts = (phase, phase + 2.0 * c, phase + 2.0 * c + 2.0 * a)
    pts = [Point(cx + radius * math.cos(t), cy + radius * math.sin(t)) for t in ts]
    if rng.random() < 0.5:  # both orientations
        pts = [Point(p.x, 2.0 * cy - p.y) for p in pts]
    return Triangle(*pts)


def random_triangle(
    rng: random.Random, min_angle: float = 0.30, right_gap: float = 0.05
) -> Triangle:
    """A scalene triangle (angles pairwise 0.02 apart) with margins from
    degeneracy and right angles."""
    return triangle_from_angles(rng, _angles(rng, min_angle, 0.02, right_gap))


def random_catalog_triangle(rng: random.Random) -> Triangle:
    """Scalene, pairwise angle gaps over 5 degrees, angles 20+ degrees from right."""
    return triangle_from_angles(
        rng,
        _angles(rng, min_angle=math.radians(12.0),
                pairwise_gap=math.radians(5.0), right_gap=math.radians(20.0)),
    )


def random_acute_triangle(rng: random.Random) -> Triangle:
    """Every angle at least 0.35 and more than 0.05 short of a right angle."""
    while True:
        angles = _angles(rng, 0.35, 0.02, 0.05)
        if max(angles) < HALF_PI - 0.05:
            return triangle_from_angles(rng, angles)


def random_obtuse_at(rng: random.Random, vertex: str) -> Triangle:
    """Obtuse exactly at the requested vertex label, by more than 0.08."""
    while True:
        angles = _angles(rng, 0.25, 0.02, 0.08)
        big = max(angles)
        if big < HALF_PI + 0.08:
            continue
        order = sorted(range(3), key=lambda i: angles[i])
        rolled = [0.0, 0.0, 0.0]
        target = VERTEX_LABELS.index(vertex)
        rolled[target] = big
        rest = [angles[i] for i in order[:2]]
        slots = [i for i in range(3) if i != target]
        rolled[slots[0]], rolled[slots[1]] = rest[0], rest[1]
        return triangle_from_angles(rng, tuple(rolled))


def random_isosceles(rng: random.Random, apex: str = "A") -> Triangle:
    """Isosceles at ``apex`` (the two adjacent sides equal), never
    equilateral, base angles at least 0.30."""
    while True:
        base = rng.uniform(0.30, HALF_PI - 0.05)
        apex_angle = math.pi - 2.0 * base
        if apex_angle < 0.2 or abs(apex_angle - base) < 0.05:
            continue
        angles = [0.0, 0.0, 0.0]
        i = VERTEX_LABELS.index(apex)
        angles[i] = apex_angle
        for j in range(3):
            if j != i:
                angles[j] = base
        return triangle_from_angles(rng, tuple(angles))


def random_interior_point(rng: random.Random, t: Triangle) -> Point:
    """Point strictly inside, every barycentric weight at least 0.05."""
    while True:
        w = [-math.log(rng.random()) for _ in range(3)]
        s = sum(w)
        w = [x / s for x in w]
        if min(w) < 0.05:
            continue
        return (w[0] * t.a + w[1] * t.b + w[2] * t.c)


def random_point_in_circumdisk(
    rng: random.Random, t: Triangle, line_margin: float = 0.02, radial_margin: float = 0.03
) -> Point:
    """Point inside the circumcircle, off the side lines and the circle."""
    ox, oy, radius = t.circumcircle
    while True:
        r = radius * math.sqrt(rng.random()) * (1.0 - radial_margin)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = Point(ox + r * math.cos(phi), oy + r * math.sin(phi))
        if t.min_side_line_distance(p) < line_margin * radius:
            continue
        return p


def random_exterior_point(
    rng: random.Random,
    t: Triangle,
    min_factor: float = 1.1,
    max_factor: float = 5.0,
) -> Point:
    """Point outside the circumcircle at a bounded distance from its center,
    off the side lines by 0.02 R."""
    ox, oy, radius = t.circumcircle
    while True:
        r = radius * rng.uniform(min_factor, max_factor)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = Point(ox + r * math.cos(phi), oy + r * math.sin(phi))
        if t.min_side_line_distance(p) < 0.02 * radius:
            continue
        return p


def random_circumcircle_point(rng: random.Random, t: Triangle) -> Point:
    """Point exactly on the circumcircle, over 0.05 rad of arc from the
    vertices."""
    ox, oy, r = t.circumcircle
    vertex_angles = [math.atan2(v.y - oy, v.x - ox) for v in t.vertices]
    while True:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if any(
            abs(math.remainder(phi - va, 2.0 * math.pi)) < 0.05
            for va in vertex_angles
        ):
            continue
        return Point(ox + r * math.cos(phi), oy + r * math.sin(phi))


def random_arc_point(
    rng: random.Random, circle: CircleXY, end1: Point, end2: Point, via: Point
) -> Point:
    """Point on the arc of ``circle`` from ``end1`` to ``end2`` passing
    through ``via``, off its ends by 8% of the arc."""
    cx, cy, radius = circle
    a1 = math.atan2(end1.y - cy, end1.x - cx)
    a2 = math.atan2(end2.y - cy, end2.x - cx)
    av = math.atan2(via.y - cy, via.x - cx)
    sweep = (a2 - a1) % (2.0 * math.pi)
    via_off = (av - a1) % (2.0 * math.pi)
    t = rng.uniform(0.08, 0.92)
    if via_off <= sweep:
        ang = a1 + sweep * t
    else:
        ang = a1 - (2.0 * math.pi - sweep) * t
    return Point(cx + radius * math.cos(ang), cy + radius * math.sin(ang))
