"""Deterministic random generators for triangles and points.

Every generator takes an explicit ``random.Random`` so that concurrent or
repeated runs reproduce bit-identically from the same seed. Triangles are
built from sampled interior angles placed on a circumcircle, which gives
direct control over scaleneness and right-angle margins. A triangle is drawn
as its six coordinates (``kernel.TriangleXY``) and a point as an (x, y) pair.
Hot samplers write ``rng.uniform(lo, hi)`` out as ``lo + (hi - lo) * draw()``,
pinned against ``rng.uniform`` oracles by ``tests/test_sampling.py``.
"""

from __future__ import annotations

import math
import random

from .kernel import (HALF_PI, VERTEX_LABELS, CircleXY, TriangleXY, checked_xy,
                     min_side_line_distance_xy, side_lengths_xy)


# random_exterior_point's largest distance from the circumcenter, in radii
EXTERIOR_REACH = 5.0


def rng_for(seed: int, suite: str, index: int) -> random.Random:
    """Deterministic per-trial generator, independent of trial order."""
    return random.Random(f"{suite}:{seed}:{index}")


def _angles(
    rng: random.Random, min_angle: float, pairwise_gap: float, right_gap: float
) -> tuple[float, float, float]:
    draw = rng.random
    a_range = math.pi - 2.0 * min_angle - min_angle
    for _ in range(1000):
        a = min_angle + a_range * draw()
        b = min_angle + (math.pi - a - min_angle - min_angle) * draw()
        c = math.pi - a - b
        if a < min_angle or b < min_angle or c < min_angle:
            continue
        if pairwise_gap > 0.0 and (
            abs(a - b) < pairwise_gap or abs(b - c) < pairwise_gap or abs(c - a) < pairwise_gap
        ):
            continue
        if right_gap > 0.0 and (abs(a - HALF_PI) < right_gap or abs(b - HALF_PI) < right_gap
                                or abs(c - HALF_PI) < right_gap):
            continue
        return a, b, c
    raise RuntimeError("angle sampling failed to satisfy the constraints")


def triangle_from_angles(
    rng: random.Random, angles: tuple[float, float, float]
) -> TriangleXY:
    """Inscribe the angle triple in a random circle (random pose and size),
    with the ``CollinearError`` that ``side_lengths_xy`` raises."""
    a, b, c = angles
    draw = rng.random
    radius = 0.5 + (2.0 - 0.5) * draw()
    phase = math.tau * draw()  # uniform(0, 2 pi): lo = 0 leaves the product
    ox = -3.0 + (3.0 - -3.0) * draw()
    oy = -3.0 + (3.0 - -3.0) * draw()
    # central arcs: vertex A at phase, B after arc 2C, C after further 2A
    ta, tb = phase, phase + 2.0 * c
    tc = tb + 2.0 * a
    xy = (ox + radius * math.cos(ta), oy + radius * math.sin(ta),
          ox + radius * math.cos(tb), oy + radius * math.sin(tb),
          ox + radius * math.cos(tc), oy + radius * math.sin(tc))
    if draw() < 0.5:  # both orientations
        ax, ay, bx, by, cx, cy = xy
        xy = (ax, 2.0 * oy - ay, bx, 2.0 * oy - by, cx, 2.0 * oy - cy)
    side_lengths_xy(*xy)
    return xy


def random_triangle(
    rng: random.Random, min_angle: float = 0.30, right_gap: float = 0.05
) -> TriangleXY:
    """A scalene triangle (angles pairwise 0.02 apart) with margins from
    degeneracy and right angles."""
    return triangle_from_angles(rng, _angles(rng, min_angle, 0.02, right_gap))


def random_catalog_triangle(rng: random.Random) -> TriangleXY:
    """Scalene, pairwise angle gaps over 5 degrees, angles 20+ degrees from right."""
    return triangle_from_angles(
        rng,
        _angles(rng, min_angle=math.radians(12.0),
                pairwise_gap=math.radians(5.0), right_gap=math.radians(20.0)),
    )


def random_acute_triangle(rng: random.Random) -> TriangleXY:
    """Every angle at least 0.35 and more than 0.05 short of a right angle."""
    while True:
        angles = _angles(rng, 0.35, 0.02, 0.05)
        if max(angles) < HALF_PI - 0.05:
            return triangle_from_angles(rng, angles)


def random_obtuse_at(rng: random.Random, vertex: str) -> TriangleXY:
    """Obtuse exactly at the requested vertex label, by more than 0.08."""
    while True:
        angles = _angles(rng, 0.25, 0.02, 0.08)
        big = max(angles)
        if big < HALF_PI + 0.08:
            continue
        rolled = sorted(angles)[:2]
        rolled.insert(VERTEX_LABELS.index(vertex), big)
        return triangle_from_angles(rng, tuple(rolled))


def random_isosceles(rng: random.Random, apex: str) -> TriangleXY:
    """Isosceles at ``apex`` (the two adjacent sides equal), never
    equilateral, base angles at least 0.30."""
    while True:
        base = rng.uniform(0.30, HALF_PI - 0.05)
        apex_angle = math.pi - 2.0 * base
        if apex_angle < 0.2 or abs(apex_angle - base) < 0.05:
            continue
        angles = [base, base]
        angles.insert(VERTEX_LABELS.index(apex), apex_angle)
        return triangle_from_angles(rng, tuple(angles))


def random_interior_point(rng: random.Random, t: TriangleXY) -> tuple[float, float]:
    """Point strictly inside, every barycentric weight at least 0.05."""
    ax, ay, bx, by, cx, cy = t
    while True:
        w = [-math.log(rng.random()) for _ in range(3)]
        s = sum(w)
        w0, w1, w2 = [x / s for x in w]
        if min(w0, w1, w2) < 0.05:
            continue
        return checked_xy(w0 * ax + w1 * bx + w2 * cx, w0 * ay + w1 * by + w2 * cy)


def random_point_in_circumdisk(
    rng: random.Random, t: TriangleXY, circle: CircleXY,
    line_margin: float = 0.02, radial_margin: float = 0.03,
) -> tuple[float, float]:
    """Point inside ``circle``, the circumcircle of ``t``, off the side lines
    and the circle."""
    ox, oy, radius = circle
    draw = rng.random
    while True:
        r = radius * math.sqrt(draw()) * (1.0 - radial_margin)
        phi = math.tau * draw()  # uniform(0, 2 pi)
        px, py = ox + r * math.cos(phi), oy + r * math.sin(phi)
        if min_side_line_distance_xy(t, px, py) < line_margin * radius:
            continue
        return checked_xy(px, py)


def random_exterior_point(
    rng: random.Random, t: TriangleXY, circle: CircleXY, min_factor: float = 1.1
) -> tuple[float, float]:
    """Point outside ``circle``, the circumcircle of ``t``, at min_factor to
    ``EXTERIOR_REACH`` radii from its center, off the side lines by 0.02 R."""
    ox, oy, radius = circle
    while True:
        r = radius * rng.uniform(min_factor, EXTERIOR_REACH)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        px, py = ox + r * math.cos(phi), oy + r * math.sin(phi)
        if min_side_line_distance_xy(t, px, py) < 0.02 * radius:
            continue
        return checked_xy(px, py)


def random_circumcircle_point(
    rng: random.Random, t: TriangleXY, circle: CircleXY
) -> tuple[float, float]:
    """Point exactly on ``circle``, the circumcircle of ``t``, over 0.05 rad
    of arc from the vertices."""
    ox, oy, r = circle
    vertex_angles = [math.atan2(t[k + 1] - oy, t[k] - ox) for k in (0, 2, 4)]
    while True:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if any(
            abs(math.remainder(phi - va, 2.0 * math.pi)) < 0.05
            for va in vertex_angles
        ):
            continue
        return checked_xy(ox + r * math.cos(phi), oy + r * math.sin(phi))


def random_arc_point(
    rng: random.Random, circle: CircleXY, end1, end2, via
) -> tuple[float, float]:
    """Point on the arc of ``circle`` from ``end1`` to ``end2`` passing
    through ``via``, off its ends by 8% of the arc; each point an (x, y)
    pair."""
    cx, cy, radius = circle
    (x1, y1), (x2, y2), (xv, yv) = end1, end2, via
    a1 = math.atan2(y1 - cy, x1 - cx)
    a2 = math.atan2(y2 - cy, x2 - cx)
    av = math.atan2(yv - cy, xv - cx)
    sweep = (a2 - a1) % (2.0 * math.pi)
    via_off = (av - a1) % (2.0 * math.pi)
    t = rng.uniform(0.08, 0.92)
    if via_off <= sweep:
        ang = a1 + sweep * t
    else:
        ang = a1 - (2.0 * math.pi - sweep) * t
    return checked_xy(cx + radius * math.cos(ang), cy + radius * math.sin(ang))
