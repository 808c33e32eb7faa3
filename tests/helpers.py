"""Triangles and small coordinate helpers that several test modules share.

A triangle is its six coordinates (ax, ay, bx, by, cx, cy), a point an
(x, y) pair, a line (anchor x, anchor y, unit direction x, unit direction y)
and a circle (center x, center y, radius), as the package takes them.
"""

import math

from miquel.centers import locate_xy, measures_xy
from miquel.kernel import (
    circumcircle,
    corners_xy,
    directed_angle_xy,
    offset_xy,
    reflect_xy,
    unit_direction,
)

SQ3 = math.sqrt(3.0)
T345 = (0.0, 0.0, 4.0, 0.0, 0.0, 3.0)  # right-angled at A
TSCA = (0.0, 0.0, 4.0, 0.0, 1.0, 3.0)  # acute scalene, the workhorse
EQUI = (0.0, 1.0, -SQ3 / 2, -0.5, SQ3 / 2, -0.5)


def vertices(xy):
    """The three points of the triangle ``xy``, as (x, y) pairs."""
    return xy[0:2], xy[2:4], xy[4:6]


def opposite(xy, label):
    """The endpoints of the side of ``xy`` opposite ``label``, in cyclic order."""
    return corners_xy(xy, label)[1:]


def locate(xy, role):
    """Where ``role`` sits in the triangle ``xy`` (``locate_xy`` of ``xy`` measured)."""
    return locate_xy(measures_xy(xy), role)


def circumradius(xy) -> float:
    return circumcircle(*xy)[2]


def line_along(anchor, direction):
    """The line through ``anchor`` along ``direction``, normalized."""
    return (*anchor, *unit_direction(*direction))


def offset(line, p) -> float:
    return offset_xy(*line, *p)


def reflect(line, p):
    return reflect_xy(*line, *p)


def directed_angle(p, q, r) -> float:
    return directed_angle_xy(*p, *q, *r)


def offset_from(circle, p) -> float:
    """Signed radial offset of ``p``: distance to the center minus the radius."""
    cx, cy, r = circle
    px, py = p
    return math.hypot(cx - px, cy - py) - r


def orientation(xy) -> int:
    """+1 when A, B, C turn counter-clockwise, else -1: the sign of the area."""
    ax, ay, bx, by, cx, cy = xy
    return 1 if 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) > 0.0 else -1


def contains_by_operators(xy, p) -> bool:
    """p is on the inner side of each edge: sign·(q2 − q1)×(p − q1) > 0."""
    sign = orientation(xy)
    px, py = p
    a, b, c = vertices(xy)
    return all(
        sign * ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) > 0.0
        for (x1, y1), (x2, y2) in ((a, b), (b, c), (c, a))
    )
