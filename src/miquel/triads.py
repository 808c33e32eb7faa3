"""Concurrency constructions on a triangle: triads bound to the side lines,
their common circle point, pedal and rotated-pedal families, the side-angle
decomposition around a point, similarity classification, and detection of
which named center role a point plays."""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

from . import centers
from .centers import Measures, SpecialRole
from .errors import CollinearError, GeometryError, RightAngleDegenerateError
from .kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    VERTEX_LABELS,
    CircleXY,
    LineXY,
    TriangleXY,
    angle_distance,
    checked_circle,
    checked_xy,
    circle_xy,
    circumcircle,
    contains_xy,
    directed_angle_xy,
    half_turn,
    line_through,
    offset_xy,
    reject_side_lines,
    shape_gap,
    shape_ratio,
    side_lengths_xy,
    unit_direction,
)

# Points this close to the circumcircle (relative to R) degenerate to a
# collinear pedal triple; the band keeps near-degenerate triads out.
CIRCUMCIRCLE_BAND = 1e-7

# the shape-ratio gap (kernel.shape_gap) within which a pedal shape is similar
PEDAL_SIMILARITY_TOL = 1e-7

# largest drift (relative to R) of a triad's concurrency point from the point
# it was built around; chain steps and the angle equations reject more
CONCURRENCY_BAND = 1e-6


def _param(px: float, py: float, tx: float, ty: float, hx: float, hy: float) -> float:
    """The affine parameter s of the foot of (px, py) on the line through tail
    and head, so that the foot is tail + s·(head − tail)."""
    dx, dy = hx - tx, hy - ty
    return ((px - tx) * dx + (py - ty) * dy) / (dx * dx + dy * dy)


# A triad is three points bound to the side lines of a host triangle, X on
# line BC, Y on CA, Z on AB, kept as a TriangleXY (xx, xy, yx, yy, zx, zy).

def triad_xy(host: TriangleXY, u: float, v: float, w: float) -> TriangleXY:
    """The triad at affine parameters u, v, w: X = B + u·(C − B),
    Y = C + v·(A − C), Z = A + w·(B − A). Parameters outside [0, 1] encode
    the side extensions. Its points are not checked (``checked_triad``)."""
    if not all(math.isfinite(s) for s in (u, v, w)):
        raise ValueError("triad parameters must be finite")
    ax, ay, bx, by, cx, cy = host
    return (bx + u * (cx - bx), by + u * (cy - by),
            cx + v * (ax - cx), cy + v * (ay - cy),
            ax + w * (bx - ax), ay + w * (by - ay))


def triad_params(host: TriangleXY, triad: TriangleXY) -> tuple[float, float, float]:
    """u, v, w of ``triad_xy``: the affine parameters of the feet of X, Y and
    Z on BC, CA and AB."""
    ax, ay, bx, by, cx, cy = host
    xx, xy, yx, yy, zx, zy = triad
    return (_param(xx, xy, bx, by, cx, cy), _param(yx, yy, cx, cy, ax, ay),
            _param(zx, zy, ax, ay, bx, by))


def checked_triad(triad: TriangleXY) -> TriangleXY:
    """``triad`` as it is, once X, Y and Z are finite, each checked in turn
    with ``checked_xy``, so the first that is not gives ``Point``'s
    ``ValueError``."""
    for k in (0, 2, 4):
        checked_xy(triad[k], triad[k + 1])
    return triad


class SimsonLine(NamedTuple):
    """Collapsed pedal triple of a point on the circumcircle, as (x, y) pairs."""

    line: LineXY
    feet: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def max_deviation(self) -> float:
        return max(abs(offset_xy(*self.line, fx, fy)) for fx, fy in self.feet)


class MiquelResult(NamedTuple):
    point: tuple[float, float]
    circles: tuple[CircleXY, CircleXY, CircleXY]  # AYZ, BZX, CXY
    residual: float
    tangent: bool


class SimilarityClass(NamedTuple):
    """A vertex correspondence under which two triangles are similar.

    ``order`` is the index tuple ``kernel.shape_ratio`` reads: entry i is
    the vertex of the second triangle matched to vertex i of the first.
    ``mirrored`` says that the similarity reverses orientation.
    """

    order: tuple[int, int, int]
    mirrored: bool
    residual: float  # the shape-ratio gap under this correspondence


NONE_ROLE = SpecialRole("none")


def on_circle_xy(circle: CircleXY, px: float, py: float) -> bool:
    """True when (px, py) is inside the degeneration band of ``circle``, a
    triangle's circumcircle."""
    cx, cy, r = circle
    return abs(math.hypot(cx - px, cy - py) - r) < CIRCUMCIRCLE_BAND * r


def pedal_triad(host: TriangleXY, px: float, py: float) -> TriangleXY:
    """Perpendicular feet of (px, py) on the three side lines: the family
    member at theta = 0, defined for every point. On the circumcircle they
    are collinear (``simson_line``)."""
    return family_member(host, px, py, 0.0)


def simson_line(host: TriangleXY, px: float, py: float) -> SimsonLine:
    """The line through the collinear pedal feet of (px, py), a point inside
    the degeneration band of the circumcircle of ``host``; it passes through
    the two feet farthest apart."""
    if not on_circle_xy(circumcircle(*host), px, py):
        raise GeometryError("P is not on the circumcircle; no collapsed line")
    xy, _ = family_xy(host, px, py, 0.0)
    feet = tuple([checked_xy(xy[k], xy[k + 1]) for k in (0, 2, 4)])
    anchor, far = max(
        ((feet[i], feet[j]) for i in range(3) for j in range(i + 1, 3)),
        key=lambda pair: math.dist(*pair),
    )
    return SimsonLine(line_through(anchor, far), feet)


def miquel_point(host: TriangleXY, triad: TriangleXY) -> MiquelResult:
    """Common point of the three circles through each vertex and the triad
    points on its adjacent sides, with the circles and the point checked.

    The circles through A and through B both pass through Z, so their other
    common point is Z mirrored in the line of their centers. The centers
    project onto line AB at the midpoints of AZ and ZB, |AB|/2 apart, so the
    line is always defined. The residual against all three circles is the
    numeric witness of the concurrency.
    """
    *rows, (mx, my) = miquel_xy(host, triad)
    circles = tuple([checked_circle(c) for c in rows])
    point = checked_xy(mx, my)
    *_, zx, zy = triad
    tangent = math.hypot(mx - zx, my - zy) < LENGTH_EPS * max(circles[0][2], circles[1][2])
    residual = miquel_residual(rows, mx, my)
    return MiquelResult(point, circles, residual, tangent)


def miquel_xy(
    host: TriangleXY, triad: TriangleXY
) -> tuple[CircleXY, CircleXY, CircleXY, tuple[float, float]]:
    """``miquel_point`` on coordinates, for the host triangle ABC and the
    triad points X, Y, Z: the circles AYZ, BZX and CXY as (center x,
    center y, radius), then their common point."""
    ax, ay, bx, by, cx, cy = host
    xx, xy, yx, yy, zx, zy = triad
    circle_a = circle_xy(ax, ay, yx, yy, zx, zy)
    circle_b = circle_xy(bx, by, zx, zy, xx, xy)
    circle_c = circle_xy(cx, cy, xx, xy, yx, yy)
    ax, ay, _ = circle_a
    bx, by, _ = circle_b
    # reflect_xy of Z in the line of the two centers, written out
    dx, dy = unit_direction(bx - ax, by - ay)
    s = (zx - ax) * dx + (zy - ay) * dy
    fx, fy = ax + s * dx, ay + s * dy
    return circle_a, circle_b, circle_c, (2.0 * fx - zx, 2.0 * fy - zy)


def miquel_residual(circles: list[CircleXY], mx: float, my: float) -> float:
    """``MiquelResult.residual``: the largest radial offset (distance to the
    center minus the radius) of the point (mx, my) from the circles of
    ``miquel_xy``, in absolute value."""
    return max(abs(math.hypot(cx - mx, cy - my) - r) for cx, cy, r in circles)


def family_member(host: TriangleXY, px: float, py: float, theta: float) -> TriangleXY:
    """Member of the one-parameter family of triads whose common circle
    point is P = (px, py): the pedal triad under the spiral similarity
    P + (F − P)·(1 + i·tan theta) about P, checked by ``checked_triad``.

    theta = 0 is the pedal triad, and the triad triangle scales by
    1/cos(theta) relative to it. Defined for every point: on a side line
    the vertex on that line is P itself.
    """
    return checked_triad(family_xy(host, px, py, theta)[0])


def family_xy(
    host: TriangleXY, px: float, py: float, theta: float
) -> tuple[TriangleXY, float]:
    """The triad points X, Y, Z of ``family_member`` of the host triangle
    ABC, the point P = (px, py) and ``theta``, on coordinates: per side
    line, the pedal foot F of P moved along the side to
    F + tan(theta)·perp(F − P), where perp turns the spoke F − P a quarter
    turn counter-clockwise. Then P's distance from the nearest side line,
    which the caller hands to ``reject_side_lines``."""
    # rejects NaN too: every comparison with NaN is false
    if not abs(theta) < HALF_PI - ANGLE_EPS:
        raise GeometryError(f"rotation {theta} not inside (-pi/2, pi/2)")
    tan = math.tan(theta)
    ax, ay, bx, by, cx, cy = host
    # per side line, tail to head: its unit direction and project_xy of P,
    # then offset_xy of P from all three, each written out op for op
    ux, uy = unit_direction(cx - bx, cy - by)
    s = (px - bx) * ux + (py - by) * uy
    fx, fy = bx + s * ux, by + s * uy
    xx, xy = fx - tan * (fy - py), fy + tan * (fx - px)
    vx, vy = unit_direction(ax - cx, ay - cy)
    s = (px - cx) * vx + (py - cy) * vy
    fx, fy = cx + s * vx, cy + s * vy
    yx, yy = fx - tan * (fy - py), fy + tan * (fx - px)
    wx, wy = unit_direction(bx - ax, by - ay)
    s = (px - ax) * wx + (py - ay) * wy
    fx, fy = ax + s * wx, ay + s * wy
    zx, zy = fx - tan * (fy - py), fy + tan * (fx - px)
    nearest = min(abs(ux * (py - by) - uy * (px - bx)), abs(vx * (py - cy) - vy * (px - cx)),
                  abs(wx * (py - ay) - wy * (px - ax)))
    return (xx, xy, yx, yy, zx, zy), nearest


def cevian_angles_xy(
    host: TriangleXY, px: float, py: float, radius: float, second: bool
) -> tuple[float, float, float]:
    """Three of the six directed angles that the cevians of the point
    (px, py) cut off at the vertices of the host of circumradius ``radius``:
    at A, alpha1 from line AP to line AC and alpha2 from line AB to line AP,
    which sum to the directed angle at A; likewise beta1, beta2 at B and
    gamma1, gamma2 at C. Gives alpha1, beta1, gamma1, or alpha2, beta2,
    gamma2 when ``second``, with its errors."""
    ax, ay, bx, by, cx, cy = host
    eps = LENGTH_EPS * radius
    if (math.hypot(px - ax, py - ay) < eps or math.hypot(px - bx, py - by) < eps
            or math.hypot(px - cx, py - cy) < eps):
        raise GeometryError("the point coincides with a vertex")
    if second:
        return (directed_angle_xy(bx, by, ax, ay, px, py),
                directed_angle_xy(cx, cy, bx, by, px, py),
                directed_angle_xy(ax, ay, cx, cy, px, py))
    return (directed_angle_xy(px, py, ax, ay, cx, cy),
            directed_angle_xy(px, py, bx, by, ax, ay),
            directed_angle_xy(px, py, cx, cy, bx, by))


def miquel_angles_xy(
    host: TriangleXY, px: float, py: float, radius: float
) -> tuple[float, float, float]:
    """The directed angles at X, Y, Z of any triad triangle of the point
    (px, py) in the host of circumradius ``radius``, from the cevian angles
    of ``cevian_angles_xy``: beta1 + gamma2, gamma1 + alpha2, alpha1 + beta2.
    Valid for points inside the circumcircle; outside it the same directed
    formulas are evaluated as they stand."""
    a1, b1, g1 = cevian_angles_xy(host, px, py, radius, False)
    a2, b2, g2 = cevian_angles_xy(host, px, py, radius, True)
    return half_turn(b1 + g2), half_turn(g1 + a2), half_turn(a1 + b2)


def verify_miquel_equations(
    host: TriangleXY, px: float, py: float, triad: TriangleXY
) -> float:
    """Worst residual of the three angle identities tying the angles of the
    host and of the triad X, Y, Z to the angles subtended at the concurrency
    point P = (px, py): A + X = BPC, B + Y = CPA, C + Z = APB (all directed).
    """
    # miquel_point checks its circles (checked_circle) and its point
    # (checked_xy), for a positive finite radius and finite coordinates; inside
    # MAX_COORDINATE circle_xy's collinearity test bounds each radius, so no
    # such check can fail here
    *_, (mx, my) = miquel_xy(host, triad)
    if math.hypot(mx - px, my - py) > CONCURRENCY_BAND * circumcircle(*host)[2]:
        raise GeometryError("the triad's concurrency point is not the given point")
    ax, ay, bx, by, cx, cy = host
    xx, xy, yx, yy, zx, zy = triad
    # the vertex angles of both, as directed_angle_at_xy
    ang_a = directed_angle_xy(bx, by, ax, ay, cx, cy)
    ang_b = directed_angle_xy(cx, cy, bx, by, ax, ay)
    ang_c = directed_angle_xy(ax, ay, cx, cy, bx, by)
    ang_x = directed_angle_xy(yx, yy, xx, xy, zx, zy)
    ang_y = directed_angle_xy(zx, zy, yx, yy, xx, xy)
    ang_z = directed_angle_xy(xx, xy, zx, zy, yx, yy)
    return max(
        angle_distance(half_turn(ang_a + ang_x), directed_angle_xy(bx, by, px, py, cx, cy)),
        angle_distance(half_turn(ang_b + ang_y), directed_angle_xy(cx, cy, px, py, ax, ay)),
        angle_distance(half_turn(ang_c + ang_z), directed_angle_xy(ax, ay, px, py, bx, by)),
    )


# every vertex correspondence, as ``SimilarityClass.order``
_ORDERS = tuple(permutations(range(3)))


def classify_similarity(xy1: TriangleXY, xy2: TriangleXY, tol: float) -> SimilarityClass | None:
    """The first vertex correspondence under which the shape ratio of the
    triangle ``xy2`` is within the gap ``tol`` (``kernel.shape_gap``) of that
    of ``xy1``, or None. The 12 (order, mirrored) pairs are tried in
    ``_ORDERS`` order, direct before mirrored: isosceles and equilateral
    inputs fit several, and the first that fits wins."""
    r1 = shape_ratio(xy1, (0, 1, 2))
    for order in _ORDERS:
        r2 = shape_ratio(xy2, order)
        for mirrored in (False, True):
            gap = shape_gap(r1, r2, mirrored)
            if gap < tol:
                return SimilarityClass(order, mirrored, gap)
    return None


# role detection's candidates with their location bodies: the centroid plays
# no role in the paper, and when b² + c² = 2a² it coincides with M_A, which
# must win
_CANDIDATES = tuple(
    (role, centers.LOCATE_XY[role.role]) for role, _ in centers.NAMED_POINTS
    if role.role != "centroid"
)


def detect_special_role(m: Measures, px: float, py: float, length_eps: float) -> SpecialRole:
    """Which named center of the triangle measured as ``m``
    (``centers.measures_xy``) the point (px, py) is, within ``length_eps``
    (relative) times the circumradius.

    Every point of ``centers.NAMED_POINTS`` but the centroid is a candidate,
    located from those measures. The nearest within the band wins, the
    first in table order on a tie; S and M are skipped at a right angle, and
    a location that is not finite raises ``Point``'s ``ValueError``. The arc
    role (isosceles host, point on the circle through the base vertices and
    the incenter) is only tried when no center fits. That circle is built
    with the kernel's own collinearity band, not with ``length_eps``.
    """
    xy = m.xy
    eps = length_eps * m.circumradius
    best_role, best_dist = NONE_ROLE, math.inf
    for role, body in _CANDIDATES:
        try:
            x, y = body(m, role.vertex)
        except RightAngleDegenerateError:
            continue
        d = math.hypot(x - px, y - py)
        if d < best_dist:
            best_role, best_dist = role, d
        elif not d < math.inf:
            checked_xy(x, y)  # a location that is not finite: rejected as Point rejects it
    if best_dist < eps:
        return best_role
    ix, iy = centers.LOCATE_XY["incenter"](m)
    sides = m.side_lengths
    for i, v in enumerate(VERTEX_LABELS):
        j, k = (i + 1) % 3, (i + 2) % 3
        # the two sides at v within the band
        if not abs(sides[j] - sides[k]) < eps:
            continue
        bx, by, cx, cy = xy[2 * j], xy[2 * j + 1], xy[2 * k], xy[2 * k + 1]
        try:
            ox, oy, r = circumcircle(bx, by, cx, cy, ix, iy)
        except CollinearError:
            continue
        if abs(math.hypot(ox - px, oy - py) - r) < eps:
            return SpecialRole("q_role", v)
    return NONE_ROLE


class ParityReport(NamedTuple):
    inside_host: bool
    inside_miquel: bool
    agree: bool
    ray_angle_sum: float | None


def containment_parity(
    host: TriangleXY, circle: CircleXY, px: float, py: float
) -> ParityReport:
    """Whether (px, py) is inside the triangle ``host``, whose circumcircle
    is ``circle``, and inside its pedal triangle.

    For interior points also reports the full turn of the three rays toward
    the pedal feet (2*pi exactly when the point is enclosed by them).
    """
    # the pedal feet and min_side_line_distance_xy's floats; at theta 0
    # family_xy cannot raise inside MAX_COORDINATE, so the guards keep order
    xy, distance = family_xy(host, px, py, 0.0)
    reject_side_lines(distance, circle[2])
    if on_circle_xy(circle, px, py):
        raise GeometryError("the pedal triple degenerates on the circumcircle")
    side_lengths_xy(*xy)  # the CollinearError of Triangle(X, Y, Z)
    inside_host = contains_xy(host, px, py)
    inside_miquel = contains_xy(xy, px, py)
    ray_sum = None
    if inside_host:
        dirs = sorted(math.atan2(xy[k + 1] - py, xy[k] - px) for k in (0, 2, 4))
        gaps = [dirs[1] - dirs[0], dirs[2] - dirs[1], 2.0 * math.pi - (dirs[2] - dirs[0])]
        ray_sum = sum(min(g, 2.0 * math.pi - g) for g in gaps)
    return ParityReport(inside_host, inside_miquel, inside_host == inside_miquel, ray_sum)
