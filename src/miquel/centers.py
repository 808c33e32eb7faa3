"""Named points of a triangle: classical centers, Brocard points, symmedian
and median special points, isogonal conjugation, circumcircle inversion, and
the full catalog of points whose pedal configuration reproduces the host
triangle's shape."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CollinearError, GeometryError, RightAngleDegenerateError
from .kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    VERTEX_LABELS,
    CircleXY,
    Frozen,
    Point,
    Triangle,
    TriangleXY,
    checked_xy,
    invert_xy,
    min_side_line_distance_xy,
    reject_side_lines,
    set_field,
)

_ROLES_WITH_VERTEX = ("excenter", "s_role", "m_role", "q_role")


class SpecialRole(Frozen):
    """A named point of a triangle, with a vertex label for the names that
    come one per vertex."""

    _fields = ("role", "vertex")
    role: str
    vertex: str | None

    def __init__(self, role: str, vertex: str | None = None) -> None:
        wants_vertex = role in _ROLES_WITH_VERTEX
        if wants_vertex and vertex not in VERTEX_LABELS:
            raise ValueError(f"{role} requires a vertex label A, B or C")
        if not wants_vertex and vertex is not None:
            raise ValueError(f"{role} does not take a vertex label")
        set_field(self, "role", role)
        set_field(self, "vertex", vertex)

    def __str__(self) -> str:
        return f"{self.role}({self.vertex})" if self.vertex else self.role


class Measures(NamedTuple):
    """What the location bodies below read of a triangle, each computed once
    by ``measures_xy``: its vertices, side lengths |BC|, |CA|, |AB|, their
    squares, its interior angles at A, B, C, its circumcenter and radius."""

    xy: TriangleXY
    side_lengths: tuple[float, float, float]
    squared_sides: tuple[float, float, float]
    angles: tuple[float, float, float]
    circumcenter_xy: tuple[float, float]
    circumradius: float


def measures_xy(xy: TriangleXY, circle: CircleXY | None = None) -> Measures:
    """The measures of the triangle ``xy``, with what ``side_lengths_xy`` and
    ``circumcircle`` raise, in that order; a caller that holds that
    circumcircle passes it as ``circle``. One pass with the float operations
    of those two (a reversed difference negated), then the squared sides and
    each angle as atan2 of the cross and dot products of its legs."""
    ax, ay, bx, by, cx, cy = xy
    q2x, q2y = bx - ax, by - ay
    q3x, q3y = cx - ax, cy - ay
    if not math.isfinite(q2x + q2y + q3x + q3y):
        Point(q2x, q2y)
        Point(q3x, q3y)
    bcx, bcy = cx - bx, cy - by
    la, lb, lc = math.hypot(bcx, bcy), math.hypot(q3x, q3y), math.hypot(q2x, q2y)
    cross = q2x * q3y - q2y * q3x
    span = max(la, lb, lc)
    if abs(2.0 * cross) <= 2.0 * LENGTH_EPS * span * span:
        raise CollinearError("degenerate triangle: collinear within tolerance")
    m2 = q2x * q2x + q2y * q2y
    m3 = q3x * q3x + q3y * q3y
    if circle is None:
        d = 2.0 * cross
        ux = (m2 * q3y - m3 * q2y) / d
        uy = (m3 * q2x - m2 * q3x) / d
        ox, oy = checked_xy(ax + ux, ay + uy)
        r = math.hypot(ux, uy)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be strictly positive, got {r}")
    else:
        ox, oy, r = circle
    angles = (math.atan2(abs(cross), q2x * q3x + q2y * q3y),
              math.atan2(abs(bcy * q2x - bcx * q2y), -bcx * q2x - bcy * q2y),
              math.atan2(abs(q3x * bcy - q3y * bcx), q3x * bcx + q3y * bcy))
    return Measures(xy, (la, lb, lc), (bcx * bcx + bcy * bcy, m3, m2), angles, (ox, oy), r)


def _barycentric_xy(m: Measures, wa: float, wb: float, wc: float) -> tuple[float, float]:
    """The point with barycentric weights (wa : wb : wc) over A, B, C."""
    ax, ay, bx, by, cx, cy = m.xy
    s = wa + wb + wc
    return (wa * ax + wb * bx + wc * cx) / s, (wa * ay + wb * by + wc * cy) / s


def _reject_right_angle(m: Measures, vertex: str) -> int:
    """The index of ``vertex``, which must not have a right angle."""
    i = VERTEX_LABELS.index(vertex)
    if abs(m.angles[i] - HALF_PI) < ANGLE_EPS:
        raise RightAngleDegenerateError(f"vertex angle at {vertex} is right")
    return i


# Where each named point sits, on coordinates: the one body of its formula,
# which ``locate_xy``, the Point functions below, role detection and the
# suites all call. Each takes the triangle's measures and, for the names that
# come one per vertex, the vertex label.

def _circumcenter_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    return m.circumcenter_xy


def _orthocenter_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    # vector identity: H = A + B + C - 2*O
    ox, oy = m.circumcenter_xy
    ax, ay, bx, by, cx, cy = m.xy
    return ax + bx + cx - 2.0 * ox, ay + by + cy - 2.0 * oy


def _centroid_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    ax, ay, bx, by, cx, cy = m.xy
    return (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0


def _incenter_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    return _barycentric_xy(m, *m.side_lengths)


def _excenter_xy(m: Measures, vertex: str) -> tuple[float, float]:
    weights = list(m.side_lengths)
    weights[VERTEX_LABELS.index(vertex)] *= -1.0
    return _barycentric_xy(m, *weights)


def _first_brocard_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    a2, b2, c2 = m.squared_sides
    return _barycentric_xy(m, c2 * a2, a2 * b2, b2 * c2)


def _second_brocard_xy(m: Measures, vertex: str | None = None) -> tuple[float, float]:
    a2, b2, c2 = m.squared_sides
    return _barycentric_xy(m, a2 * b2, b2 * c2, c2 * a2)


def _s_xy(m: Measures, vertex: str) -> tuple[float, float]:
    i = _reject_right_angle(m, vertex)
    sq = m.squared_sides
    weights = list(sq)
    weights[i] = sq[(i + 1) % 3] + sq[(i + 2) % 3] - sq[i]
    return _barycentric_xy(m, *weights)


def _m_xy(m: Measures, vertex: str) -> tuple[float, float]:
    i = _reject_right_angle(m, vertex)
    sq = m.squared_sides
    k = sq[(i + 1) % 3] + sq[(i + 2) % 3] - sq[i]
    weights = [k, k, k]
    weights[i] = sq[i]
    return _barycentric_xy(m, *weights)


# the body of each role with a single location, by role name
LOCATE_XY = {
    "circumcenter": _circumcenter_xy,
    "orthocenter": _orthocenter_xy,
    "centroid": _centroid_xy,
    "incenter": _incenter_xy,
    "excenter": _excenter_xy,
    "first_brocard": _first_brocard_xy,
    "second_brocard": _second_brocard_xy,
    "s_role": _s_xy,
    "m_role": _m_xy,
}


def symmedian_foot(t: Triangle, vertex: str) -> Point:
    """Point on the opposite side dividing it as the squared adjacent sides.

    For vertex A the foot D on BC satisfies BD/DC = (AB/AC)^2.
    """
    b, c = t.opposite(vertex)
    apex = t.vertex(vertex)
    ab2 = (b - apex).dot(b - apex)
    ac2 = (c - apex).dot(c - apex)
    return b + (ab2 / (ab2 + ac2)) * (c - b)


def brocard_point(m: Measures, which: str) -> Point:
    """First or second Brocard point.

    The first point Ω₁ = (c²a² : a²b² : b²c²) equalizes the directed angles
    from each side to the cevian at its tail vertex; the second,
    Ω₂ = (a²b² : b²c² : c²a²), mirrors the condition.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    return Point(*locate_xy(m, SpecialRole(f"{which}_brocard")))


def s_point(m: Measures, vertex: str) -> Point:
    """Intersection of the symmedian from ``vertex`` with the arc through the
    opposite side's endpoints that contains the circumcenter.

    For vertex A this is S_A = (b²+c²−a² : b² : c²), the midpoint of the
    A-symmedian chord (the A-"Dumpty" point). Seen from S_A, the side BC
    subtends twice the vertex angle and the other two sides subtend its
    supplement, all as directed angles. At a right vertex angle the
    circumcenter lies on the opposite side, the arc degenerates, and the
    point is rejected.
    """
    return Point(*_s_xy(m, vertex))


def m_point(m: Measures, vertex: str) -> Point:
    """Special point on the median from ``vertex``.

    For vertex A this is M_A = (a² : b²+c²−a² : b²+c²−a²), the A-"Humpty"
    point: on the A-median and on circle BHC. Acute vertex angle: the
    mirror, in the midpoint E of the opposite side, of the median's second
    hit on the circumcircle. Obtuse vertex angle: the median's second hit on
    the circle through the opposite side's endpoints and the parallelogram
    point B + C − A. At a right vertex angle the two constructions meet at
    the vertex itself, and the point is rejected.
    """
    return Point(*_m_xy(m, vertex))


NAMED_POINTS: tuple[tuple[SpecialRole, str], ...] = (
    (SpecialRole("circumcenter"), "O"),
    (SpecialRole("orthocenter"), "H"),
    (SpecialRole("centroid"), "G"),
    (SpecialRole("incenter"), "L"),
    *((SpecialRole("excenter", v), f"excenter_{v}") for v in VERTEX_LABELS),
    (SpecialRole("first_brocard"), "Ω₁"),
    (SpecialRole("second_brocard"), "Ω₂"),
    *(
        (SpecialRole(role, v), f"{label}_{v}")
        for v in VERTEX_LABELS
        for role, label in (("s_role", "S"), ("m_role", "M"))
    ),
)
"""Every named point with a fixed location, with its row label, in the
order of the ``miquel centers`` table."""


def locate_xy(m: Measures, role: SpecialRole) -> tuple[float, float]:
    """Where ``role`` sits in the triangle measured as ``m``, as coordinates.

    Raises ``ValueError`` for a role with no single location (``none``, and
    ``q_role``, which is a whole arc), and ``RightAngleDegenerateError`` for
    ``s_role``/``m_role`` at a right vertex.
    """
    body = LOCATE_XY.get(role.role)
    if body is None:
        raise ValueError(f"{role} has no single location")
    return body(m, role.vertex)


def isogonal_conjugate(m: Measures, px: float, py: float) -> tuple[float, float]:
    """Point whose cevian rays mirror those of (px, py) over the angle
    bisectors.

    Computed in barycentric coordinates: weights (x:y:z) map to
    (a^2/x : b^2/y : c^2/z). Involutive away from the side lines and the
    circumcircle.
    """
    r = m.circumradius
    reject_side_lines(min_side_line_distance_xy(m.xy, px, py), r)
    ox, oy = m.circumcenter_xy
    if abs(math.hypot(ox - px, oy - py) - r) < LENGTH_EPS * r:
        raise GeometryError("the point lies on the circumcircle")
    ax, ay, bx, by, cx, cy = m.xy
    x = (bx - px) * (cy - py) - (by - py) * (cx - px)
    y = (cx - px) * (ay - py) - (cy - py) * (ax - px)
    z = (ax - px) * (by - py) - (ay - py) * (bx - px)
    la, lb, lc = m.side_lengths
    wa = la * la / x
    wb = lb * lb / y
    wc = lc * lc / z
    s = wa + wb + wc
    if abs(s) < 1e-13 * max(abs(wa), abs(wb), abs(wc)):
        raise GeometryError("conjugate weights cancel: point at infinity")
    return checked_xy(*_barycentric_xy(m, wa, wb, wc))


class CatalogEntry(NamedTuple):
    """One point whose pedal-family triangles reproduce the host's shape.

    ``order`` gives, for each host vertex A, B, C in turn, the index of the
    pedal-triangle vertex (0, 1, 2 for X on BC, Y on CA, Z on AB) carrying
    the equal angle, as ``kernel.shape_ratio`` reads it; ``mirrored`` says
    that the similarity reverses orientation, which a circumcircle inverse
    flips.
    """

    kind: SpecialRole
    location: tuple[float, float]
    order: tuple[int, int, int]
    mirrored: bool
    inverse: bool = False


# the catalog's interior points and correspondences, in NAMED_POINTS order
_CATALOG_PERMS = {
    SpecialRole("circumcenter"): ((0, 1, 2), False),
    SpecialRole("first_brocard"): ((2, 0, 1), False),
    SpecialRole("second_brocard"): ((1, 2, 0), False),
    SpecialRole("s_role", "A"): ((0, 2, 1), True),
    SpecialRole("s_role", "B"): ((2, 1, 0), True),
    SpecialRole("s_role", "C"): ((1, 0, 2), True),
}


def is_scalene(m: Measures) -> bool:
    """No two sides within ``LENGTH_EPS`` times the circumradius."""
    la, lb, lc = m.side_lengths
    eps = LENGTH_EPS * m.circumradius
    return abs(la - lb) > eps and abs(lb - lc) > eps and abs(lc - la) > eps


def is_right(m: Measures) -> bool:
    return any(abs(ang - HALF_PI) < ANGLE_EPS for ang in m.angles)


def eleven_point_catalog(xy: TriangleXY) -> list[CatalogEntry]:
    """The eleven points with shape-preserving pedal triangles of the
    triangle ``xy``, which ``measures_xy`` checks.

    Six sit inside the circumcircle (circumcenter, both Brocard points and
    the three symmedian points); the other five are their circumcircle
    inverses, the circumcenter having none.
    """
    m = measures_xy(xy)
    if not is_scalene(m):
        raise GeometryError("the catalog requires a scalene triangle")
    if is_right(m):
        raise GeometryError("the catalog requires a non-right triangle")
    interior = [
        CatalogEntry(role, checked_xy(*locate_xy(m, role)), order, mirrored)
        for role, (order, mirrored) in _CATALOG_PERMS.items()
    ]
    circle = (*m.circumcenter_xy, m.circumradius)
    exterior = [
        CatalogEntry(e.kind, invert_xy(circle, *e.location),
                     e.order, not e.mirrored, inverse=True)
        for e in interior[1:]
    ]
    return interior + exterior
