"""Named points of a triangle: classical centers, Brocard points, symmedian
and median special points, isogonal conjugation, circumcircle inversion, and
the full catalog of points whose pedal configuration reproduces the host
triangle's shape."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GeometryError, RightAngleDegenerateError
from .kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    VERTEX_LABELS,
    Point,
    TriangleXY,
    checked_circle,
    checked_xy,
    circle_xy,
    corners_xy,
    invert_xy,
    min_side_line_distance_xy,
    reject_side_lines,
    side_lengths_xy,
)


class SpecialRole(NamedTuple):
    """A named point of a triangle, with a vertex label A, B or C for the
    names that come one per vertex (``excenter``, ``s_role``, ``m_role``,
    ``q_role``) and None for every other."""

    role: str
    vertex: str | None = None

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


def measures_xy(xy: TriangleXY) -> Measures:
    """The measures of the triangle ``xy``: its side lengths and what they
    raise from ``side_lengths_xy``, then its circumcircle from ``circle_xy``,
    checked by ``checked_circle``, the squared sides, and each angle as atan2
    of the cross and dot products of its legs."""
    ax, ay, bx, by, cx, cy = xy
    la, lb, lc = side_lengths_xy(ax, ay, bx, by, cx, cy)
    ox, oy, r = checked_circle(circle_xy(ax, ay, bx, by, cx, cy))
    q2x, q2y = bx - ax, by - ay
    q3x, q3y = cx - ax, cy - ay
    bcx, bcy = cx - bx, cy - by
    angles = (math.atan2(abs(q2x * q3y - q2y * q3x), q2x * q3x + q2y * q3y),
              math.atan2(abs(bcy * q2x - bcx * q2y), -bcx * q2x - bcy * q2y),
              math.atan2(abs(q3x * bcy - q3y * bcx), q3x * bcx + q3y * bcy))
    squared = (bcx * bcx + bcy * bcy, q3x * q3x + q3y * q3y, q2x * q2x + q2y * q2y)
    return Measures(xy, (la, lb, lc), squared, angles, (ox, oy), r)


def _barycentric_xy(m: Measures, wa: float, wb: float, wc: float) -> tuple[float, float] | None:
    """The point with barycentric weights (wa : wb : wc) over A, B, C, or
    None when it is at infinity: their sum cancels below 1e-13 times the
    largest weight, in absolute value."""
    ax, ay, bx, by, cx, cy = m.xy
    s = wa + wb + wc
    if abs(s) < 1e-13 * max(abs(wa), abs(wb), abs(wc)):
        return None
    return (wa * ax + wb * bx + wc * cx) / s, (wa * ay + wb * by + wc * cy) / s


# Where each named point sits, on coordinates: the one body of each formula.
# The points that need no vertex share a body, which writes out the float
# operations of ``_barycentric_xy``, s being the weight sum: their weights
# never cancel. Each excenter, and S_v with M_v, have one per vertex, which
# calls it, so None stands for a point at infinity. ``named_points_xy`` reads
# them all for the whole table, which role detection uses; ``locate_xy``,
# and through it the CLI, the figures and the suites, calls the one body a
# role needs.

def _vertex_free_xy(m: Measures) -> tuple[tuple[float, float], ...]:
    """O, H, G, the incenter and the first and second Brocard points."""
    ax, ay, bx, by, cx, cy = m.xy
    la, lb, lc = m.side_lengths
    a2, b2, c2 = m.squared_sides
    ox, oy = m.circumcenter_xy
    sx, sy = ax + bx + cx, ay + by + cy
    s = la + lb + lc
    incenter = (la * ax + lb * bx + lc * cx) / s, (la * ay + lb * by + lc * cy) / s
    wa, wb, wc = c2 * a2, a2 * b2, b2 * c2
    s = wa + wb + wc
    first = (wa * ax + wb * bx + wc * cx) / s, (wa * ay + wb * by + wc * cy) / s
    s = wb + wc + wa
    second = (wb * ax + wc * bx + wa * cx) / s, (wb * ay + wc * by + wa * cy) / s
    # vector identity: H = A + B + C - 2*O
    return ((ox, oy), (sx - 2.0 * ox, sy - 2.0 * oy), (sx / 3.0, sy / 3.0), incenter,
            first, second)


def _excenters_xy(m: Measures) -> tuple[tuple[float, float] | None, ...]:
    """The excenters opposite A, B and C: the incenter's weights with the
    one at that vertex negated."""
    la, lb, lc = m.side_lengths
    return (_barycentric_xy(m, -la, lb, lc), _barycentric_xy(m, la, -lb, lc),
            _barycentric_xy(m, la, lb, -lc))


def _s_m_xy(m: Measures, i: int) -> tuple[tuple[float, float] | None, ...] | None:
    """S_v and M_v at the vertex v of index ``i``, or None when the angle
    at v is right. With k = b² + c² − a², S_A = (k : b² : c²) and
    M_A = (a² : k : k); the other vertices rotate the weights."""
    if abs(m.angles[i] - HALF_PI) < ANGLE_EPS:
        return None
    a2, b2, c2 = m.squared_sides
    if i == 0:
        k = b2 + c2 - a2
        (sa, sb, sc), (ma, mb, mc) = (k, b2, c2), (a2, k, k)
    elif i == 1:
        k = c2 + a2 - b2
        (sa, sb, sc), (ma, mb, mc) = (a2, k, c2), (k, b2, k)
    else:
        k = a2 + b2 - c2
        (sa, sb, sc), (ma, mb, mc) = (a2, b2, k), (k, k, c2)
    return _barycentric_xy(m, sa, sb, sc), _barycentric_xy(m, ma, mb, mc)


def symmedian_foot(m: Measures, vertex: str) -> tuple[float, float]:
    """Point on the side opposite ``vertex`` of the triangle measured as
    ``m``, dividing it as the squared adjacent sides, checked.

    For vertex A the foot D on BC satisfies BD/DC = (AB/AC)^2.
    """
    i = VERTEX_LABELS.index(vertex)
    _, (bx, by), (cx, cy) = corners_xy(m.xy, vertex)
    ab2 = m.squared_sides[(i + 2) % 3]
    t = ab2 / (ab2 + m.squared_sides[(i + 1) % 3])
    return checked_xy(bx + t * (cx - bx), by + t * (cy - by))


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
    return Point(*locate_xy(m, SpecialRole("s_role", vertex)))


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
    return Point(*locate_xy(m, SpecialRole("m_role", vertex)))


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


# the index of each vertex-free role in what ``_vertex_free_xy`` returns
_VERTEX_FREE = {"circumcenter": 0, "orthocenter": 1, "centroid": 2, "incenter": 3,
                "first_brocard": 4, "second_brocard": 5}


def locate_xy(m: Measures, role: SpecialRole) -> tuple[float, float]:
    """Where ``role`` sits in the triangle measured as ``m``, as coordinates
    checked by ``checked_xy``.

    Raises ``ValueError`` for a role with no single location (``none``, and
    ``q_role``, which is a whole arc) and for a location that is not finite,
    ``RightAngleDegenerateError`` for ``s_role``/``m_role`` at a right
    vertex, and ``GeometryError`` for a point at infinity.
    """
    name = role.role
    if name in _VERTEX_FREE:
        loc = _vertex_free_xy(m)[_VERTEX_FREE[name]]
    elif name == "excenter":
        loc = _excenters_xy(m)[VERTEX_LABELS.index(role.vertex)]
    elif name in ("s_role", "m_role"):
        s_m = _s_m_xy(m, VERTEX_LABELS.index(role.vertex))
        if s_m is None:
            raise RightAngleDegenerateError(f"vertex angle at {role.vertex} is right")
        loc = s_m[name == "m_role"]
    else:
        raise ValueError(f"{role} has no single location")
    if loc is None:
        raise GeometryError(f"{role} is at infinity: its weights cancel")
    return checked_xy(*loc)


_NO_S_M = None, None  # the rows of S_v and M_v at a right angle at v


def named_points_xy(m: Measures) -> tuple[tuple[float, float] | None, ...]:
    """``locate_xy`` of every role of ``NAMED_POINTS``, in its order, from
    the measures ``m``, unchecked, with None where it raises
    ``GeometryError``: S_v and M_v at a right vertex, and a point at
    infinity."""
    o, h, g, incenter, first, second = _vertex_free_xy(m)
    s_a, m_a = _s_m_xy(m, 0) or _NO_S_M
    s_b, m_b = _s_m_xy(m, 1) or _NO_S_M
    s_c, m_c = _s_m_xy(m, 2) or _NO_S_M
    return (o, h, g, incenter, *_excenters_xy(m), first, second, s_a, m_a, s_b, m_b, s_c, m_c)


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
    conjugate = _barycentric_xy(m, wa, wb, wc)
    if conjugate is None:
        raise GeometryError("conjugate weights cancel: point at infinity")
    return checked_xy(*conjugate)


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


def eleven_point_catalog(m: Measures) -> list[CatalogEntry]:
    """The eleven points with shape-preserving pedal triangles of the
    triangle measured as ``m``.

    Six sit inside the circumcircle (circumcenter, both Brocard points and
    the three symmedian points); the other five are their circumcircle
    inverses, the circumcenter having none.
    """
    if not is_scalene(m):
        raise GeometryError("the catalog requires a scalene triangle")
    if is_right(m):
        raise GeometryError("the catalog requires a non-right triangle")
    interior = [
        CatalogEntry(role, locate_xy(m, role), order, mirrored)
        for role, (order, mirrored) in _CATALOG_PERMS.items()
    ]
    circle = (*m.circumcenter_xy, m.circumradius)
    exterior = [
        CatalogEntry(e.kind, invert_xy(circle, *e.location),
                     e.order, not e.mirrored, inverse=True)
        for e in interior[1:]
    ]
    return interior + exterior
