"""Named points of a triangle: classical centers, Brocard points, symmedian
and median special points, isogonal conjugation, circumcircle inversion, and
the full catalog of points whose pedal configuration reproduces the host
triangle's shape."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CollinearError,
    NoFiniteConjugateError,
    NotScaleneError,
    OnSideLineError,
    ParallelLinesError,
    RightAngleDegenerateError,
    RightTriangleError,
)
from .kernel import (
    DEFAULT_TOL,
    HALF_PI,
    VERTEX_LABELS,
    Circle,
    Line,
    Point,
    Tolerance,
    Triangle,
    circle_circle_intersections,
    circumcircle,
    invert_point,
    line_circle_intersections,
    line_line_intersection,
    midpoint,
    second_intersection,
)

CLASSIC_KINDS = ("circumcenter", "orthocenter", "centroid", "incenter", "excenter")
_ROLES_WITH_VERTEX = ("excenter", "s_role", "m_role", "q_role")


@dataclass(frozen=True)
class SpecialRole:
    """A named point of a triangle, with a vertex label for the names that
    come one per vertex."""

    role: str
    vertex: str | None = None

    def __post_init__(self) -> None:
        wants_vertex = self.role in _ROLES_WITH_VERTEX
        if wants_vertex and self.vertex not in VERTEX_LABELS:
            raise ValueError(f"{self.role} requires a vertex label A, B or C")
        if not wants_vertex and self.vertex is not None:
            raise ValueError(f"{self.role} does not take a vertex label")

    def __str__(self) -> str:
        return f"{self.role}({self.vertex})" if self.vertex else self.role


def circumcenter(t: Triangle) -> Point:
    return t.circumcircle.center


def orthocenter(t: Triangle) -> Point:
    # vector identity: H = A + B + C - 2*O
    o = circumcenter(t)
    return t.a + t.b + t.c - 2.0 * o


def centroid(t: Triangle) -> Point:
    return (t.a + t.b + t.c) / 3.0


def incenter(t: Triangle) -> Point:
    la, lb, lc = t.side_lengths
    return (la * t.a + lb * t.b + lc * t.c) / (la + lb + lc)


def excenter(t: Triangle, vertex: str) -> Point:
    """Center of the excircle opposite ``vertex``."""
    weights = list(t.side_lengths)
    weights[VERTEX_LABELS.index(vertex)] *= -1.0
    wa, wb, wc = weights
    return (wa * t.a + wb * t.b + wc * t.c) / (wa + wb + wc)


def classic_center(t: Triangle, role: SpecialRole) -> Point:
    if role.role not in CLASSIC_KINDS:
        raise ValueError(f"not a classic center kind: {role}")
    if role.role == "excenter":
        return excenter(t, role.vertex)
    return {
        "circumcenter": circumcenter,
        "orthocenter": orthocenter,
        "centroid": centroid,
        "incenter": incenter,
    }[role.role](t)


def symmedian_foot(t: Triangle, vertex: str) -> Point:
    """Point on the opposite side dividing it as the squared adjacent sides.

    For vertex A the foot D on BC satisfies BD/DC = (AB/AC)^2.
    """
    b, c = t.opposite(vertex)
    apex = t.vertex(vertex)
    ab2 = (b - apex).dot(b - apex)
    ac2 = (c - apex).dot(c - apex)
    return b + (ab2 / (ab2 + ac2)) * (c - b)


def _circle_tangent_at(at: Point, through: Point, tangent: Line, tol: Tolerance) -> Circle:
    """Circle through ``at`` and ``through`` tangent to ``tangent`` at ``at``."""
    normal_at = Line(at, tangent.direction.perp())
    chord = through - at
    bisector = Line(midpoint(at, through), chord.perp())
    try:
        center = line_line_intersection(normal_at, bisector, tol)
    except ParallelLinesError:
        raise CollinearError("tangency point, chord and line are degenerate") from None
    return Circle(center, center.dist(at))


def brocard_point(t: Triangle, which: str, tol: Tolerance = DEFAULT_TOL) -> Point:
    """First or second Brocard point via tangent-circle intersection.

    The first point equalizes the directed angles from each side to the
    cevian at its tail vertex; the second mirrors the condition. Both come
    out as the non-vertex intersection of two tangent circles through B.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    a, b, c = t.a, t.b, t.c
    if which == "first":
        c1 = _circle_tangent_at(b, a, Line.through(b, c), tol)
        c2 = _circle_tangent_at(c, b, Line.through(c, a), tol)
    else:
        c1 = _circle_tangent_at(a, b, Line.through(a, c), tol)
        c2 = _circle_tangent_at(b, c, Line.through(a, b), tol)
    candidates = circle_circle_intersections(c1, c2, tol)
    if not candidates:
        raise CollinearError("tangent circles failed to intersect")
    return max(candidates, key=lambda p: p.dist(b))


def s_point(t: Triangle, vertex: str, tol: Tolerance = DEFAULT_TOL) -> Point:
    """Intersection of the symmedian from ``vertex`` with the arc through the
    opposite side's endpoints that contains the circumcenter.

    Seen from the result P (vertex A), the side BC subtends twice the vertex
    angle and the other two sides subtend its supplement, all as directed
    angles.
    """
    if abs(t.angle(vertex) - HALF_PI) < tol.angle_eps:
        raise RightAngleDegenerateError(f"vertex angle at {vertex} is right")
    o = circumcenter(t)
    b, c = t.opposite(vertex)
    try:
        k = circumcircle(b, c, o, tol)
    except CollinearError:
        raise RightAngleDegenerateError(
            f"opposite side endpoints and circumcenter are collinear at {vertex}"
        ) from None
    sym = Line.through(t.vertex(vertex), symmedian_foot(t, vertex))
    base = Line.through(b, c)
    want = base.side(o)
    hits = line_circle_intersections(sym, k, tol)
    for p in hits:
        if base.side(p) == want:
            return p
    raise RightAngleDegenerateError(
        f"no symmedian intersection on the circumcenter side at {vertex}"
    )


def m_point(t: Triangle, vertex: str, tol: Tolerance = DEFAULT_TOL) -> Point:
    """Special point on the median from ``vertex``.

    Acute vertex angle: let E be the opposite side midpoint and F the second
    hit of the median on the circumcircle; the point mirrors F in E. Obtuse
    vertex angle: complete the parallelogram over E, then take the second
    hit of the median on the circle through the parallelogram point and the
    opposite side's endpoints.
    """
    ang = t.angle(vertex)
    if abs(ang - HALF_PI) < tol.angle_eps:
        raise RightAngleDegenerateError(f"vertex angle at {vertex} is right")
    apex = t.vertex(vertex)
    b, c = t.opposite(vertex)
    e = midpoint(b, c)
    median = Line.through(apex, e)
    if ang < HALF_PI:
        f = second_intersection(median, t.circumcircle, apex, tol).point
        return 2.0 * e - f
    f = b + c - apex
    k = circumcircle(f, b, c, tol)
    return second_intersection(median, k, f, tol).point


def isogonal_conjugate(t: Triangle, p: Point) -> Point:
    """Point whose cevian rays mirror those of ``p`` over the angle bisectors.

    Computed in barycentric coordinates: weights (x:y:z) map to
    (a^2/x : b^2/y : c^2/z). Involutive away from the side lines and the
    circumcircle.
    """
    eps = DEFAULT_TOL.length_eps(t.circumradius)
    if t.min_side_line_distance(p) < eps:
        raise OnSideLineError("the point lies on a side line")
    if abs(t.circumcircle.offset_of(p)) < eps:
        raise NoFiniteConjugateError("the point lies on the circumcircle")
    x = (t.b - p).cross(t.c - p)
    y = (t.c - p).cross(t.a - p)
    z = (t.a - p).cross(t.b - p)
    la, lb, lc = t.side_lengths
    wa = la * la / x
    wb = lb * lb / y
    wc = lc * lc / z
    s = wa + wb + wc
    if abs(s) < 1e-13 * max(abs(wa), abs(wb), abs(wc)):
        raise NoFiniteConjugateError("conjugate weights cancel: point at infinity")
    return (wa * t.a + wb * t.b + wc * t.c) / s


def inverse_in_circumcircle(t: Triangle, p: Point) -> Point:
    return invert_point(t.circumcircle, p)


@dataclass(frozen=True)
class CatalogEntry:
    """One point whose pedal-family triangles reproduce the host's shape.

    ``expected_similarity`` names, for each host vertex A, B, C in order,
    the pedal-triangle vertex (X on BC, Y on CA, Z on AB) carrying the equal
    angle.
    """

    kind: SpecialRole
    location: Point
    expected_similarity: str
    inverse: bool = False


_CATALOG_PERMS = {
    "circumcenter": "XYZ",
    "first_brocard": "ZXY",
    "second_brocard": "YZX",
    ("s_role", "A"): "XZY",
    ("s_role", "B"): "ZYX",
    ("s_role", "C"): "YXZ",
}


def eleven_point_catalog(t: Triangle) -> list[CatalogEntry]:
    """The eleven points with shape-preserving pedal triangles.

    Six sit inside the circumcircle (circumcenter, both Brocard points and
    the three symmedian points); the other five are their circumcircle
    inverses, the circumcenter having none.
    """
    if not t.is_scalene():
        raise NotScaleneError("the catalog requires a scalene triangle")
    if t.is_right():
        raise RightTriangleError("the catalog requires a non-right triangle")
    interior = [
        CatalogEntry(SpecialRole("circumcenter"), circumcenter(t), _CATALOG_PERMS["circumcenter"]),
        CatalogEntry(SpecialRole("first_brocard"), brocard_point(t, "first"),
                     _CATALOG_PERMS["first_brocard"]),
        CatalogEntry(SpecialRole("second_brocard"), brocard_point(t, "second"),
                     _CATALOG_PERMS["second_brocard"]),
    ]
    for v in VERTEX_LABELS:
        interior.append(
            CatalogEntry(SpecialRole("s_role", v), s_point(t, v),
                         _CATALOG_PERMS[("s_role", v)])
        )
    exterior = [
        CatalogEntry(e.kind, inverse_in_circumcircle(t, e.location),
                     e.expected_similarity, inverse=True)
        for e in interior[1:]
    ]
    return interior + exterior
