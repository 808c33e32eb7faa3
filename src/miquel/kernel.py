"""Floating-point plane-geometry primitives with explicit tolerance contracts.

Angles between lines are floats kept modulo a half turn, reduced to
(-pi/2, pi/2] by ``half_turn`` and compared by ``angle_distance``, so that
every identity holds in one code path regardless of configuration (obtuse
hosts, points on side extensions, exterior points). Length tolerances are
relative and scale with the size of the figure under discussion; angle
tolerances are absolute.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import CollinearError, GeometryError, OnSideLineError

HALF_PI = 0.5 * math.pi
VERTEX_LABELS = ("A", "B", "C")


# absolute angle tolerance, in radians
ANGLE_EPS = 1e-9

# relative length tolerance: multiplied by the scale of the figure at hand,
# typically the circumradius of the working triangle
LENGTH_EPS = 1e-9

# Inside this range the constructions on a triangle neither overflow nor
# underflow: the Brocard weights are quartic in the sides and the
# collinearity test squares the longest side, and both stay far from the
# float limits (1e308, 1e-308). Scenes and chain steps are held to it.
MAX_COORDINATE = 1e50
MIN_LONGEST_SIDE = 1e-50

# sets a field of a Frozen instance, in its __init__ only
set_field = object.__setattr__


# only for Point and Triangle, pinned by bench/layers.py (COUNTED_CLASSES, METHODS) until it changes
class Frozen:
    """Base of the immutable value types. A subclass lists its fields in
    ``_fields`` and sets each once in its ``__init__`` through ``set_field``;
    assignment and deletion afterwards raise ``AttributeError``. Equality,
    hash, repr and copying go by the fields, in that order, and instances
    of different classes are never equal."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Point(Frozen):
    """Cartesian position, checked finite; iterates as its (x, y) pair."""

    __slots__ = _fields = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinates ({x}, {y})")
        set_field(self, "x", x)
        set_field(self, "y", y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def checked_xy(*xy: float) -> tuple[float, ...]:
    """The coordinates ``xy`` of one or more points, as they are once all are
    finite; else a ``ValueError`` naming them, for one point the message
    ``Point`` gives."""
    if not all(map(math.isfinite, xy)):
        raise ValueError(f"non-finite coordinates {xy}")
    return xy


def midpoint(p, q) -> tuple[float, float]:
    """The midpoint of the points ``p`` and ``q``, each an (x, y) pair."""
    (px, py), (qx, qy) = p, q
    return 0.5 * (px + qx), 0.5 * (py + qy)


def half_turn(value: float) -> float:
    """Reduce an angle between lines, taken modulo a half turn, to its
    representative in (-pi/2, pi/2], which it leaves as it is."""
    r = math.remainder(value, math.pi)
    if r <= -HALF_PI:
        r += math.pi
    return r


def angle_distance(u: float, v: float) -> float:
    """Circular distance modulo pi of the directed angles ``u`` and ``v``,
    in [0, pi/2]."""
    return abs(math.remainder(u - v, math.pi))


# Coordinate forms. Each is the one body of its formula, which the
# constructions, the chain step and the suites call on plain floats. Their
# float operations and their order are pinned with == in
# tests/test_coordinate_forms.py, as are the forms hot callers write out in
# line (side_lengths_xy and circle_xy the collinearity test, circumcircle
# checked_circle's, directed_angle_xy half_turn, centers.measures_xy four
# forms), against the calls they replace, by its "written-out forms" tests.

# a circle on coordinates: (center x, center y, radius)
CircleXY = tuple[float, float, float]

# a line on coordinates: (anchor x, anchor y, unit direction x, unit
# direction y), the first four arguments of offset_xy, project_xy, reflect_xy
LineXY = tuple[float, float, float, float]

# a triangle on coordinates: (ax, ay, bx, by, cx, cy)
TriangleXY = tuple[float, float, float, float, float, float]


def unit_direction(dx: float, dy: float) -> tuple[float, float]:
    """A line's normalization rule: (dx, dy) divided by its length, or as it
    is when that length is within 1e-14 of 1."""
    n = math.hypot(dx, dy)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("line direction must be a nonzero finite vector")
    if abs(n - 1.0) > 1e-14:
        return dx / n, dy / n
    return dx, dy


def offset_xy(ax: float, ay: float, dx: float, dy: float, px: float, py: float) -> float:
    """Signed distance of (px, py) from the line through (ax, ay) along the
    unit direction (dx, dy)."""
    return dx * (py - ay) - dy * (px - ax)


def project_xy(
    ax: float, ay: float, dx: float, dy: float, px: float, py: float
) -> tuple[float, float]:
    """Foot of (px, py) on the line through (ax, ay) along the unit direction
    (dx, dy)."""
    t = (px - ax) * dx + (py - ay) * dy
    return ax + t * dx, ay + t * dy


def reflect_xy(
    ax: float, ay: float, dx: float, dy: float, px: float, py: float
) -> tuple[float, float]:
    """Mirror image of (px, py) in the line through (ax, ay) along the unit
    direction (dx, dy)."""
    fx, fy = project_xy(ax, ay, dx, dy, px, py)
    return 2.0 * fx - px, 2.0 * fy - py


def line_through(p, q) -> LineXY:
    """The line through the points ``p`` and ``q``, each an (x, y) pair,
    anchored at ``p``; coincident points give a zero direction, which
    ``unit_direction`` rejects."""
    (px, py), (qx, qy) = p, q
    return (px, py, *unit_direction(qx - px, qy - py))


def side_lengths_xy(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> tuple[float, float, float]:
    """|BC|, |CA|, |AB| of the triangle on these vertices; raises
    ``CollinearError`` for exactly the triples ``circumcircle`` calls
    collinear, and ``checked_xy``'s ``ValueError`` when B − A or C − A is not
    finite."""
    q2x, q2y = bx - ax, by - ay
    q3x, q3y = cx - ax, cy - ay
    # a sum of finite differences may overflow too; then both pass the check
    if not math.isfinite(q2x + q2y + q3x + q3y):
        checked_xy(q2x, q2y)
        checked_xy(q3x, q3y)
    la = math.hypot(bx - cx, by - cy)
    lb = math.hypot(cx - ax, cy - ay)
    lc = math.hypot(ax - bx, ay - by)
    span = max(la, lb, lc)
    if abs(2.0 * (q2x * q3y - q2y * q3x)) <= 2.0 * LENGTH_EPS * span * span:
        raise CollinearError("degenerate triangle: collinear within tolerance")
    return la, lb, lc


def circle_xy(x1: float, y1: float, x2: float, y2: float, x3: float, y3: float) -> CircleXY:
    """Center and radius of the circle through three points, as
    (center x, center y, radius); raises ``CollinearError`` when the points
    are collinear within tolerance."""
    q2x, q2y = x2 - x1, y2 - y1
    q3x, q3y = x3 - x1, y3 - y1
    cross = q2x * q3y - q2y * q3x
    span = max(math.hypot(q2x, q2y), math.hypot(q3x, q3y), math.hypot(x3 - x2, y3 - y2))
    if abs(2.0 * cross) <= 2.0 * LENGTH_EPS * span * span:
        raise CollinearError("the three points are collinear within tolerance")
    d = 2.0 * cross
    m2 = q2x * q2x + q2y * q2y
    m3 = q3x * q3x + q3y * q3y
    ux = (m2 * q3y - m3 * q2y) / d
    uy = (m3 * q2x - m2 * q3x) / d
    return x1 + ux, y1 + uy, math.hypot(ux, uy)


def checked_circle(circle: CircleXY) -> CircleXY:
    """``circle`` as it is, once its center is finite (else ``checked_xy``'s
    ``ValueError``) and then its radius finite and positive."""
    cx, cy, r = circle
    checked_xy(cx, cy)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be strictly positive, got {r}")
    return circle


def circumcircle(x1: float, y1: float, x2: float, y2: float, x3: float, y3: float) -> CircleXY:
    """The circle through three pairwise distinct, non-collinear points:
    ``circle_xy`` with the errors of ``checked_circle``, tested in line."""
    circle = ox, oy, r = circle_xy(x1, y1, x2, y2, x3, y3)
    if not (math.isfinite(ox) and math.isfinite(oy)):
        raise ValueError(f"non-finite coordinates {(ox, oy)}")
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be strictly positive, got {r}")
    return circle


def shape_ratio(xy: TriangleXY, order: tuple[int, int, int]) -> complex:
    """(B − A)/(C − A) of the triangle ``xy`` with its vertices taken in ``order``
    (indices into A, B, C): equal for directly similar triangles, conjugate
    for oppositely similar ones."""
    i, j, k = order
    ax, ay = xy[2 * i], xy[2 * i + 1]
    return complex(xy[2 * j] - ax, xy[2 * j + 1] - ay) / complex(xy[2 * k] - ax, xy[2 * k + 1] - ay)


def shape_gap(r1: complex, r2: complex, mirrored: bool) -> float:
    """|r2 − r1| / |r1|, with r2 conjugated for a ``mirrored`` correspondence."""
    return abs((r2.conjugate() if mirrored else r2) - r1) / abs(r1)


def line_line_intersection(l1: LineXY, l2: LineXY) -> Point:
    ax, ay, dx, dy = l1
    bx, by, ex, ey = l2
    den = dx * ey - dy * ex
    # unit directions: |den| = sin of the angle between the lines
    if abs(den) < ANGLE_EPS:
        raise GeometryError("lines are parallel within tolerance")
    t = ((bx - ax) * ey - (by - ay) * ex) / den
    return Point(ax + t * dx, ay + t * dy)


def directed_angle_xy(px: float, py: float, qx: float, qy: float, rx: float, ry: float) -> float:
    """Directed angle from the line through (qx, qy) and (px, py) to the line
    through (qx, qy) and (rx, ry), modulo a half turn; ``GeometryError`` when
    a leg collapses onto the apex."""
    qpx, qpy = px - qx, py - qy
    qrx, qry = rx - qx, ry - qy
    n_qp = math.hypot(qpx, qpy)
    n_qr = math.hypot(qrx, qry)
    scale = max(n_qp, n_qr)
    if scale == 0.0 or min(n_qp, n_qr) < LENGTH_EPS * scale:
        raise GeometryError("angle leg collapses onto the apex")
    # needs no finiteness check: the legs of finite points are finite or
    # overflow to infinity, and atan2 of either is finite; half_turn in line
    r = math.remainder(math.atan2(qry, qrx) - math.atan2(qpy, qpx), math.pi)
    return r + math.pi if r <= -HALF_PI else r


def corners_xy(xy: TriangleXY, label: str) -> tuple[tuple[float, float], ...]:
    """The vertex ``label`` of the triangle ``xy``, then the endpoints of the
    side opposite it in cyclic order, as (x, y) pairs."""
    i = 2 * VERTEX_LABELS.index(label)
    return tuple([(xy[k], xy[k + 1]) for k in (i, (i + 2) % 6, (i + 4) % 6)])


def directed_angle_at_xy(xy: TriangleXY, label: str) -> float:
    """Directed interior angle of the triangle ``xy`` at the vertex ``label``,
    e.g. at A: from line AB to line AC."""
    apex, b, c = corners_xy(xy, label)
    return directed_angle_xy(*b, *apex, *c)


def min_side_line_distance_xy(xy: TriangleXY, px: float, py: float) -> float:
    """Distance of (px, py) from the nearest side line of the triangle ``xy``."""
    ax, ay, bx, by, cx, cy = xy
    return min(abs(offset_xy(bx, by, *unit_direction(cx - bx, cy - by), px, py)),
               abs(offset_xy(cx, cy, *unit_direction(ax - cx, ay - cy), px, py)),
               abs(offset_xy(ax, ay, *unit_direction(bx - ax, by - ay), px, py)))


def circle_circle_intersections(c1: CircleXY, c2: CircleXY) -> list[Point]:
    """0, 1 or 2 intersection points via the radical-line decomposition.

    Candidates closer than the length tolerance collapse to a single
    tangency point so downstream constructions never see twin points.
    """
    x1, y1, r1 = c1
    x2, y2, r2 = c2
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    scale = max(r1, r2, d)
    eps = LENGTH_EPS * scale
    if d < eps and abs(r1 - r2) < eps:
        raise GeometryError("the circles coincide within tolerance")
    if d == 0.0:
        return []  # concentric, distinct radii
    # foot of the radical line on the center line, measured from c1
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    ux, uy = dx / d, dy / d
    fx, fy = x1 + ux * a, y1 + uy * a
    # candidates sit 2*sqrt(h2) apart; collapse within the tolerance band
    band = 0.25 * eps * eps
    if h2 < -band:
        return []
    if h2 <= band:
        return [Point(fx, fy)]
    h = math.sqrt(h2)
    if 2.0 * h < eps:
        return [Point(fx, fy)]
    # foot ± h times u turned a quarter counter-clockwise
    return [Point(fx - uy * h, fy + ux * h), Point(fx + uy * h, fy - ux * h)]


def line_circle_intersections(l: LineXY, c: CircleXY) -> list[Point]:
    """0, 1 or 2 intersection points, with the same tangency collapse rule."""
    cx, cy, r = c
    fx, fy = project_xy(*l, cx, cy)
    ex, ey = fx - cx, fy - cy
    h2 = r * r - (ex * ex + ey * ey)
    eps = LENGTH_EPS * r
    band = 0.25 * eps * eps
    if h2 < -band:
        return []
    if h2 <= band:
        return [Point(fx, fy)]
    h = math.sqrt(h2)
    if 2.0 * h < eps:
        return [Point(fx, fy)]
    _, _, dx, dy = l
    return [Point(fx + dx * h, fy + dy * h), Point(fx - dx * h, fy - dy * h)]


def invert_xy(c: CircleXY, px: float, py: float) -> tuple[float, float]:
    """Image of (px, py) under inversion in ``c``; involutive on its domain."""
    cx, cy, r = c
    ox, oy = px - cx, py - cy
    d2 = ox * ox + oy * oy
    if math.sqrt(d2) < LENGTH_EPS * r:
        raise GeometryError("the center inverts to an infinite point")
    k = r * r / d2
    return checked_xy(cx + ox * k, cy + oy * k)


def second_intersection(l: LineXY, c: CircleXY, known) -> tuple[float, float]:
    """Other intersection of a line and circle already meeting at ``known``,
    an (x, y) pair.

    Both intersection points are mirror images in the perpendicular foot of
    the center, so no square root is needed. Tangency returns ``known``
    itself.
    """
    cx, cy, r = c
    kx, ky = known
    eps = LENGTH_EPS * r
    if abs(offset_xy(*l, kx, ky)) > eps or abs(math.hypot(cx - kx, cy - ky) - r) > eps:
        raise GeometryError("the known point is not on both the line and the circle")
    fx, fy = project_xy(*l, cx, cy)
    ox, oy = fx * 2.0 - kx, fy * 2.0 - ky
    return (kx, ky) if math.hypot(ox - kx, oy - ky) < eps else checked_xy(ox, oy)


def contains_xy(xy: TriangleXY, px: float, py: float) -> bool:
    """True when (px, py) is strictly inside the triangle ``xy``: on the inner
    side of each edge AB, BC, CA, read with the sign of the triangle's area."""
    ax, ay, bx, by, cx, cy = xy
    sign = 1 if 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) > 0.0 else -1
    return all(
        sign * ((hx - tx) * (py - ty) - (hy - ty) * (px - tx)) > 0.0
        for tx, ty, hx, hy in ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    )


class Triangle(Frozen):
    """Three labeled, non-collinear vertices with orientation.

    Construction rejects exactly the triples ``circumcircle`` would call
    collinear (``side_lengths_xy``). Thin triangles whose circumcircle is
    well conditioned are accepted.
    """

    _fields = ("a", "b", "c")
    a: Point
    b: Point
    c: Point

    def __init__(self, a: Point, b: Point, c: Point) -> None:
        # side_lengths, set only here: the lengths opposite A, B, C (i.e.
        # |BC|, |CA|, |AB|)
        side_lengths = side_lengths_xy(a.x, a.y, b.x, b.y, c.x, c.y)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "side_lengths", side_lengths)

    @property
    def xy(self) -> TriangleXY:
        a, b, c = self.a, self.b, self.c
        return (a.x, a.y, b.x, b.y, c.x, c.y)

    def min_side_line_distance(self, p: Point) -> float:
        """Distance of ``p`` from the nearest side line."""
        return min_side_line_distance_xy(self.xy, p.x, p.y)


def reject_side_lines(distance: float, circumradius: float) -> None:
    """Reject a point ``distance`` away from the nearest side line of a
    triangle with this circumradius (``min_side_line_distance_xy``)."""
    if distance < LENGTH_EPS * circumradius:
        raise OnSideLineError("the point lies on a side line of the triangle")
