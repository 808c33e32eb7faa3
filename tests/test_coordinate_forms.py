"""The coordinate forms of the hot paths against their vector-operator forms.

`kernel`, `centers` and `triads` spell their vector expressions coordinate by
coordinate. Each form must do the operator form's float operations in the
same order, so the two agree with `==`, not within a tolerance. The operator
forms below are those oracles, written in `_Vec`, a checked 2-vector with the
operators `+`, `-`, `*`, `/`, `dot` and `cross`; a later edit that
reassociates a sum or a product fails here. Circles and lines are coordinate
tuples, `CircleXY` (center x, center y, radius) and `LineXY` (anchor x,
anchor y, unit direction x, unit direction y); the oracles build their
center, anchor and direction vectors from the tuple.

The chain step runs on the same coordinate bodies as `family_member` and
`miquel_point` (`family_xy`, `miquel_xy`), so its triangles and Miquel
points equal theirs. `pedal_triad` is `family_member` at theta = 0, so its
feet are the side lines' projections of the point, on a side line too.
`min_side_line_distance_xy` and `Triangle.min_side_line_distance` read the
same floats as `family_xy`'s nearest distance, which the chain step and
`containment_parity` hand to their guard.

Theorem1 takes its triad from `triad_xy` and its residual from
`miquel_residual` (`miquel_point`'s), and `containment_parity` tests
containment with `contains_xy`.

Some hot forms write others out in line rather than call them:
`centers.measures_xy` calls `side_lengths_xy` and `checked_circle` and
spells `circle_xy`'s arithmetic and the squared sides and interior angles
(`_squared_sides_xy`, `_angles_xy` below); `circle_xy` and `side_lengths_xy`
each spell the collinearity test. `checked_circle` is the one body of the
circle check, which `circumcircle` calls, and `directed_angle_xy` calls
`half_turn`. The tests under "written-out forms" pin each against the calls it
replaced, in values and in what it raises.
"""

import itertools
import math

import pytest

from helpers import contains_by_operators, opposite, orientation
from miquel import centers, chains, kernel
from miquel.centers import NAMED_POINTS, locate_xy, measures_xy
from miquel.chains import iterate_chain
from miquel.errors import CollinearError, GeometryError, RightAngleDegenerateError
from miquel.kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    Point,
    Triangle,
    checked_circle,
    checked_xy,
    circle_xy,
    circumcircle,
    contains_xy,
    directed_angle_at_xy,
    directed_angle_xy,
    line_through,
    midpoint,
    offset_xy,
    project_xy,
    reflect_xy,
    shape_gap,
    shape_ratio,
    min_side_line_distance_xy,
    side_lengths_xy,
    unit_direction,
)
from miquel.sampling import (
    random_acute_triangle,
    random_exterior_point,
    random_interior_point,
    random_isosceles,
    random_obtuse_at,
    rng_for,
    triangle_from_angles,
)
from miquel.triads import (
    PEDAL_SIMILARITY_TOL,
    cevian_angles_xy,
    checked_triad,
    classify_similarity,
    family_member,
    family_xy,
    miquel_point,
    miquel_angles_xy,
    miquel_residual,
    miquel_xy,
    pedal_triad,
    triad_params,
    triad_xy,
)


class _Vec(tuple):
    """A 2-vector, finite as ``checked_xy`` checks it and equal to its (x, y)
    pair, with the operators the oracles below are written in."""

    def __new__(cls, x: float, y: float) -> "_Vec":
        return super().__new__(cls, checked_xy(x, y))

    x = property(lambda self: self[0])
    y = property(lambda self: self[1])

    def __add__(self, other) -> "_Vec":
        return _Vec(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other) -> "_Vec":
        return _Vec(self[0] - other[0], self[1] - other[1])

    def __mul__(self, s: float) -> "_Vec":
        return _Vec(self[0] * s, self[1] * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "_Vec":
        return _Vec(self[0] / s, self[1] / s)

    def dot(self, other) -> float:
        return self[0] * other[0] + self[1] * other[1]

    def cross(self, other) -> float:
        return self[0] * other[1] - self[1] * other[0]


def _points(xy) -> tuple[_Vec, _Vec, _Vec]:
    """The three points of ``xy``, a TriangleXY: a host's A, B, C or a
    triad's X, Y, Z."""
    return _Vec(*xy[0:2]), _Vec(*xy[2:4]), _Vec(*xy[4:6])


def _hosts_and_points():
    """1000 acute and obtuse hosts, each with an interior and an exterior
    point and a rotation in (-1.2, 1.2)."""
    rng = rng_for(0, "coordinate-forms", 0)
    cases = []
    for _ in range(250):
        hosts = (random_acute_triangle(rng), *(random_obtuse_at(rng, v) for v in "ABC"))
        for xy in hosts:
            points = (_Vec(*random_interior_point(rng, xy)),
                      _Vec(*random_exterior_point(rng, xy, circumcircle(*xy))))
            cases.append((xy, points, rng.uniform(-1.2, 1.2)))
    return cases


CASES = _hosts_and_points()


# ---------------------------------------------------------------- the operator forms

def _circumcircle_by_operators(p1, p2, p3):
    q2 = p2 - p1
    q3 = p3 - p1
    cross = q2.cross(q3)
    span = max(math.hypot(*q2), math.hypot(*q3), math.dist(p3, p2))
    assert not abs(2.0 * cross) <= 2.0 * LENGTH_EPS * span * span
    d = 2.0 * cross
    m2 = q2.dot(q2)
    m3 = q3.dot(q3)
    ux = (m2 * q3.y - m3 * q2.y) / d
    uy = (m3 * q2.x - m2 * q3.x) / d
    return _Vec(p1.x + ux, p1.y + uy), math.hypot(ux, uy)


def _side_lengths_by_operators(a, b, c):
    """Triangle's construction test on vector differences."""
    area2 = (b - a).cross(c - a)
    la, lb, lc = math.dist(b, c), math.dist(c, a), math.dist(a, b)
    span = max(la, lb, lc)
    if abs(2.0 * area2) <= 2.0 * LENGTH_EPS * span * span:
        raise CollinearError("degenerate triangle: collinear within tolerance")
    return la, lb, lc


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, CollinearError) as exc:
        return type(exc), str(exc)


def _direction_by_operators(p, q):
    d = q - p
    n = math.hypot(*d)
    return d / n if abs(n - 1.0) > 1e-14 else d


def _anchor_and_direction(line):
    ax, ay, dx, dy = line
    return _Vec(ax, ay), _Vec(dx, dy)


def _offset_by_operators(line, p):
    anchor, direction = _anchor_and_direction(line)
    return direction.cross(p - anchor)


def _at_by_operators(line, t):
    anchor, direction = _anchor_and_direction(line)
    return anchor + t * direction


def _project_by_operators(line, p):
    anchor, direction = _anchor_and_direction(line)
    return _at_by_operators(line, (p - anchor).dot(direction))


def _reflect_by_operators(line, p):
    return 2.0 * _project_by_operators(line, p) - p


def _directed_angle_by_operators(p, q, r):
    (rx, ry), (px, py) = r - q, p - q
    return kernel.half_turn(math.atan2(ry, rx) - math.atan2(py, px))


def _interior_by_operators(apex, p, q):
    u = p - apex
    v = q - apex
    return math.atan2(abs(u.cross(v)), u.dot(v))


def _angles_by_operators(xy):
    a, b, c = _points(xy)
    return (_interior_by_operators(a, b, c), _interior_by_operators(b, c, a),
            _interior_by_operators(c, a, b))


def _from_barycentric_by_operators(xy, wa, wb, wc):
    a, b, c = _points(xy)
    return (wa * a + wb * b + wc * c) / (wa + wb + wc)


def _squared_sides_by_operators(xy):
    a, b, c = _points(xy)
    return ((c - b).dot(c - b), (a - c).dot(a - c), (b - a).dot(b - a))


def _isogonal_conjugate_by_operators(xy, p):
    a, b, c = _points(xy)
    x = (b - p).cross(c - p)
    y = (c - p).cross(a - p)
    z = (a - p).cross(b - p)
    la, lb, lc = side_lengths_xy(*xy)
    wa = la * la / x
    wb = lb * lb / y
    wc = lc * lc / z
    return (wa * a + wb * b + wc * c) / (wa + wb + wc)


def _orthocenter_by_operators(xy):
    a, b, c = _points(xy)
    return a + b + c - 2.0 * _Vec(*circumcircle(*xy)[:2])


def _family_vertex_by_operators(p, f, theta):
    """The pedal foot ``f`` moved along its side: the spoke f − p turned a
    quarter and scaled by tan theta."""
    spoke = f - p
    return f + math.tan(theta) * _Vec(-spoke.y, spoke.x)


def _along_by_operators(tail, head, s):
    return tail + s * (head - tail)


def _param_by_operators(p, tail, head):
    d = head - tail
    return (p - tail).dot(d) / d.dot(d)


def _shape_ratio_by_operators(xy, order):
    vertices = _points(xy)
    a, b, c = (vertices[n] for n in order)
    return complex(*(b - a)) / complex(*(c - a))


def _triad_points_by_operators(host, u, v, w):
    a, b, c = _points(host)
    return (
        _along_by_operators(b, c, u),
        _along_by_operators(c, a, v),
        _along_by_operators(a, b, w),
    )


def _triad_at_by_generator(host, u, v, w):
    """The triad at u, v, w as a generator of vector expressions builds it."""
    a, b, c = _points(host)
    return tuple(
        _Vec(tail.x + s * (head.x - tail.x), tail.y + s * (head.y - tail.y))
        for tail, head, s in ((b, c, u), (c, a, v), (a, b, w))
    )


# the sign each vertex order gives the orientation: +1 for the rotations
_PARITY = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1}


def _classify_by_label_lookup(t1, t2, angle_eps):
    """An independent classifier: the vertex order with the least angle
    residual plus side-ratio spread, mirrored when the signed areas say so,
    as (order, mirrored, ratio, score), or None."""
    best = None
    for order in itertools.permutations(range(3)):
        angles1, angles2 = _angles_by_operators(t1), _angles_by_operators(t2)
        residual = max(abs(angles1[i] - angles2[order[i]]) for i in range(3))
        if residual >= angle_eps:
            continue
        ratios = [side_lengths_xy(*t2)[order[i]] / side_lengths_xy(*t1)[i] for i in range(3)]
        ratio = sum(ratios) / 3.0
        score = residual + (max(ratios) - min(ratios)) / ratio
        if best is None or score < best[3]:
            mirrored = orientation(t1) != orientation(t2) * _PARITY[order]
            best = (order, mirrored, ratio, score)
    return best


# ---------------------------------------------------------------- kernel

def test_circumcircle():
    for xy, points, theta in CASES:
        a, b, c = _points(xy)
        x, y, z = _points(family_member(xy, *points[0], theta))
        for triple in ((a, b, c), (a, y, z), (b, z, x)):
            cx, cy, r = circumcircle(*triple[0], *triple[1], *triple[2])
            assert ((cx, cy), r) == _circumcircle_by_operators(*triple)


def test_coordinate_helpers():
    """Each coordinate helper alone, against its operator form."""
    for xy, points, theta in CASES:
        a, b, c = _points(xy)
        for p in points:
            for tail, head in ((b, c), (c, a), (a, b), (p, a)):
                line = line_through(tail, head)
                d = unit_direction(head.x - tail.x, head.y - tail.y)
                assert d == _direction_by_operators(tail, head)
                assert line == (tail.x, tail.y, *d)
                args = (tail.x, tail.y, *d, p.x, p.y)
                assert offset_xy(*args) == _offset_by_operators(line, p)
                assert project_xy(*args) == _project_by_operators(line, p)
                assert reflect_xy(*args) == _reflect_by_operators(line, p)
            cx, cy, r = circle_xy(a.x, a.y, b.x, b.y, p.x, p.y)
            assert ((cx, cy), r) == _circumcircle_by_operators(a, b, p)


def test_shape_ratio_and_gap():
    """The shape ratio against the spelled-out division and the operator form
    for every vertex order, and the gap in both orientations."""
    for xy, _, _ in CASES:
        ax, ay, bx, by, cx, cy = xy
        r = complex(bx - ax, by - ay) / complex(cx - ax, cy - ay)
        assert shape_ratio(xy, (0, 1, 2)) == r
        for order in itertools.permutations(range(3)):
            r2 = shape_ratio(xy, order)
            assert r2 == _shape_ratio_by_operators(xy, order)
            assert shape_gap(r, r2, False) == abs(r2 - r) / abs(r)
            assert shape_gap(r, r2, True) == abs(r2.conjugate() - r) / abs(r)


def test_triangle_construction_test():
    """The one body of Triangle's construction test (side_lengths_xy, which
    the chain step calls too) against its form on vector differences: the
    same side lengths, or the same error and message."""
    rng = rng_for(0, "coordinate-forms", 1)
    triples = [_points(xy) for xy, _, _ in CASES]
    for xy, points, _ in CASES[:300]:
        a, b, _ = _points(xy)
        # the third vertex next to B, some collinear within tolerance
        d = math.dist(a, b) * 10.0 ** rng.uniform(-12.0, -6.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        triples.append((a, b, _Vec(b.x + d * math.cos(phi), b.y + d * math.sin(phi))))
        triples.append((a, b, a))
    for big in (1e154, 1e300, 1e308):
        triples += [
            (_Vec(-big, -big), _Vec(big, -big), _Vec(0.0, big)),
            (_Vec(0.0, 0.0), _Vec(big, big), _Vec(-big, big)),
            (_Vec(-big, 0.0), _Vec(0.0, 1.0), _Vec(big, 0.0)),
        ]
    outcomes = set()
    for a, b, c in triples:
        expected = _outcome(_side_lengths_by_operators, a, b, c)
        assert _outcome(lambda: Triangle(Point(*a), Point(*b), Point(*c)).side_lengths) == expected
        assert _outcome(side_lengths_xy, a.x, a.y, b.x, b.y, c.x, c.y) == expected
        outcomes.add(expected[0] if isinstance(expected[0], type) else float)
    assert outcomes == {float, CollinearError, ValueError}


def test_min_side_line_distance():
    """The nearest of the side lines' offsets, for points off the side lines,
    on one and on two (a vertex)."""
    for xy, points, _ in CASES:
        a, b, c = _points(xy)
        t = Triangle(Point(*a), Point(*b), Point(*c))
        for p in (*points, a, _Vec(*midpoint(b, c))):
            expected = min(
                abs(_offset_by_operators(line_through(*opposite(xy, v)), p)) for v in "ABC"
            )
            assert t.min_side_line_distance(Point(*p)) == expected
            assert min_side_line_distance_xy(xy, p.x, p.y) == expected


def test_line_at_project_and_reflect():
    """The foot (the point at the projection's parameter) and the mirror
    image of a point, on the side lines and a line through two points."""
    for xy, points, _ in CASES:
        for line in (*(line_through(*opposite(xy, v)) for v in "ABC"), line_through(*points)):
            for p in points:
                assert project_xy(*line, *p) == _project_by_operators(line, p)
                assert reflect_xy(*line, *p) == _reflect_by_operators(line, p)


def test_triangle_angles_area_and_directed_angles():
    for xy, points, _ in CASES:
        a, b, c = _points(xy)
        assert measures_xy(xy).angles == _angles_by_operators(xy)
        for p in points:
            for q, r in ((a, b), (b, c), (c, a)):
                assert directed_angle_xy(*p, *q, *r) == _directed_angle_by_operators(p, q, r)
        for v, (q, p, r) in zip("ABC", ((a, b, c), (b, c, a), (c, a, b))):
            # at A, from line AB to line AC
            assert directed_angle_at_xy(xy, v) == _directed_angle_by_operators(p, q, r)


# ---------------------------------------------------------------- written-out forms

def _circle_by_calls(x1, y1, x2, y2, x3, y3):
    """circle_xy with its collinearity test called as a function."""
    q2x, q2y = x2 - x1, y2 - y1
    q3x, q3y = x3 - x1, y3 - y1
    cross = q2x * q3y - q2y * q3x
    span = max(math.hypot(q2x, q2y), math.hypot(q3x, q3y), math.hypot(x3 - x2, y3 - y2))
    if _collinear(cross, span):
        raise CollinearError("the three points are collinear within tolerance")
    d = 2.0 * cross
    m2 = q2x * q2x + q2y * q2y
    m3 = q3x * q3x + q3y * q3y
    ux = (m2 * q3y - m3 * q2y) / d
    uy = (m3 * q2x - m2 * q3x) / d
    return x1 + ux, y1 + uy, math.hypot(ux, uy)


def _collinear(cross, span):
    return abs(2.0 * cross) <= 2.0 * LENGTH_EPS * span * span


def _circumcircle_by_calls(*xy):
    return checked_circle(_circle_by_calls(*xy))


def _squared_sides_xy(xy):
    """|BC|², |CA|², |AB|² of the triangle ``xy``."""
    ax, ay, bx, by, cx, cy = xy
    bcx, bcy, cax, cay, abx, aby = cx - bx, cy - by, ax - cx, ay - cy, bx - ax, by - ay
    return (bcx * bcx + bcy * bcy, cax * cax + cay * cay, abx * abx + aby * aby)


def _interior(ux, uy, vx, vy):
    """The angle between the legs (ux, uy) and (vx, vy), in [0, pi]."""
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def _angles_xy(xy):
    """The interior angles at A, B, C of the triangle ``xy``."""
    ax, ay, bx, by, cx, cy = xy
    return (_interior(bx - ax, by - ay, cx - ax, cy - ay),
            _interior(cx - bx, cy - by, ax - bx, ay - by),
            _interior(ax - cx, ay - cy, bx - cx, by - cy))


def _measures_by_calls(xy):
    """measures_xy as the composition of the forms it calls or writes out."""
    side_lengths = side_lengths_xy(*xy)
    ox, oy, r = _circumcircle_by_calls(*xy)
    return centers.Measures(xy, side_lengths, _squared_sides_xy(xy), _angles_xy(xy), (ox, oy), r)


def _directed_angle_by_calls(px, py, qx, qy, rx, ry):
    """directed_angle_xy with its guard, calling half_turn."""
    qpx, qpy = px - qx, py - qy
    qrx, qry = rx - qx, ry - qy
    n_qp = math.hypot(qpx, qpy)
    n_qr = math.hypot(qrx, qry)
    scale = max(n_qp, n_qr)
    if scale == 0.0 or min(n_qp, n_qr) < LENGTH_EPS * scale:
        raise GeometryError("angle leg collapses onto the apex")
    return kernel.half_turn(math.atan2(qry, qrx) - math.atan2(qpy, qpx))


def _result(f, *args):
    """What ``f`` returns, by repr (so NaNs and signed zeros compare), or
    the class and message of what it raises."""
    try:
        return repr(f(*args))
    except (ValueError, GeometryError) as exc:
        return type(exc), str(exc)


def _written_out_hosts():
    """2000 hosts: acute, obtuse at each vertex in turn, isosceles at each
    vertex in turn, and thin ones whose third vertex sits 1e-12 to 1e-4 of
    |AB| off line AB, some collinear within tolerance."""
    rng = rng_for(0, "coordinate-forms", 4)
    hosts = []
    for i in range(500):
        v = "ABC"[i % 3]
        ax, ay, bx, by, _, _ = random_acute_triangle(rng)
        s = rng.uniform(-0.5, 1.5)
        h = math.hypot(bx - ax, by - ay) * 10.0 ** rng.uniform(-12.0, -4.0)
        cx, cy = ax + s * (bx - ax) - h * (by - ay), ay + s * (by - ay) + h * (bx - ax)
        hosts += [random_acute_triangle(rng), random_obtuse_at(rng, v),
                  random_isosceles(rng, v), (ax, ay, bx, by, cx, cy)]
    return hosts


def _degenerate_triples():
    """Collinear, coincident, non-finite, overflowing and underflowing vertex
    triples."""
    triples = [
        (0.0, 0.0, 1.0, 1.0, 2.0, 2.0),
        (0.0, 0.0, 4.0, 0.0, 1.0, 0.0),
        (1.0, 3.0, 1.0, 3.0, 4.0, 0.0),
        (1.0, 3.0, 4.0, 0.0, 4.0, 0.0),
        (4.0, 0.0, 1.0, 3.0, 4.0, 0.0),
        (2.0, 2.0, 2.0, 2.0, 2.0, 2.0),
        # a cross product that overflows reads as collinear
        (0.0, 0.0, 1e200, 0.0, 0.0, 1e200),
        # a squared side that overflows: a non-finite center
        (0.0, 0.0, 1e120, 0.0, 0.0, 1e120),
        # products that underflow: a zero radius
        (0.0, 0.0, 1e-161, 0.0, 0.0, 1e-161),
    ]
    for big in (1e154, 1e300, 1e308):
        triples += [(-big, -big, big, -big, 0.0, big), (0.0, 0.0, big, big, -big, big),
                    (-big, 0.0, 0.0, 1.0, big, 0.0)]
    for k in range(6):
        for bad in (math.inf, -math.inf, math.nan):
            xy = [0.0, 0.0, 4.0, 0.0, 1.0, 3.0]
            xy[k] = bad
            triples.append(tuple(xy))
            xy[(k + 2) % 6] = xy[k - 1] = bad  # and two more slots
            triples.append(tuple(xy))
    return triples


HOSTS = _written_out_hosts()


def test_measures_xy_is_its_composition():
    """measures_xy equals side_lengths_xy, circumcircle, _squared_sides_xy and
    _angles_xy called in turn, and raises what they raise, in their order."""
    raised = set()
    for xy in HOSTS + _degenerate_triples():
        expected = _result(_measures_by_calls, xy)
        assert _result(centers.measures_xy, xy) == expected
        if isinstance(expected, tuple):
            raised.add(expected)
    assert {kind for kind, _ in raised} == {CollinearError, ValueError}
    # a zero radius, a non-finite center, a non-finite vertex difference
    assert {"radius must be strictly positive, got 0.0", "non-finite coordinates (inf, inf)",
            "non-finite coordinates (nan, 0.0)"} <= {message for _, message in raised}


def _near_band_triples():
    """Thin triples at scales 1e-150 to 1e150 whose cross product sits just
    inside and just outside the collinearity band |cross| = LENGTH_EPS·span²,
    and just inside and outside circle_xy's margin pre-test
    |cross| = 4·LENGTH_EPS·(m2 + m3): the apex (s/2, h) of the base from
    (0, 0) to (s, 0), once as the first vertex (m2 + m3 = s²/2, the margin's
    tightest case) and once as the last (m2 + m3 = 5s²/4); each with
    whether it is collinear."""
    triples = []
    for s in (1e-150, 1e-75, 1e-9, 1.0, 1e9, 1e75, 1e150):
        for f in (0.999999, 1.000001, 1.999999, 2.000001, 4.999999, 5.000001):
            h = f * LENGTH_EPS * s
            triples += [((0.5 * s, h, 0.0, 0.0, s, 0.0), f < 1.0),
                        ((0.0, 0.0, s, 0.0, 0.5 * s, -h), f < 1.0)]
    return triples


def test_circle_forms_are_their_calls():
    """circle_xy and circumcircle against their forms with the collinearity
    test and checked_circle called, on the hosts, the degenerate triples, the
    near-band triples and each one's first two vertices with the midpoint of
    its first and last; the near-band triples give both verdicts."""
    outcomes = set()
    near_band = _near_band_triples()
    for xy in HOSTS + _degenerate_triples() + [xy for xy, _ in near_band]:
        for triple in (xy, (*xy[:4], *midpoint(xy[:2], xy[4:]))):
            assert _result(circle_xy, *triple) == _result(_circle_by_calls, *triple)
            expected = _result(_circumcircle_by_calls, *triple)
            assert _result(circumcircle, *triple) == expected
            outcomes.add(expected[0] if isinstance(expected, tuple) else float)
    assert outcomes == {float, CollinearError, ValueError}
    for xy, collinear in near_band:
        assert isinstance(_result(circle_xy, *xy), tuple) is collinear


def test_directed_angle_xy_is_its_calls():
    """directed_angle_xy against its form calling half_turn, at each vertex
    of the hosts, from the vertices to a far point, and with a collapsed leg;
    the reduction's boundary -pi/2 itself maps to pi/2."""
    for xy in HOSTS:
        a, b, c = xy[:2], xy[2:4], xy[4:]
        far = (1e300, -1e300)
        for p, q, r in ((b, a, c), (c, b, a), (a, c, b), (far, a, b), (a, b, far), (a, a, b)):
            assert _result(directed_angle_xy, *p, *q, *r) == _result(
                _directed_angle_by_calls, *p, *q, *r)
    assert directed_angle_xy(0.0, 1.0, 0.0, 0.0, 1.0, 0.0) == HALF_PI


# ---------------------------------------------------------------- centers

def _named_point_by_operators(xy, role):
    """Where ``role`` sits in the triangle ``xy``: O, H and G by vector
    operators, the others from their barycentric weights on the operator
    form's squared sides; None for S_v and M_v at a right angle at v."""
    sq = a2, b2, c2 = _squared_sides_by_operators(xy)
    name = role.role
    if name == "circumcenter":
        return _Vec(*circumcircle(*xy)[:2])
    if name == "orthocenter":
        return _orthocenter_by_operators(xy)
    if name == "centroid":
        a, b, c = _points(xy)
        return (a + b + c) / 3.0
    if name == "incenter":
        weights = list(side_lengths_xy(*xy))
    elif name == "first_brocard":
        weights = [c2 * a2, a2 * b2, b2 * c2]
    elif name == "second_brocard":
        weights = [a2 * b2, b2 * c2, c2 * a2]
    else:
        i = "ABC".index(role.vertex)
        k = sq[(i + 1) % 3] + sq[(i + 2) % 3] - sq[i]
        if name == "excenter":
            weights = list(side_lengths_xy(*xy))
            weights[i] *= -1.0
        elif abs(_angles_by_operators(xy)[i] - HALF_PI) < ANGLE_EPS:
            return None
        elif name == "s_role":
            weights = list(sq)
            weights[i] = k
        else:
            weights = [k, k, k]
            weights[i] = sq[i]
    return _from_barycentric_by_operators(xy, *weights)


def _named_points_by_locate_xy(m):
    """``locate_xy`` of every row of ``NAMED_POINTS``: the class of what it
    raises where it raises ``GeometryError`` (a right angle at the row's
    vertex, a point at infinity) or ``ValueError`` (a location that is not
    finite), else the location."""
    row = []
    for role, _ in NAMED_POINTS:
        try:
            row.append(locate_xy(m, role))
        except (GeometryError, ValueError) as exc:
            row.append(type(exc))
    return row


def test_squared_sides_isogonal_conjugate_and_every_named_point():
    for xy, points, _ in CASES:
        m = measures_xy(xy)
        # the measures, from coordinates, are side_lengths_xy's and
        # circumcircle's floats and the operator forms'
        ox, oy, r = circumcircle(*xy)
        assert m == (xy, side_lengths_xy(*xy), _squared_sides_by_operators(xy),
                     _angles_by_operators(xy), (ox, oy), r)
        p = points[0]
        expected = _isogonal_conjugate_by_operators(xy, p)
        assert centers.isogonal_conjugate(m, *p) == expected
        # every location body against its operator form
        for (role, _), point in zip(NAMED_POINTS, _named_points_by_locate_xy(m)):
            oracle = _named_point_by_operators(xy, role)
            expected = RightAngleDegenerateError if oracle is None else tuple(oracle)
            assert point == expected, role


def _pinned_table_hosts():
    """The written-out hosts (scalene, isosceles at each apex, thin), 300
    more: right-angled at each vertex in turn, equilateral, and acute hosts
    scaled by 1e80 to 1e100, where the Brocard weights overflow, and a host
    so thin at C that the weights of excenter_C, S_C and M_C cancel."""
    rng = rng_for(0, "coordinate-forms", 9)
    hosts = list(HOSTS)
    for i in range(100):
        angles = [0.0, 0.0, 0.0]
        j = i % 3
        angles[j] = HALF_PI
        angles[(j + 1) % 3] = rng.uniform(0.2, HALF_PI - 0.2)
        angles[(j + 2) % 3] = HALF_PI - angles[(j + 1) % 3]
        scale = 10.0 ** rng.uniform(80.0, 100.0)
        hosts += [triangle_from_angles(rng, tuple(angles)),
                  triangle_from_angles(rng, (math.pi / 3,) * 3),
                  tuple(scale * c for c in random_acute_triangle(rng))]
    return hosts + [(0.0, 0.0, 1.0, 0.0, 0.5, 2e-9)]


def test_named_points_xy_is_locate_xy_of_every_row():
    """named_points_xy, the whole table read from the bodies, against
    locate_xy of each row: None exactly where locate_xy raises GeometryError
    (RightAngleDegenerateError at a right angle, a point at infinity where
    the weights cancel), a location that is not finite where it raises
    ValueError, else the same location."""
    right, infinite, nans = set(), set(), 0
    for xy in _pinned_table_hosts():
        try:
            m = measures_xy(xy)
        except (ValueError, GeometryError):
            continue
        expected = _named_points_by_locate_xy(m)
        for (_, label), p, e in zip(NAMED_POINTS, centers.named_points_xy(m), expected):
            if e is RightAngleDegenerateError:
                assert p is None, xy
                right.add(label)
            elif e is GeometryError:
                assert p is None, xy
                infinite.add(label)
            elif e is ValueError:
                assert not all(map(math.isfinite, p)), xy
            else:
                assert p == e, xy
        nans += ValueError in expected
    assert right == {f"{name}_{v}" for name in "SM" for v in "ABC"}
    assert {"excenter_C", "S_C", "M_C"} <= infinite
    assert nans >= 50


# ---------------------------------------------------------------- triads

def test_family_member_feet_and_triad_forms():
    """Each family vertex is its pedal foot (the side line's projection)
    moved by tan theta times the quarter-turned spoke; triad_xy and
    triad_params against their operator forms."""
    for xy, points, theta in CASES:
        a, b, c = _points(xy)
        for p in points:
            triad = family_member(xy, *p, theta)
            feet = [_project_by_operators(line_through(*opposite(xy, v)), p) for v in "ABC"]
            assert list(_points(triad)) == [
                _family_vertex_by_operators(p, f, theta) for f in feet
            ]
            x, y, z = _points(triad)
            params = triad_params(xy, triad)
            assert params == (
                _param_by_operators(x, b, c),
                _param_by_operators(y, c, a),
                _param_by_operators(z, a, b),
            )
            assert _points(triad_xy(xy, *params)) == _triad_points_by_operators(xy, *params)


def test_triad_xy_and_miquel_residual():
    """triad_xy against a generator of its points, inside and outside [0, 1];
    miquel_residual against the radial offsets (distance to the center minus
    the radius) of the circles AYZ, BZX, CXY."""
    rng = rng_for(0, "coordinate-forms", 2)
    for host, _, _ in CASES:
        a, b, c = _points(host)
        params = [rng.uniform(-1.0, 2.0) for _ in range(3)]
        x, y, z = _triad_at_by_generator(host, *params)
        xy = triad_xy(host, *params)
        assert xy == (x.x, x.y, y.x, y.y, z.x, z.y)
        assert _points(checked_triad(xy)) == (x, y, z)
        *rows, (mx, my) = miquel_xy(host, xy)
        circles = (circumcircle(*a, *y, *z), circumcircle(*b, *z, *x),
                   circumcircle(*c, *x, *y))
        expected = max(abs(math.dist((cx, cy), (mx, my)) - r) for cx, cy, r in circles)
        assert miquel_residual(rows, mx, my) == expected
        assert miquel_point(host, checked_triad(xy)).residual == expected
    with pytest.raises(ValueError, match="^triad parameters must be finite$"):
        triad_xy(CASES[0][0], 0.5, math.inf, 0.5)


def test_miquel_xy_mirrors_z_in_the_line_of_centers():
    """miquel_xy's point is reflect_xy of Z in the line through the centers
    of AYZ and BZX, float for float, for family triads and for triads off
    the sides."""
    rng = rng_for(0, "coordinate-forms", 3)
    for host, points, theta in CASES:
        params = [rng.uniform(-1.0, 2.0) for _ in range(3)]
        triads = [family_xy(host, *p, theta)[0] for p in points]
        for xy in (*triads, triad_xy(host, *params)):
            (ax, ay, _), (bx, by, _), _, point = miquel_xy(host, xy)
            assert point == reflect_xy(*line_through((ax, ay), (bx, by)), xy[4], xy[5])


def test_contains_xy():
    """contains_xy against sign·(q2 − q1)×(p − q1) with the triangle's
    orientation (``helpers.contains_by_operators``, which the containment
    parity tests share), for both orientations, inside, outside, on an edge
    and at a vertex."""
    for xy, points, _ in CASES:
        a, b, c = _points(xy)
        for host in (xy, (*a, *c, *b)):
            edge_points = (_Vec(*midpoint(a, b)), _Vec(*midpoint(b, c)))
            for p in (*points, *edge_points, a, c):
                inside = contains_by_operators(host, p)
                assert contains_xy(host, p.x, p.y) is inside
            assert contains_xy(host, *points[0]) and not contains_xy(host, *points[1])


def test_sextet_and_miquel_angles():
    """cevian_angles_xy and miquel_angles_xy against directed_angle_xy of the
    points: the six directed angles at the vertices, then their pairwise
    sums reduced by half_turn."""
    for xy, points, _ in CASES:
        a, b, c = _points(xy)
        r = measures_xy(xy).circumradius
        for p in points:
            a1, a2 = directed_angle_xy(*p, *a, *c), directed_angle_xy(*b, *a, *p)
            b1, b2 = directed_angle_xy(*p, *b, *a), directed_angle_xy(*c, *b, *p)
            g1, g2 = directed_angle_xy(*p, *c, *b), directed_angle_xy(*a, *c, *p)
            assert cevian_angles_xy(xy, p.x, p.y, r, False) == (a1, b1, g1)
            assert cevian_angles_xy(xy, p.x, p.y, r, True) == (a2, b2, g2)
            sums = (b1 + g2, g1 + a2, a1 + b2)
            assert miquel_angles_xy(xy, p.x, p.y, r) == tuple(map(kernel.half_turn, sums))


def test_one_pedal_triangle():
    """The pedal triad's vertices are the side lines' projections of the
    point, float for float, for points off the side lines and on them."""
    for xy, points, _ in CASES:
        a, b, c = _points(xy)
        for p in (*points, a, _Vec(*midpoint(b, c))):
            feet = tuple(_project_by_operators(line_through(*opposite(xy, v)), p) for v in "ABC")
            assert _points(pedal_triad(xy, *p)) == feet


def test_chain_step_equals_family_member_and_miquel_point(monkeypatch):
    """Step 1 of a chain is family_member's triangle, vertex by vertex, and
    the point its drift check measures is miquel_point's."""
    real = chains.miquel_xy
    drift_points = []

    def recording(*args):
        result = real(*args)
        drift_points.append(result[3])
        return result

    monkeypatch.setattr(chains, "miquel_xy", recording)
    for xy, points, theta in CASES:
        for p in points:
            triad = family_member(xy, *p, theta)
            rec = iterate_chain(measures_xy(xy), *p, 1, [theta])
            assert rec.steps == (triad,)
            assert drift_points == [miquel_point(xy, triad).point]
            drift_points.clear()


def _verdicts(t1, t2, tol):
    """(order, mirrored) or None, from classify_similarity and from the
    oracle."""
    match = classify_similarity(t1, t2, tol)
    oracle = _classify_by_label_lookup(t1, t2, tol)
    return (
        None if match is None else (match.order, match.mirrored),
        None if oracle is None else oracle[:2],
    )


# classify_similarity compares shape ratios, the oracle angles and side
# ratios; away from isosceles ties they give the same verdict
@pytest.mark.parametrize("thetas", [None, (0.3, -0.5, 0.7, 0.1, -0.9, 0.4)])
def test_classify_similarity_along_chains(thetas):
    for xy, points, _ in CASES[:200]:
        rec = iterate_chain(measures_xy(xy), *points[0], 6, thetas)
        tris = [rec.seed.xy, *rec.steps]
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                got, expected = _verdicts(tris[i], tris[j], 1e-6)
                assert got == expected


def test_classify_similarity_on_catalog_pedal_shapes():
    for xy, _, _ in CASES:
        for e in centers.eleven_point_catalog(measures_xy(xy)):
            shape = pedal_triad(xy, *e.location)
            side_lengths_xy(*shape)  # a triangle, not three collinear points
            got, expected = _verdicts(xy, shape, PEDAL_SIMILARITY_TOL)
            assert got == expected == (e.order, e.mirrored)
