"""Role detection on coordinates, against the loop it replaced.

``detect_special_role`` takes a triangle's measures, computed once from its
six coordinates (``centers.measures_xy``: side lengths, squared sides,
angles, circumcircle), and locates each candidate from them through the
bodies ``centers.locate_xy`` shares. The oracle below is the loop it replaced:
``centers.locate_xy`` per candidate, the two side lengths at each vertex and
``circumcircle`` for the arc role. Both must name the same role, with the
same table order, strict-``<`` tie rule and right-angle skip, or raise the
same exception class with the same message.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import locate
from miquel.centers import NAMED_POINTS, SpecialRole, is_right, locate_xy, measures_xy
from miquel.chains import CHAIN_DETECT_TOL, iterate_chain
from miquel.errors import CollinearError, DegenerateStepError, RightAngleDegenerateError
from miquel.kernel import VERTEX_LABELS, Point, Triangle, checked_xy, circumcircle, corners_xy
from miquel.sampling import (
    random_arc_point,
    random_exterior_point,
    random_interior_point,
    random_isosceles,
    random_obtuse_at,
    random_triangle,
    rng_for,
    triangle_from_angles,
)
from miquel.triads import NONE_ROLE, detect_special_role

# fixed examples, and no example database written into the working tree
DETECT = settings(max_examples=120, deadline=None, derandomize=True, database=None)

BANDS = st.sampled_from([1e-9, CHAIN_DETECT_TOL, 1e-3, 10.0])


def _detect_by_locate_xy(xy, p, length_eps):
    """Detection on the triangle ``xy``, as a loop over ``centers.locate_xy``."""
    t = measures_xy(xy)
    eps = length_eps * t.circumradius
    px, py = p
    best_role, best_dist = NONE_ROLE, math.inf
    for role, _ in NAMED_POINTS:
        if role.role == "centroid":
            continue
        try:
            x, y = locate_xy(t, role)
        except RightAngleDegenerateError:
            continue
        d = math.hypot(x - px, y - py)
        if d < best_dist:
            best_role, best_dist = role, d
        elif not d < math.inf:
            checked_xy(x, y)
    if best_dist < eps:
        return best_role
    center = checked_xy(*locate_xy(t, SpecialRole("incenter")))
    sides = t.side_lengths
    for i, v in enumerate(VERTEX_LABELS):
        if not abs(sides[(i + 1) % 3] - sides[(i + 2) % 3]) < eps:
            continue
        _, b, c = corners_xy(xy, v)
        try:
            ox, oy, r = circumcircle(*b, *c, *center)
        except CollinearError:
            continue
        if abs(math.hypot(px - ox, py - oy) - r) < eps:
            return SpecialRole("q_role", v)
    return NONE_ROLE


def _detect(xy, px, py, length_eps):
    """Detection on the triangle ``xy``, measured afresh by ``measures_xy``."""
    return detect_special_role(measures_xy(xy), px, py, length_eps)


def _outcome(f, *args):
    """What ``f`` returns, or the class and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_role(t, p, length_eps):
    got = _outcome(_detect, t, *p, length_eps)
    assert got == _outcome(_detect_by_locate_xy, t, p, length_eps)
    return got


def _named_points(t):
    points = []
    for role, _ in NAMED_POINTS:
        try:
            points.append(locate(t, role))
        except RightAngleDegenerateError:
            pass
    return points


def _arc_point(rng, t, apex):
    """A point on the circle through the base ends of ``apex`` and the
    incenter, on the arc between the base ends through the incenter."""
    _, b, c = corners_xy(t, apex)
    center = locate(t, SpecialRole("incenter"))
    return random_arc_point(rng, circumcircle(*b, *c, *center), b, c, center)


def _host(seed: int):
    rng = rng_for(seed, "detection", 0)
    return random_triangle(rng) if seed % 2 else random_obtuse_at(rng, "ABC"[seed % 3])


def _right_host(seed: int, vertex: str):
    rng = rng_for(seed, "detection", 1)
    angles = [0.0, 0.0, 0.0]
    i = VERTEX_LABELS.index(vertex)
    angles[i] = math.pi / 2
    angles[(i + 1) % 3] = rng.uniform(0.2, math.pi / 2 - 0.2)
    angles[(i + 2) % 3] = math.pi / 2 - angles[(i + 1) % 3]
    return triangle_from_angles(rng, tuple(angles))


seeds = st.integers(0, 10**6)


def test_seeded_hosts_match_the_locate_xy_loop():
    # 300 hosts, scalene, isosceles and right-angled in turn; every named
    # point, a base-incenter arc point and two random points, at three bands
    roles = set()
    for seed in range(300):
        rng = rng_for(seed, "detection", 8)
        v = VERTEX_LABELS[seed % 3]
        kind = seed % 3
        if kind == 0:
            t = random_triangle(rng)
        elif kind == 1:
            t = random_isosceles(rng, v)
        else:
            t = _right_host(seed, v)
        points = [
            *_named_points(t),
            _arc_point(rng, t, v),
            random_interior_point(rng, t),
            random_exterior_point(rng, t, circumcircle(*t)),
        ]
        for p in points:
            for length_eps in (1e-7, 1e-6, 1e-2):
                roles.add(_assert_same_role(t, p, length_eps))
    names = {r.role for r in roles}
    assert names >= {"circumcenter", "orthocenter", "incenter", "excenter", "first_brocard",
                     "second_brocard", "s_role", "m_role", "q_role", "none"}


def test_collinear_coordinates_raise_as_the_triangle_would():
    xy = (0.0, 0.0, 1.0, 0.0, 1.0, 7e-10)
    detected = _outcome(_detect, xy, 0.5, 0.5, CHAIN_DETECT_TOL)
    built = _outcome(Triangle, Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 7e-10))
    assert detected == built == (CollinearError, "degenerate triangle: collinear within tolerance")


@DETECT
@given(seeds, BANDS)
def test_every_named_point_and_random_points(seed, length_eps):
    t = _host(seed)
    rng = rng_for(seed, "detection", 2)
    points = [
        *_named_points(t),
        random_interior_point(rng, t),
        random_exterior_point(rng, t, circumcircle(*t)),
    ]
    for p in points:
        _assert_same_role(t, p, length_eps)


@DETECT
@given(seeds, st.sampled_from(["O", "H", "L", "brocard", "S", "M", "random"]), st.booleans())
def test_chain_triangles(seed, which, rotated):
    rng = rng_for(seed, "detection", 3)
    t = random_triangle(rng, min_angle=0.35, right_gap=0.1)
    v = VERTEX_LABELS[seed % 3]
    p = {
        "O": lambda: locate(t, SpecialRole("circumcenter")),
        "H": lambda: locate(t, SpecialRole("orthocenter")),
        "L": lambda: locate(t, SpecialRole("incenter")),
        "brocard": lambda: locate(t, SpecialRole("first_brocard")),
        "S": lambda: locate(t, SpecialRole("s_role", v)),
        "M": lambda: locate(t, SpecialRole("m_role", v)),
        "random": lambda: random_interior_point(rng, t),
    }[which]()
    thetas = [rng.uniform(-1.0, 1.0) for _ in range(6)] if rotated else None
    try:
        rec = iterate_chain(measures_xy(t), *p, 6, thetas)
    except DegenerateStepError:
        return
    expect = [_detect_by_locate_xy(s, p, CHAIN_DETECT_TOL) for s in (rec.seed.xy, *rec.steps)]
    assert list(rec.roles) == expect


@DETECT
@given(seeds, BANDS)
def test_equilateral_tie_goes_to_the_circumcenter(seed, length_eps):
    # O, H, L, both Brocard points and every S_v and M_v coincide; the first
    # in table order at the least distance wins
    t = triangle_from_angles(rng_for(seed, "detection", 4), (math.pi / 3,) * 3)
    o = locate(t, SpecialRole("circumcenter"))
    assert _assert_same_role(t, o, length_eps) == SpecialRole("circumcenter")
    for p in _named_points(t):
        _assert_same_role(t, p, length_eps)


@DETECT
@given(seeds)
def test_automedian_centroid_is_the_median_point(seed):
    # sides a = 13, b = 7, c = 17: b² + c² = 2a², so the centroid is M_A,
    # which detection names because it skips the centroid
    a, b, c = 13.0, 7.0, 17.0
    angle_a = math.acos((b * b + c * c - a * a) / (2.0 * b * c))
    angle_b = math.acos((c * c + a * a - b * b) / (2.0 * c * a))
    t = triangle_from_angles(
        rng_for(seed, "detection", 5), (angle_a, angle_b, math.pi - angle_a - angle_b)
    )
    g = locate(t, SpecialRole("centroid"))
    assert _assert_same_role(t, g, CHAIN_DETECT_TOL) == SpecialRole("m_role", "A")


@DETECT
@given(seeds, st.sampled_from(VERTEX_LABELS), BANDS)
def test_right_angled_hosts_skip_s_and_m_at_the_right_vertex(seed, vertex, length_eps):
    t = _right_host(seed, vertex)
    assert is_right(measures_xy(t))
    rng = rng_for(seed, "detection", 6)
    points = [
        *_named_points(t),
        random_interior_point(rng, t),
        random_exterior_point(rng, t, circumcircle(*t)),
    ]
    for p in points:
        role = _assert_same_role(t, p, length_eps)
        assert role not in (SpecialRole("s_role", vertex), SpecialRole("m_role", vertex))


@DETECT
@given(seeds, st.sampled_from(VERTEX_LABELS))
def test_isosceles_arc_points_play_the_q_role(seed, apex):
    rng = rng_for(seed, "detection", 7)
    t = random_isosceles(rng, apex)
    role = _assert_same_role(t, _arc_point(rng, t, apex), CHAIN_DETECT_TOL)
    assert role in (SpecialRole("q_role", apex), SpecialRole("incenter"))


def test_a_location_that_is_not_finite_raises_as_the_point_would():
    # far outside the scene range the Brocard weights overflow, and the first
    # Brocard point is NaN
    t = (0.0, 0.0, 4e100, 0.0, 1e100, 3e100)
    p = (1e100, 1e100)
    assert _assert_same_role(t, p, CHAIN_DETECT_TOL) == (
        ValueError, "non-finite coordinates (nan, nan)"
    )
