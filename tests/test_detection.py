"""Role detection in one pass over the named points, against the loop that
locates each named point as a Point and measures its distance.

``detect_special_role`` reads each candidate's coordinates from the bodies
``centers.locate`` uses and builds no Point per candidate; the oracle below
is the loop over ``centers.locate`` that it replaced. Both must name the same
role, with the same table order, strict-``<`` tie rule and right-angle skip.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miquel.centers import NAMED_POINTS, SpecialRole, incenter, locate
from miquel.chains import CHAIN_DETECT_TOL, iterate_chain
from miquel.errors import CollinearError, DegenerateStepError, RightAngleDegenerateError
from miquel.kernel import VERTEX_LABELS, Point, Triangle, circumcircle
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


def _detect_by_locate(t, p, length_eps):
    """Detection as a loop over ``centers.locate``: a Point per candidate."""
    eps = length_eps * t.circumradius
    best_role, best_dist = NONE_ROLE, math.inf
    for role, _ in NAMED_POINTS:
        if role.role == "centroid":
            continue
        try:
            d = locate(t, role).dist(p)
        except RightAngleDegenerateError:
            continue
        if d < best_dist:
            best_role, best_dist = role, d
    if best_dist < eps:
        return best_role
    center = incenter(t)
    for v in VERTEX_LABELS:
        if not t.is_isosceles_at(v, length_eps):
            continue
        b, c = t.opposite(v)
        try:
            arc = circumcircle(b, c, center)
        except CollinearError:
            continue
        if abs(arc.offset_of(p)) < eps:
            return SpecialRole("q_role", v)
    return NONE_ROLE


def _named_points(t):
    points = []
    for role, _ in NAMED_POINTS:
        try:
            points.append(locate(t, role))
        except RightAngleDegenerateError:
            pass
    return points


def _assert_same_role(t, p, length_eps):
    role = detect_special_role(t, p, length_eps)
    assert role == _detect_by_locate(t, p, length_eps)
    return role


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


@DETECT
@given(seeds, BANDS)
def test_every_named_point_and_random_points(seed, length_eps):
    t = _host(seed)
    rng = rng_for(seed, "detection", 2)
    points = [
        *_named_points(t),
        random_interior_point(rng, t),
        random_exterior_point(rng, t),
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
        rec = iterate_chain(t, p, 6, thetas)
    except DegenerateStepError:
        return
    assert list(rec.roles) == [_detect_by_locate(s, p, CHAIN_DETECT_TOL) for s in rec.triangles]


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
    assert t.is_right()
    rng = rng_for(seed, "detection", 6)
    points = [*_named_points(t), random_interior_point(rng, t), random_exterior_point(rng, t)]
    for p in points:
        role = _assert_same_role(t, p, length_eps)
        assert role not in (SpecialRole("s_role", vertex), SpecialRole("m_role", vertex))


@DETECT
@given(seeds, st.sampled_from(VERTEX_LABELS))
def test_isosceles_arc_points_play_the_q_role(seed, apex):
    rng = rng_for(seed, "detection", 7)
    t = random_isosceles(rng, apex)
    b, c = t.opposite(apex)
    center = incenter(t)
    arc = circumcircle(b, c, center)
    p = random_arc_point(rng, arc.center, arc.radius, b, c, center)
    role = _assert_same_role(t, p, CHAIN_DETECT_TOL)
    assert role in (SpecialRole("q_role", apex), SpecialRole("incenter"))


def test_a_location_that_is_not_finite_raises_as_the_point_would():
    # far outside the scene range the Brocard weights overflow, and the first
    # Brocard point is NaN
    t = Triangle(Point(0, 0), Point(4e100, 0), Point(1e100, 3e100))
    p = Point(1e100, 1e100)
    with pytest.raises(ValueError) as oracle:
        _detect_by_locate(t, p, CHAIN_DETECT_TOL)
    with pytest.raises(ValueError) as one_pass:
        detect_special_role(t, p, CHAIN_DETECT_TOL)
    assert str(one_pass.value) == str(oracle.value) == "non-finite coordinates (nan, nan)"
