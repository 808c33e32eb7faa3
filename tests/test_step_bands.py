"""One chain step at the edges of its degeneracy bands.

Near a band the step may go either way, but the coordinate-form step of
``iterate_chain`` must go the way the object path goes (``family_member``,
the side-line guard, ``miquel_point``, the triad's circumcircle and its
triangle): the same triangle, or ``DegenerateStepError`` with the same
message from the same error class.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from miquel.chains import iterate_chain
from miquel.errors import DegenerateStepError, GeometryError
from miquel.kernel import (
    ANGLE_EPS,
    HALF_PI,
    LENGTH_EPS,
    Point,
    circumcircle,
    reject_side_lines,
    triangle_of,
)
from miquel.sampling import random_interior_point, random_obtuse_at, random_triangle, rng_for
from miquel.triads import (
    CIRCUMCIRCLE_BAND,
    CONCURRENCY_BAND,
    family_member,
    miquel_point,
    on_circle_xy,
)

# fixed examples, and no example database written into the working tree
BANDS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _object_step(t, p, theta):
    """One chain step on Triad and Point objects and checked circles."""
    if on_circle_xy(t.circumcircle, p.x, p.y):
        raise DegenerateStepError("collinear collapse on the circumcircle at step 0")
    try:
        triad = family_member(t, p, theta)
        reject_side_lines(t.min_side_line_distance(p), t.circumradius)
        result = miquel_point(t, triad)
        x, y, z = triad.points
        circumcircle(*x, *y, *z)  # the chain's next circle; same test as Triangle's
        nxt = triad.triangle()
    except GeometryError as exc:
        raise DegenerateStepError(f"step 0 degenerated: {exc}") from exc
    if result.point.dist(p) > CONCURRENCY_BAND * t.circumradius:
        raise DegenerateStepError("concurrency point drifted off the fixed point at step 0")
    return nxt


def _outcome(step):
    try:
        return step().vertices
    except DegenerateStepError as exc:
        return str(exc), type(exc.__cause__)


def _assert_same_step(t, p, theta):
    chain = _outcome(lambda: iterate_chain(t, p, 1, [theta]).steps[0])
    assert chain == _outcome(lambda: _object_step(t, p, theta))
    return chain


def _host(seed: int):
    rng = rng_for(seed, "step-bands", 0)
    return triangle_of(random_triangle(rng) if seed % 2 else random_obtuse_at(rng, "ABC"[seed % 3]))


hosts = st.integers(0, 10**6).map(_host)
rotations = st.floats(-1.2, 1.2)


@BANDS
@given(
    hosts,
    st.integers(0, 2),
    # along the side or its extensions, away from the vertices (which are on
    # the circumcircle)
    st.one_of(st.floats(-0.5, -0.05), st.floats(0.05, 0.95), st.floats(1.05, 1.5)),
    st.floats(-5.0, 5.0),
    rotations,
)
def test_points_near_a_side_line(t, side, s, k, theta):
    """Points a few LENGTH_EPS·R off a side line."""
    tail, head = t.opposite("ABC"[side])
    dx, dy = head.x - tail.x, head.y - tail.y
    n = math.hypot(dx, dy)
    off = k * LENGTH_EPS * t.circumradius / n
    p = Point(tail.x + s * dx - off * dy, tail.y + s * dy + off * dx)
    _assert_same_step(t, p, theta)


@BANDS
@given(hosts, st.floats(0.0, 2.0 * math.pi), st.floats(-3.0, 3.0), rotations)
def test_points_near_the_circumcircle(t, phi, k, theta):
    """Points within a few CIRCUMCIRCLE_BAND·R of the circumcircle."""
    cx, cy, radius = t.circumcircle
    r = radius * (1.0 + k * CIRCUMCIRCLE_BAND)
    p = Point(cx + r * math.cos(phi), cy + r * math.sin(phi))
    _assert_same_step(t, p, theta)


@BANDS
@given(
    hosts,
    st.integers(0, 2**32),
    st.one_of(
        st.floats(-3.0, 3.0).map(lambda d: HALF_PI - ANGLE_EPS + d * ANGLE_EPS),
        st.floats(-3.0, 3.0).map(lambda d: -HALF_PI + ANGLE_EPS + d * ANGLE_EPS),
        st.just(math.nan),
    ),
)
def test_rotations_near_a_quarter_turn(t, seed, theta):
    """Rotations around ±(π/2 − ANGLE_EPS), where the stretch is ~1e9, and
    NaN."""
    p = Point(*random_interior_point(rng_for(seed, "step-bands", 1), t.xy))
    _assert_same_step(t, p, theta)
