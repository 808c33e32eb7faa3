"""One chain step at the edges of its degeneracy bands.

Near a band the step may go either way, but the written-out step of
``iterate_chain`` must go the way the checked constructions go
(``family_member``, the side-line guard, ``miquel_point``, the triad's
circumcircle and its side check): the same triangle, or
``DegenerateStepError`` with the same message from the same error class.
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
    circumcircle,
    corners_xy,
    min_side_line_distance_xy,
    reject_side_lines,
    side_lengths_xy,
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


def _checked_step(t, p, theta):
    """One chain step from the checked constructions and circles."""
    px, py = p
    circle = circumcircle(*t)
    radius = circle[2]
    if on_circle_xy(circle, px, py):
        raise DegenerateStepError("collinear collapse on the circumcircle at step 0")
    try:
        triad = family_member(t, px, py, theta)
        reject_side_lines(min_side_line_distance_xy(t, px, py), radius)
        result = miquel_point(t, triad)
        circumcircle(*triad)  # the chain's next circle
        side_lengths_xy(*triad)  # the same collinearity test
    except GeometryError as exc:
        raise DegenerateStepError(f"step 0 degenerated: {exc}") from exc
    mx, my = result.point
    if math.hypot(mx - px, my - py) > CONCURRENCY_BAND * radius:
        raise DegenerateStepError("concurrency point drifted off the fixed point at step 0")
    return triad


def _outcome(step):
    try:
        return step()
    except DegenerateStepError as exc:
        return str(exc), type(exc.__cause__)


def _assert_same_step(t, p, theta):
    chain = _outcome(lambda: iterate_chain(t, *p, 1, [theta]).steps[0])
    assert chain == _outcome(lambda: _checked_step(t, p, theta))
    return chain


def _host(seed: int):
    rng = rng_for(seed, "step-bands", 0)
    return random_triangle(rng) if seed % 2 else random_obtuse_at(rng, "ABC"[seed % 3])


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
    _, (tx, ty), (hx, hy) = corners_xy(t, "ABC"[side])
    dx, dy = hx - tx, hy - ty
    n = math.hypot(dx, dy)
    off = k * LENGTH_EPS * circumcircle(*t)[2] / n
    p = (tx + s * dx - off * dy, ty + s * dy + off * dx)
    _assert_same_step(t, p, theta)


@BANDS
@given(hosts, st.floats(0.0, 2.0 * math.pi), st.floats(-3.0, 3.0), rotations)
def test_points_near_the_circumcircle(t, phi, k, theta):
    """Points within a few CIRCUMCIRCLE_BAND·R of the circumcircle."""
    cx, cy, radius = circumcircle(*t)
    r = radius * (1.0 + k * CIRCUMCIRCLE_BAND)
    p = (cx + r * math.cos(phi), cy + r * math.sin(phi))
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
    p = random_interior_point(rng_for(seed, "step-bands", 1), t)
    _assert_same_step(t, p, theta)
