"""Iterated triad triangles around a fixed concurrency point: construction,
period-3 similarity bookkeeping, and the cyclic center-role recurrences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DegenerateStepError, GeometryError
from .kernel import MAX_COORDINATE, MIN_LONGEST_SIDE, Point, Triangle
from .triads import (
    CONCURRENCY_BAND,
    SpecialRole,
    along_xy,
    detect_special_role,
    family_params,
    miquel_xy,
    on_circumcircle,
)

# role positions drift along a chain as numeric error compounds; detection
# therefore uses a looser relative length band than one-shot constructions
CHAIN_DETECT_TOL = 1e-6

# the band of the chain similarity claims, for the same reason: the relative
# shape-ratio gap of the mod-3 check, and theorem15's angle band
CHAIN_SIMILARITY_TOL = 1e-6

# pedal steps lose roughly a digit each on ill-conditioned hosts
MAX_CHAIN_STEPS = 12


@dataclass(frozen=True)
class ChainRecord:
    """A run of nested triad triangles sharing one concurrency point.

    ``steps[k]`` is the triangle after k+1 steps; its vertices are the triad
    points relabeled A = point on the old BC, B = on CA, C = on AB.

    ``roles`` are detected with ``CHAIN_DETECT_TOL`` on first read and
    cached, so a chain whose roles go unread costs no detection. A
    ``GeometryError`` from detection therefore surfaces at that read, not
    when the chain is built.
    """

    seed: Triangle
    point: Point
    steps: tuple[Triangle, ...]

    @property
    def triangles(self) -> list[Triangle]:
        return [self.seed, *self.steps]

    @cached_property
    def roles(self) -> tuple[SpecialRole, ...]:
        """The role ``point`` plays in each of ``triangles``."""
        return tuple(
            detect_special_role(t, self.point, CHAIN_DETECT_TOL) for t in self.triangles
        )


def _step(t: Triangle, p: Point, theta: float) -> tuple[Triangle, float, float]:
    """``family_member(t, p, theta).triangle()`` and the coordinates of the
    triad's ``miquel_point``, with the same floats. Only the returned
    triangle's Points are built.

    Raises what ``family_member`` and ``miquel_point`` raise, and
    ``DegenerateStepError`` when the triangle leaves the coordinate range, where
    later constructions on it (the Brocard weights) overflow.
    """
    u, v, w = family_params(t, p, theta)
    a, b, c = t.a, t.b, t.c
    xx, xy = along_xy(b.x, b.y, c.x, c.y, u)
    yx, yy = along_xy(c.x, c.y, a.x, a.y, v)
    zx, zy = along_xy(a.x, a.y, b.x, b.y, w)
    # every comparison with NaN is false, so NaN is out of range too
    in_range = all(abs(q) <= MAX_COORDINATE for q in (xx, xy, yx, yy, zx, zy)) and max(
        math.hypot(yx - xx, yy - xy), math.hypot(zx - yx, zy - yy), math.hypot(xx - zx, xy - zy)
    ) >= MIN_LONGEST_SIDE
    if not in_range:
        raise DegenerateStepError(
            "the triangle is out of range: its coordinates must lie within"
            f" ±{MAX_COORDINATE:.0e} and its longest side must be at least"
            f" {MIN_LONGEST_SIDE:.0e}"
        )
    *_, (mx, my) = miquel_xy(t, xx, xy, yx, yy, zx, zy)
    return Triangle(Point(xx, xy), Point(yx, yy), Point(zx, zy)), mx, my


def iterate_chain(
    t0: Triangle, p: Point, k: int, thetas: Sequence[float] | None = None
) -> ChainRecord:
    """Run ``k`` nesting steps from ``t0`` with fixed point ``p``, at most
    ``MAX_CHAIN_STEPS``.

    Step i takes the family member of the current triangle at rotation
    ``thetas[i]`` (default all zero: the pedal chain) and promotes its triad
    triangle to the next host. The point must stay off every side line and
    circumcircle along the way, and each step's concurrency point must stay
    on it. Each step triangle must stay inside the coordinate range that
    scenes are held to (``MAX_COORDINATE``, ``MIN_LONGEST_SIDE``).

    No role is detected here: the record detects each role with
    ``CHAIN_DETECT_TOL`` on first read.
    """
    if k < 1:
        raise ValueError("a chain needs at least one step")
    if k > MAX_CHAIN_STEPS:
        raise ValueError(f"chain length {k} exceeds the cap of {MAX_CHAIN_STEPS} steps")
    if thetas is None:
        thetas = (0.0,) * k
    elif len(thetas) != k:
        raise ValueError(f"theta schedule has {len(thetas)} entries for {k} steps")
    steps: list[Triangle] = []
    current = t0
    for i, theta in enumerate(thetas):
        if on_circumcircle(current, p):
            raise DegenerateStepError(f"collinear collapse on the circumcircle at step {i}")
        try:  # family_params rejects a point on a side line
            nxt, mx, my = _step(current, p, theta)
        except GeometryError as exc:
            raise DegenerateStepError(f"step {i} degenerated: {exc}") from exc
        if math.hypot(mx - p.x, my - p.y) > CONCURRENCY_BAND * current.circumradius:
            raise DegenerateStepError(
                f"concurrency point drifted off the fixed point at step {i}"
            )
        steps.append(nxt)
        current = nxt
    return ChainRecord(t0, p, tuple(steps))


def check_mod3_similarity(rec: ChainRecord) -> float:
    """The worst relative gap |r_j − r_i| / |r_i| between the shape ratios
    r = (B − A)/(C − A) of chain triangles i ≡ j (mod 3), which are directly
    similar, vertex for vertex; a mirrored or relabeled triangle is not."""
    tris = rec.triangles
    if len(tris) < 4:
        raise ValueError("need at least four triangles to compare mod-3 classes")
    ratios = [
        complex(t.b.x - t.a.x, t.b.y - t.a.y) / complex(t.c.x - t.a.x, t.c.y - t.a.y)
        for t in tris
    ]
    return max(
        abs(ratios[j] - ratios[i]) / abs(ratios[i])
        for i in range(len(ratios))
        for j in range(i + 3, len(ratios), 3)
    )


# cyclic successor of a role name along a chain; the incircle/excircle role
# and the three arc/median/symmedian roles advance together
_ROLE_SUCCESSOR = {
    "circumcenter": ("orthocenter",),
    "orthocenter": ("incenter", "excenter"),
    "incenter": ("circumcenter",),
    "excenter": ("circumcenter",),
    "first_brocard": ("first_brocard",),
    "second_brocard": ("second_brocard",),
    "s_role": ("m_role",),
    "m_role": ("q_role",),
    "q_role": ("s_role",),
}


def follows_role_cycle(roles: Sequence[SpecialRole]) -> bool:
    """True when every consecutive role pair matches the cyclic recurrence."""
    names = [r.role for r in roles]
    if any(n not in _ROLE_SUCCESSOR for n in names):
        return False
    return all(
        names[i + 1] in _ROLE_SUCCESSOR[names[i]] for i in range(len(names) - 1)
    )
