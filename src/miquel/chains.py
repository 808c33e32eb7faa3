"""Iterated triad triangles around a fixed concurrency point: construction,
period-3 similarity bookkeeping, and the cyclic center-role recurrences."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .centers import Measures, measures_xy
from .errors import DegenerateStepError, GeometryError
from .kernel import (
    MAX_COORDINATE,
    MIN_LONGEST_SIDE,
    CircleXY,
    TriangleXY,
    circle_xy,
    reject_side_lines,
    shape_gap,
    shape_ratio,
)
from .triads import (
    CONCURRENCY_BAND,
    SpecialRole,
    detect_special_role,
    family_xy,
    miquel_xy,
    on_circle_xy,
)

# role positions drift along a chain as numeric error compounds; detection
# therefore uses a looser relative length band than one-shot constructions
CHAIN_DETECT_TOL = 1e-6

# the band of the chain similarity claims, for the same reason: the relative
# shape-ratio gap (kernel.shape_gap) of the mod-3 check and of theorem15
CHAIN_SIMILARITY_TOL = 1e-6

# pedal steps lose roughly a digit each on ill-conditioned hosts
MAX_CHAIN_STEPS = 12


class ChainRecord(NamedTuple):
    """A run of nested triad triangles sharing one concurrency point: the
    ``seed`` triangle's ``Measures``, the ``point`` as an (x, y) pair.

    ``steps[k]`` is the triangle after k+1 steps, as its six coordinates;
    its vertices are the triad points relabeled A = point on the old BC,
    B = on CA, C = on AB. ``circles`` are the circumcircles of the seed and
    the steps as the chain computed them: the seed's measured one, then
    ``circle_xy``'s.

    ``roles`` are detected with ``CHAIN_DETECT_TOL`` on each read, not
    cached, so a chain whose roles go unread costs no detection. A
    ``GeometryError`` from detection therefore surfaces at that read, not
    when the chain is built.
    """

    seed: Measures
    point: tuple[float, float]
    steps: tuple[TriangleXY, ...]
    circles: tuple[CircleXY, ...]

    @property
    def roles(self) -> tuple[SpecialRole, ...]:
        """The role ``point`` plays in the seed, on its measures, and in each
        step, measured on its kept circle, so no circumcircle is computed again."""
        px, py = self.point
        return (
            detect_special_role(self.seed, px, py, CHAIN_DETECT_TOL),
            *(detect_special_role(measures_xy(xy, circle), px, py, CHAIN_DETECT_TOL)
              for xy, circle in zip(self.steps, self.circles[1:])),
        )


def iterate_chain(
    seed: Measures, px: float, py: float, k: int, thetas: Sequence[float] | None = None
) -> ChainRecord:
    """Run ``k`` nesting steps from the triangle measured as ``seed`` with
    fixed point P = (px, py), at most ``MAX_CHAIN_STEPS``.

    Step i takes the family member of the current triangle at rotation
    ``thetas[i]`` (default all zero: the pedal chain) and promotes its triad
    triangle to the next host. The point must stay off every side line and
    circumcircle along the way, and each step's concurrency point must stay
    on it. Each step triangle must stay inside the coordinate range that
    scenes are held to (``MAX_COORDINATE``, ``MIN_LONGEST_SIDE``).

    The seed's circumcircle is the one ``seed`` holds, the floats of
    ``circumcircle``; each step triangle is kept as its six floats and its
    circumcircle comes from ``circle_xy``. No role is detected here: the
    record detects each role with ``CHAIN_DETECT_TOL`` on each read.

    A step raises ``DegenerateStepError``, in this order: for a point on the
    circumcircle; wrapping, with the step number, what ``family_xy`` and
    ``reject_side_lines`` raise, a triangle out of the coordinate range (where
    the Brocard weights overflow), what ``miquel_xy`` raises and the
    ``CollinearError`` of ``circle_xy`` for a collinear step triangle; and for
    a concurrency point drifted off P.
    """
    if k < 1:
        raise ValueError("a chain needs at least one step")
    if k > MAX_CHAIN_STEPS:
        raise ValueError(f"chain length {k} exceeds the cap of {MAX_CHAIN_STEPS} steps")
    if thetas is None:
        thetas = (0.0,) * k
    elif len(thetas) != k:
        raise ValueError(f"theta schedule has {len(thetas)} entries for {k} steps")
    big = MAX_COORDINATE
    steps: list[TriangleXY] = []
    host = seed.xy
    # measuring the seed checked that its center and radius are finite; each
    # step triangle lies inside the coordinate range, where they are
    circle = (*seed.circumcenter_xy, seed.circumradius)
    circles = [circle]
    for i, theta in enumerate(thetas):
        if on_circle_xy(circle, px, py):
            raise DegenerateStepError(f"collinear collapse on the circumcircle at step {i}")
        r = circle[2]
        try:
            triad, nearest = family_xy(host, px, py, theta)
            reject_side_lines(nearest, r)
            xx, xy, yx, yy, zx, zy = triad
            # every comparison with NaN is false, so NaN is out of range too
            if not (
                abs(xx) <= big and abs(xy) <= big and abs(yx) <= big
                and abs(yy) <= big and abs(zx) <= big and abs(zy) <= big
                and max(math.hypot(yx - xx, yy - xy), math.hypot(zx - yx, zy - yy),
                        math.hypot(xx - zx, xy - zy)) >= MIN_LONGEST_SIDE
            ):
                raise DegenerateStepError(
                    "the triangle is out of range: its coordinates must lie within"
                    f" ±{MAX_COORDINATE:.0e} and its longest side must be at least"
                    f" {MIN_LONGEST_SIDE:.0e}"
                )
            *_, (mx, my) = miquel_xy(host, triad)
            circle = circle_xy(*triad)
        except GeometryError as exc:
            raise DegenerateStepError(f"step {i} degenerated: {exc}") from exc
        if math.hypot(mx - px, my - py) > CONCURRENCY_BAND * r:
            raise DegenerateStepError(
                f"concurrency point drifted off the fixed point at step {i}"
            )
        steps.append(triad)
        circles.append(circle)
        host = triad
    return ChainRecord(seed, (px, py), tuple(steps), tuple(circles))


def check_mod3_similarity(rec: ChainRecord) -> float:
    """The worst relative gap |r_j − r_i| / |r_i| between the shape ratios
    r = (B − A)/(C − A) of chain triangles i ≡ j (mod 3), which are directly
    similar, vertex for vertex; a mirrored or relabeled triangle is not."""
    coords = [rec.seed.xy, *rec.steps]
    if len(coords) < 4:
        raise ValueError("need at least four triangles to compare mod-3 classes")
    ratios = [shape_ratio(xy, (0, 1, 2)) for xy in coords]
    return max(
        shape_gap(ratios[i], ratios[j], False)
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
