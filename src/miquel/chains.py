"""Iterated triad triangles around a fixed concurrency point: construction,
period-3 similarity bookkeeping, and the cyclic center-role recurrences."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import DegenerateStepError, GeometryError
from .kernel import DEFAULT_TOL, DirectedAngle, Point, Tolerance, Triangle
from .triads import (
    MiquelResult,
    SimilarityClass,
    SpecialRole,
    Triad,
    classify_similarity,
    detect_special_role,
    family_member,
    miquel_point,
    on_circumcircle,
)

# role positions drift along a chain as numeric error compounds; detection
# therefore uses a looser relative band than one-shot constructions
CHAIN_DETECT_TOL = Tolerance(angle_eps=1e-9, length_eps_rel=1e-6)


@dataclass(frozen=True)
class ChainStep:
    """One nesting step. ``role`` is the role ``point`` plays in
    ``triangle``, detected with ``CHAIN_DETECT_TOL`` on first read and
    cached."""

    triangle: Triangle
    triad: Triad
    result: MiquelResult
    point: Point

    @cached_property
    def role(self) -> SpecialRole:
        return detect_special_role(self.triangle, self.point, CHAIN_DETECT_TOL)


@dataclass(frozen=True)
class ChainRecord:
    """A run of nested triad triangles sharing one concurrency point.

    ``steps[k].triangle`` is the triangle after k+1 steps; its vertices are
    the triad points relabeled A = point on the old BC, B = on CA, C = on AB.

    Roles are detected with ``CHAIN_DETECT_TOL`` on first read
    (``seed_role``, ``roles``, ``steps[k].role``) and cached, so a chain
    whose roles go unread costs no detection. A ``GeometryError`` from
    detection therefore surfaces at that read, not when the chain is built.
    """

    seed: Triangle
    point: Point
    thetas: tuple[float, ...]
    steps: tuple[ChainStep, ...]

    @property
    def triangles(self) -> list[Triangle]:
        return [self.seed] + [s.triangle for s in self.steps]

    @cached_property
    def seed_role(self) -> SpecialRole:
        return detect_special_role(self.seed, self.point, CHAIN_DETECT_TOL)

    @property
    def roles(self) -> list[SpecialRole]:
        return [self.seed_role] + [s.role for s in self.steps]


def _normalize_thetas(thetas, k: int) -> tuple[float, ...]:
    if thetas is None:
        return (0.0,) * k
    if isinstance(thetas, (int, float, DirectedAngle)):
        th = thetas.value if isinstance(thetas, DirectedAngle) else float(thetas)
        return (th,) * k
    values = tuple(
        th.value if isinstance(th, DirectedAngle) else float(th) for th in thetas
    )
    if len(values) != k:
        raise ValueError(f"theta schedule has {len(values)} entries for {k} steps")
    return values


def iterate_chain(
    t0: Triangle,
    p: Point,
    k: int,
    thetas: Union[None, float, Sequence[float]] = None,
    max_steps: int = 12,
) -> ChainRecord:
    """Run ``k`` nesting steps from ``t0`` with fixed point ``p``.

    Each step takes the family member of the current triangle at the
    scheduled rotation (default all-zero: the pedal chain) and promotes its
    triad triangle to the next host. The point must stay off every side
    line and circumcircle along the way. Pedal steps lose roughly a digit
    each on ill-conditioned hosts, hence the default cap; raise
    ``max_steps`` deliberately to go deeper.

    No role is detected here: the record detects each role with
    ``CHAIN_DETECT_TOL`` on first read.
    """
    if k < 1:
        raise ValueError("a chain needs at least one step")
    if k > max_steps:
        raise ValueError(f"chain length {k} exceeds the cap of {max_steps} steps")
    schedule = _normalize_thetas(thetas, k)
    steps: list[ChainStep] = []
    current = t0
    for i, theta in enumerate(schedule):
        if on_circumcircle(current, p):
            raise DegenerateStepError(f"collinear collapse on the circumcircle at step {i}")
        try:  # family_member rejects a point on a side line
            triad = family_member(current, p, theta)
            result = miquel_point(current, triad)
            nxt = triad.triangle()
        except GeometryError as exc:
            raise DegenerateStepError(f"step {i} degenerated: {exc}") from exc
        if result.point.dist(p) > 1e-6 * current.circumradius:
            raise DegenerateStepError(
                f"concurrency point drifted off the fixed point at step {i}"
            )
        steps.append(ChainStep(nxt, triad, result, p))
        current = nxt
    return ChainRecord(t0, p, schedule, tuple(steps))


@dataclass(frozen=True)
class Mod3Report:
    """Outcome of the mod-3 check on ``triangles``. ``cross_class_similar``
    classifies the pairs across residue classes with ``tol`` on first read
    and caches them."""

    ok: bool
    worst_residual: float
    failures: list[tuple[int, int]]
    triangles: tuple[Triangle, ...]
    tol: Tolerance

    @cached_property
    def cross_class_similar(self) -> list[tuple[int, int, SimilarityClass]]:
        tris = self.triangles
        cross: list[tuple[int, int, SimilarityClass]] = []
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                if (j - i) % 3 == 0:
                    continue
                match = classify_similarity(tris[i], tris[j], self.tol)
                if match is not None:
                    cross.append((i, j, match))
        return cross


def check_mod3_similarity(rec: ChainRecord, tol: Tolerance = DEFAULT_TOL) -> Mod3Report:
    """Every index pair congruent mod 3 must be similar. Only those pairs
    are classified here; pairs across residue classes are classified when
    the report's ``cross_class_similar`` is first read, which lists the
    ones that happen to match as well."""
    tris = tuple(rec.triangles)
    if len(tris) < 4:
        raise ValueError("need at least four triangles to compare mod-3 classes")
    failures: list[tuple[int, int]] = []
    worst = 0.0
    for i in range(len(tris)):
        for j in range(i + 3, len(tris), 3):
            match = classify_similarity(tris[i], tris[j], tol)
            if match is None:
                failures.append((i, j))
            else:
                worst = max(worst, match.residual)
    return Mod3Report(not failures, worst, failures, tris, tol)


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
