"""Seeded randomized verification suites, one per numbered claim.

``run_suite`` builds each ``SuiteReport`` and the suite fills it, drawing
its randomness through ``SuiteReport.rng``, which keys ``sampling.rng_for``
by (suite, seed, trial index), so reports are deterministic and trials could
be evaluated in any order. A claim aggregates the worst residual over all
trials and keeps the worst offending instance for reproduction.
"""

from __future__ import annotations

import math
import random
import time

from . import centers
from .centers import Measures, isogonal_conjugate, locate_xy, measures_xy
from .chains import (
    CHAIN_SIMILARITY_TOL,
    check_mod3_similarity,
    follows_role_cycle,
    iterate_chain,
)
from .kernel import (
    HALF_PI,
    VERTEX_LABELS,
    TriangleXY,
    angle_distance,
    checked_xy,
    circumcircle,
    contains_xy,
    corners_xy,
    directed_angle_at_xy,
    directed_angle_xy,
    half_turn,
    invert_xy,
    line_through,
    midpoint,
    offset_xy,
    reflect_xy,
    second_intersection,
    shape_gap,
    shape_ratio,
)
from .sampling import (
    random_acute_triangle,
    random_arc_point,
    random_catalog_triangle,
    random_circumcircle_point,
    random_exterior_point,
    random_interior_point,
    random_isosceles,
    random_obtuse_at,
    random_point_in_circumdisk,
    random_triangle,
    rng_for,
)
from .triads import (
    PEDAL_SIMILARITY_TOL,
    SpecialRole,
    cevian_angles_xy,
    classify_similarity,
    containment_parity,
    detect_special_role,
    family_xy,
    miquel_angles_xy,
    miquel_residual,
    miquel_xy,
    pedal_shape_xy,
    simson_line,
    triad_xy,
    verify_miquel_equations,
)

class ClaimResult:
    def __init__(self, name: str, tol: float, informational: bool = False) -> None:
        self.name = name
        self.tol = tol
        self.trials = 0
        self.max_residual = 0.0
        self._worst: tuple | None = None  # (i, t, p, note) of the worst trial
        self.informational = informational

    @property
    def worst(self) -> str | None:
        """The witness of the worst trial, formatted when read."""
        return None if self._worst is None else _witness(*self._worst)

    @property
    def passed(self) -> bool:
        """Some trial reached the claim and every residual is below ``tol``."""
        return self.trials > 0 and self.max_residual < self.tol

    def add(
        self, residual: float, i: int, t: TriangleXY, p=None, note: str = ""
    ) -> None:
        """Count trial ``i`` on host ``t`` (and point ``p``, an (x, y) pair);
        it is kept for ``worst`` when it is the new worst. A NaN residual
        fails the trial: it counts as ``inf``, so no NaN is reported."""
        self.trials += 1
        if math.isnan(residual):
            residual = math.inf
        if residual > self.max_residual:
            self.max_residual = residual
            self._worst = i, t, p, note

    def add_bool(
        self, ok: bool, i: int, t: TriangleXY, p=None, note: str = ""
    ) -> None:
        self.add(0.0 if ok else 1.0, i, t, p, note)


class SuiteReport:
    def __init__(self, suite: str, seed: int, trials: int) -> None:
        self.suite = suite
        self.seed = seed
        self.trials = trials
        self.claims: list[ClaimResult] = []
        self.duration = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims if not c.informational)

    def claim(self, name: str, tol: float, informational: bool = False) -> ClaimResult:
        c = ClaimResult(name, tol, informational=informational)
        self.claims.append(c)
        return c

    def rng(self, trial: int) -> random.Random:
        """The generator of one trial, keyed by (suite, seed, trial)."""
        return rng_for(self.seed, self.suite, trial)


def _witness(i: int, t: TriangleXY, p, note: str) -> str:
    ax, ay, bx, by, cx, cy = t
    core = f"trial {i}: A=({ax!r},{ay!r}) B=({bx!r},{by!r}) C=({cx!r},{cy!r})"
    if p is not None:
        px, py = p
        core += f" P=({px!r},{py!r})"
    return core + note


def _pedal(t: TriangleXY, px: float, py: float) -> Measures:
    """The pedal triangle of (px, py) in ``t``, measured by ``measures_xy``,
    which rejects a collinear one as ``side_lengths_xy`` does."""
    return measures_xy(family_xy(t, px, py, 0.0)[0])


def suite_theorem1(report: SuiteReport) -> None:
    """Three circles through a vertex and its adjacent triad points meet in
    one point, for triad points anywhere on the sides or their extensions."""
    concurrency = report.claim("circle-concurrency", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        params = []
        draw = rng.random
        while len(params) < 3:
            s = -1.0 + (2.0 - -1.0) * draw()  # rng.uniform(-1.0, 2.0)
            if abs(s) > 0.05 and abs(s - 1.0) > 0.05:
                params.append(s)
        # no checked triad and no checked circles: with the host inside
        # MAX_COORDINATE and these parameters, their finiteness and radius
        # checks cannot fail (see triads.verify_miquel_equations)
        *circles, (mx, my) = miquel_xy(t, triad_xy(t, *params))
        residual = miquel_residual(circles, mx, my) / circumcircle(*t)[2]
        concurrency.add(residual, i, t, checked_xy(mx, my))


def suite_theorem2(report: SuiteReport) -> None:
    """Directed-angle identities at the concurrency point: A + X = BPC,
    B + Y = CPA, C + Z = APB, over random family members."""
    equations = report.claim("angle-equations", 1e-9)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        px, py = p = random_point_in_circumdisk(rng, t, circumcircle(*t))
        theta = rng.uniform(-1.2, 1.2)
        worst = verify_miquel_equations(t, px, py, family_xy(t, px, py, theta)[0])
        equations.add(worst, i, t, p)


def suite_lemma1(report: SuiteReport) -> None:
    """Interior/exterior containment parity between the host triangle and
    the pedal triangle of the same point."""
    parity = report.claim("containment-parity", 0.5)
    ray_sum = report.claim("interior-ray-turn", 1e-9)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        circle = circumcircle(*t)
        if i % 2 == 0:
            p = random_interior_point(rng, t)
        elif i % 4 == 1:
            while True:  # inside the circumcircle but outside the triangle
                p = random_point_in_circumdisk(rng, t, circle, line_margin=0.03)
                if not contains_xy(t, *p):
                    break
        else:
            p = random_exterior_point(rng, t, circle, min_factor=1.05)
        rep = containment_parity(t, circle, *p)
        parity.add_bool(rep.agree, i, t, p)
        if rep.ray_angle_sum is not None:
            ray_sum.add(abs(rep.ray_angle_sum - 2.0 * math.pi), i, t, p)


def suite_lemma2(report: SuiteReport) -> None:
    """The pedal-triangle angles equal the pairwise sums of the sextet
    angles, for points inside the circumcircle."""
    formulas = report.claim("sextet-angle-formulas", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        circle = circumcircle(*t)
        px, py = p = random_point_in_circumdisk(rng, t, circle)
        # the cevian-angle sums and the pedal triad's measured angles, as floats
        ang_x, ang_y, ang_z = miquel_angles_xy(t, px, py, circle[2])
        (xx, xy, yx, yy, zx, zy), _ = family_xy(t, px, py, 0.0)
        worst = max(
            angle_distance(ang_x, directed_angle_xy(yx, yy, xx, xy, zx, zy)),
            angle_distance(ang_y, directed_angle_xy(zx, zy, yx, yy, xx, xy)),
            angle_distance(ang_z, directed_angle_xy(xx, xy, zx, zy, yx, yy)),
        )
        formulas.add(worst, i, t, p)


def suite_theorem3(report: SuiteReport) -> None:
    """Circumcircle-inverse points have mirrored pedal triangles, vertex for
    vertex."""
    similar = report.claim("inverse-pedal-similarity", 1e-7)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        circle = ox, oy, radius = circumcircle(*t)
        while True:
            p = random_point_in_circumdisk(rng, t, circle, radial_margin=0.05)
            if math.hypot(p[0] - ox, p[1] - oy) > 0.1 * radius:
                break
        q = invert_xy(circle, *p)
        r_p, r_q = (shape_ratio(pedal_shape_xy(t, *r), (0, 1, 2)) for r in (p, q))
        similar.add(shape_gap(r_p, r_q, True), i, t, p)


def suite_theorem4(report: SuiteReport) -> None:
    """The eleven-point catalog: six interior points and their five exterior
    inverses, whose pedal triangles are similar to the host under the
    recorded correspondence."""
    interior_perm = report.claim("interior-angle-permutations", 1e-7)
    exterior_sim = report.claim("exterior-inverse-similarity", 1e-7)
    counts = report.claim("six-interior-five-exterior", 0.5)
    distinct = report.claim("pairwise-distinct", 0.5)
    orientation_note = report.claim("orientation-split-observed", 0.5, informational=True)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_catalog_triangle(rng)
        m = measures_xy(t)
        cat = centers.eleven_point_catalog(m)
        r = m.circumradius
        offsets = [math.dist(m.circumcenter_xy, e.location) - r for e in cat]
        inside = [e for e, off in zip(cat, offsets) if off < 0.0]
        outside = [e for e, off in zip(cat, offsets) if off > 0.0]
        counts.add_bool(len(inside) == 6 and len(outside) == 5, i, t)
        min_pair = min(
            math.dist(cat[a].location, cat[b].location)
            for a in range(len(cat))
            for b in range(a + 1, len(cat))
        )
        distinct.add_bool(min_pair > 1e-6 * r, i, t)
        host = shape_ratio(t, (0, 1, 2))
        mirrored = []
        for e in cat:
            shape = pedal_shape_xy(t, *e.location)
            gap = shape_gap(host, shape_ratio(shape, e.order), e.mirrored)
            if e.inverse:
                exterior_sim.add(gap, i, t, e.location)
            else:
                interior_perm.add(gap, i, t, e.location)
                match = classify_similarity(t, shape, PEDAL_SIMILARITY_TOL)
                mirrored.append(match.mirrored if match else None)
        orientation_note.add_bool(
            mirrored.count(False) == 3 and mirrored.count(True) == 3,
            i, t,
        )


def suite_theorem5(report: SuiteReport) -> None:
    """Circumcenter hosts: the point is the orthocenter of its pedal triangle."""
    claim = report.claim("orthocenter-of-pedal", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        ox, oy, r = circumcircle(*t)
        hx, hy = locate_xy(_pedal(t, ox, oy), SpecialRole("orthocenter"))
        claim.add(math.hypot(hx - ox, hy - oy) / r, i, t, (ox, oy))


def suite_theorem6(report: SuiteReport) -> None:
    """Orthocenter hosts: the point is the incenter of the pedal triangle
    for acute hosts, and the excenter opposite the relabeled obtuse vertex
    for obtuse ones."""
    acute = report.claim("acute-incenter", 1e-8)
    obtuse = report.claim("obtuse-excenter", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        if i % 2 == 0:
            t = random_acute_triangle(rng)
            claim, role = acute, SpecialRole("incenter")
        else:
            v = VERTEX_LABELS[(i // 2) % 3]
            t = random_obtuse_at(rng, v)
            claim, role = obtuse, SpecialRole("excenter", v)
        m = measures_xy(t)
        hx, hy = h = locate_xy(m, SpecialRole("orthocenter"))
        tx, ty = locate_xy(_pedal(t, hx, hy), role)
        claim.add(math.hypot(tx - hx, ty - hy) / m.circumradius, i, t, h)


def suite_theorem7(report: SuiteReport) -> None:
    """Incircle and excircle centers become the circumcenter of their pedal
    triangle."""
    from_in = report.claim("incenter-to-circumcenter", 1e-8)
    from_ex = report.claim("excenter-to-circumcenter", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        m = measures_xy(t)
        for claim, role in ((from_in, SpecialRole("incenter")),
                            (from_ex, SpecialRole("excenter", VERTEX_LABELS[i % 3]))):
            lx, ly = l = locate_xy(m, role)
            ox, oy = _pedal(t, lx, ly).circumcenter_xy
            claim.add(math.hypot(ox - lx, oy - ly) / m.circumradius, i, t, l)


def _brocard_angle_spread(
    xy: TriangleXY, radius: float, px: float, py: float, which: str
) -> float:
    """How far apart the three angles of the Brocard condition are at
    (px, py) in the triangle ``xy`` of circumradius ``radius``: the cevian
    angles alpha2, beta2, gamma2 of ``cevian_angles_xy`` for the first point,
    alpha1, beta1, gamma1 for the second."""
    trio = cevian_angles_xy(xy, px, py, radius, which == "first")
    return max(angle_distance(trio[0], trio[1]), angle_distance(trio[1], trio[2]))


def suite_theorem8(report: SuiteReport) -> None:
    """Brocard points stay Brocard points of their pedal triangles."""
    position = report.claim("brocard-position", 1e-8)
    angles = report.claim("brocard-angle-condition", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        which = "first" if i % 2 == 0 else "second"
        role = SpecialRole(f"{which}_brocard")
        m = measures_xy(t)
        px, py = p = locate_xy(m, role)
        shape = _pedal(t, px, py)
        bx, by = locate_xy(shape, role)
        position.add(math.hypot(bx - px, by - py) / m.circumradius, i, t, p)
        angles.add(_brocard_angle_spread(shape.xy, shape.circumradius, px, py, which), i, t, p)


def suite_theorem9(report: SuiteReport) -> None:
    """Symmedian arc points land on the median of their pedal triangle, at
    the mirrored-chord position, i.e. they take the median special role."""
    on_median = report.claim("on-pedal-median", 1e-7)
    midpoint_rel = report.claim("median-chord-midpoint", 1e-7)
    m_match = report.claim("median-point-match", 1e-7)
    for i in range(report.trials):
        rng = report.rng(i)
        v = VERTEX_LABELS[i % 3]
        t = random_obtuse_at(rng, v) if i % 2 else random_acute_triangle(rng)
        m = measures_xy(t)
        px, py = p = locate_xy(m, SpecialRole("s_role", v))
        shape = _pedal(t, px, py)
        apex, b2, c2 = corners_xy(shape.xy, v)
        e = midpoint(b2, c2)
        median = line_through(apex, e)
        r = m.circumradius
        on_median.add(abs(offset_xy(*median, px, py)) / r, i, t)
        if m.angles[VERTEX_LABELS.index(v)] < HALF_PI:
            f = second_intersection(median, (*shape.circumcenter_xy, shape.circumradius), apex)
            midpoint_rel.add(abs(math.dist(e, p) - math.dist(e, f)) / r, i, t)
        else:
            f = second_intersection(median, circumcircle(*corners_xy(t, v)[0], *b2, *c2), p)
            midpoint_rel.add(abs(math.dist(apex, e) - math.dist(e, f)) / r, i, t)
        mx, my = locate_xy(shape, SpecialRole("m_role", v))
        m_match.add(math.hypot(mx - px, my - py) / r, i, t)


def suite_theorem10(report: SuiteReport) -> None:
    """Median special points give isosceles pedal triangles, sit on the
    circle through the base vertices and the pedal incenter, and flip
    interior/exterior with the host's acuteness."""
    base_angles = report.claim("isosceles-base-angles", 1e-8)
    arc = report.claim("on-base-incenter-circle", 1e-8)
    parity = report.claim("containment-parity", 0.5)
    for i in range(report.trials):
        rng = report.rng(i)
        v = VERTEX_LABELS[i % 3]
        obtuse_case = bool(i % 2)
        t = random_obtuse_at(rng, v) if obtuse_case else random_acute_triangle(rng)
        m = measures_xy(t)
        px, py = p = locate_xy(m, SpecialRole("m_role", v))
        shape = _pedal(t, px, py)
        _, b2, c2 = corners_xy(shape.xy, v)
        host_dir = directed_angle_at_xy(t, v)
        worst = max(
            angle_distance(directed_angle_at_xy(shape.xy, u), host_dir)
            for u in VERTEX_LABELS if u != v
        )
        base_angles.add(worst, i, t, p)
        l = locate_xy(shape, SpecialRole("incenter"))
        ox, oy, r = circumcircle(*b2, *c2, *l)
        arc.add(abs(math.hypot(ox - px, oy - py) - r) / m.circumradius, i, t, p)
        inside = contains_xy(shape.xy, px, py)
        parity.add_bool(inside != obtuse_case, i, t, p)


def suite_theorem11(report: SuiteReport) -> None:
    """On an isosceles host, points of the base-incenter arc take the
    symmedian arc role in their pedal triangle."""
    s_match = report.claim("s-point-match", 1e-7)
    double_angle = report.claim("double-angle-at-point", 1e-8)
    role = report.claim("role-detected", 0.5)
    for i in range(report.trials):
        rng = report.rng(i)
        v = VERTEX_LABELS[i % 3]
        t = random_isosceles(rng, v)
        m = measures_xy(t)
        l = locate_xy(m, SpecialRole("incenter"))
        _, b, c = corners_xy(t, v)
        px, py = p = random_arc_point(rng, circumcircle(*b, *c, *l), c, b, l)
        shape = _pedal(t, px, py)
        sx, sy = locate_xy(shape, SpecialRole("s_role", v))
        s_match.add(math.hypot(sx - px, sy - py) / m.circumradius, i, t, p)
        _, b2, c2 = corners_xy(shape.xy, v)
        double_angle.add(
            angle_distance(directed_angle_xy(*b2, px, py, *c2),
                           half_turn(2 * directed_angle_at_xy(shape.xy, v))),
            i, t, p,
        )
        detected = detect_special_role(shape, px, py, 1e-7)
        role.add_bool(detected == SpecialRole("s_role", v), i, t, p)


def suite_theorem12(report: SuiteReport) -> None:
    """The symmedian arc point and the median special point of each vertex
    are isogonal conjugates."""
    pair = report.claim("isogonal-pair", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        v = VERTEX_LABELS[i % 3]
        t = random_obtuse_at(rng, v) if i % 2 else random_acute_triangle(rng)
        m = measures_xy(t)
        sx, sy = locate_xy(m, SpecialRole("s_role", v))
        cx, cy = isogonal_conjugate(m, sx, sy)
        mx, my = locate_xy(m, SpecialRole("m_role", v))
        pair.add(math.hypot(cx - mx, cy - my) / m.circumradius, i, t)


def suite_theorem13(report: SuiteReport) -> None:
    """On an isosceles host, reflecting a base-incenter arc point over the
    axis yields its isogonal conjugate (three mirrored angle equations)."""
    equations = report.claim("mirror-angle-equations", 1e-8)
    conj = report.claim("conjugate-position", 1e-8)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_isosceles(rng, "A")
        m = measures_xy(t)
        l = locate_xy(m, SpecialRole("incenter"))
        a, b, c = corners_xy(t, "A")
        qx, qy = q = random_arc_point(rng, circumcircle(*b, *c, *l), c, b, l)
        axis = line_through(a, midpoint(b, c))
        tx, ty = tpt = checked_xy(*reflect_xy(*axis, qx, qy))
        worst = max(
            angle_distance(directed_angle_xy(*c, *b, *tpt), directed_angle_xy(*q, *b, *a)),
            angle_distance(directed_angle_xy(*b, *a, *q), directed_angle_xy(*tpt, *a, *c)),
            angle_distance(directed_angle_xy(*a, *c, *tpt), directed_angle_xy(*q, *c, *b)),
        )
        equations.add(worst, i, t, q)
        jx, jy = isogonal_conjugate(m, qx, qy)
        conj.add(math.hypot(jx - tx, jy - ty) / m.circumradius, i, t, q)


def _chain_points(rng, m: Measures) -> list[tuple[str, tuple[float, float]]]:
    return [
        ("O", locate_xy(m, SpecialRole("circumcenter"))),
        ("H", locate_xy(m, SpecialRole("orthocenter"))),
        ("L", locate_xy(m, SpecialRole("incenter"))),
        ("brocard1", locate_xy(m, SpecialRole("first_brocard"))),
        ("random", random_interior_point(rng, m.xy)),
    ]


def suite_theorem14(report: SuiteReport) -> None:
    """Chains: triangles with indices congruent mod 3 are directly similar,
    vertex for vertex, for the pedal and random rotation schedules."""
    default_sched = report.claim("mod3-pedal-schedule", CHAIN_SIMILARITY_TOL)
    random_sched = report.claim("mod3-random-schedule", CHAIN_SIMILARITY_TOL)
    k = 9
    for i in range(report.trials):
        rng = report.rng(i)
        m = measures_xy(random_triangle(rng, min_angle=0.35, right_gap=0.1))
        draw = rng.random
        for name, p in _chain_points(rng, m):
            gap = check_mod3_similarity(iterate_chain(m, *p, k))
            default_sched.add(gap, i, m.xy, p, note=f" [{name}]")
            thetas = [-math.pi / 3 + (math.pi / 3 - -math.pi / 3) * draw() for _ in range(k)]
            gap = check_mod3_similarity(iterate_chain(m, *p, k, thetas=thetas))
            random_sched.add(gap, i, m.xy, p, note=f" [{name}]")


# theorem15's correspondences: for each named point, chain triangle k against
# the seed by k mod 3, as (``SimilarityClass.order``, mirrored)
_SAME = ((0, 1, 2), False)
_FIXING = {"A": (0, 2, 1), "B": (2, 1, 0), "C": (1, 0, 2)}  # the transposition fixing v
SEED_CORRESPONDENCES = {
    "O": {1: _SAME, 0: _SAME},
    "H": {2: _SAME, 0: _SAME},
    "Ω₁": {1: ((2, 0, 1), False), 2: ((1, 2, 0), False), 0: _SAME},
    "Ω₂": {1: ((1, 2, 0), False), 2: ((2, 0, 1), False), 0: _SAME},
    **{f"S_{v}": {1: (_FIXING[v], True), 0: _SAME} for v in VERTEX_LABELS},
    **{f"M_{v}": {2: (_FIXING[v], True), 0: _SAME} for v in VERTEX_LABELS},
}


def _seed_gaps(rec, name: str):
    """(k, gap) for each chain triangle k that ``SEED_CORRESPONDENCES`` pins
    for ``name``: its shape-ratio gap from the seed under that correspondence."""
    seed = shape_ratio(rec.seed.xy, (0, 1, 2))
    for k, xy in enumerate(rec.steps, 1):
        if k % 3 in SEED_CORRESPONDENCES[name]:
            order, mirrored = SEED_CORRESPONDENCES[name][k % 3]
            yield k, shape_gap(seed, shape_ratio(xy, order), mirrored)


def suite_theorem15(report: SuiteReport) -> None:
    """Chain similarity-to-seed schedules, each step under its pinned
    correspondence: Brocard chains all similar; circumcenter and symmedian
    chains at steps 0,1 mod 3; orthocenter and median chains at 2,0 mod 3."""
    brocard_all = report.claim("brocard-all-similar", CHAIN_SIMILARITY_TOL)
    brocard_angles = report.claim("brocard-angle-fixed", 1e-7)
    o_s_steps = report.claim("seed-similar-steps-0-1-mod3", CHAIN_SIMILARITY_TOL)
    h_m_steps = report.claim("seed-similar-steps-2-0-mod3", CHAIN_SIMILARITY_TOL)
    generic = report.claim("generic-steps-1-2-dissimilar", 0.5, informational=True)
    k = 6
    for i in range(report.trials):
        rng = report.rng(i)
        seed = random_triangle(rng, min_angle=0.35, right_gap=0.1)
        m = measures_xy(seed)
        v = VERTEX_LABELS[i % 3]

        for which, name in (("first", "Ω₁"), ("second", "Ω₂")):
            px, py = locate_xy(m, SpecialRole(f"{which}_brocard"))
            rec = iterate_chain(m, px, py, k)
            for _, gap in _seed_gaps(rec, name):
                brocard_all.add(gap, i, seed, note=f" [{which}]")
            for xy, (*_, r) in zip((seed, *rec.steps), rec.circles):
                spread = _brocard_angle_spread(xy, r, px, py, which)
                brocard_angles.add(spread, i, seed, note=f" [{which}]")

        for claim, name, p in (
            (o_s_steps, "O", locate_xy(m, SpecialRole("circumcenter"))),
            (o_s_steps, f"S_{v}", locate_xy(m, SpecialRole("s_role", v))),
            (h_m_steps, "H", locate_xy(m, SpecialRole("orthocenter"))),
            (h_m_steps, f"M_{v}", locate_xy(m, SpecialRole("m_role", v))),
        ):
            for step_idx, gap in _seed_gaps(iterate_chain(m, *p, k), name):
                claim.add(gap, i, seed, note=f" [k={step_idx}]")

        rec = iterate_chain(m, *random_interior_point(rng, seed), 2)
        # steps 1 and 2
        dissimilar = all(
            classify_similarity(seed, xy, CHAIN_SIMILARITY_TOL) is None for xy in rec.steps
        )
        generic.add_bool(dissimilar, i, seed, note=" [random]")


def suite_corollary4(report: SuiteReport) -> None:
    """Detected role sequences along chains: circumcenter -> orthocenter ->
    in/excenter repeating, symmedian -> median -> arc role repeating, and
    Brocard points pinned at every step."""
    center_cycle = report.claim("center-role-cycle", 0.5)
    symmedian_cycle = report.claim("symmedian-role-cycle", 0.5)
    brocard_fixed = report.claim("brocard-role-fixed", 0.5)
    k = 6
    for i in range(report.trials):
        rng = report.rng(i)
        seed = random_triangle(rng, min_angle=0.35, right_gap=0.1)
        m = measures_xy(seed)
        v = VERTEX_LABELS[i % 3]

        o = locate_xy(m, SpecialRole("circumcenter"))
        roles = iterate_chain(m, *o, k).roles
        ok = roles[0].role == "circumcenter" and follows_role_cycle(roles)
        center_cycle.add_bool(ok, i, seed, note=" [O]")

        s = locate_xy(m, SpecialRole("s_role", v))
        roles = iterate_chain(m, *s, k).roles
        ok = (
            roles[0].role == "s_role"
            and follows_role_cycle(roles)
            and all(r.vertex == v for r in roles)
        )
        symmedian_cycle.add_bool(ok, i, seed, note=f" [S_{v}]")

        for which, role_name in (("first", "first_brocard"), ("second", "second_brocard")):
            p = locate_xy(m, SpecialRole(role_name))
            rec = iterate_chain(m, *p, k)
            brocard_fixed.add_bool(
                all(r.role == role_name for r in rec.roles), i, seed, note=f" [{which}]"
            )


def suite_simson(report: SuiteReport) -> None:
    """Points on the circumcircle: the three pedal feet are collinear."""
    collinear = report.claim("feet-collinear", 1e-9)
    for i in range(report.trials):
        rng = report.rng(i)
        t = random_triangle(rng)
        circle = circumcircle(*t)
        p = random_circumcircle_point(rng, t, circle)
        collinear.add(simson_line(t, *p).max_deviation() / circle[2], i, t, p)


# each suite with its default trial count
SUITES = {
    "theorem1": (suite_theorem1, 1000),
    "theorem2": (suite_theorem2, 500),
    "theorem3": (suite_theorem3, 200),
    "theorem4": (suite_theorem4, 50),
    "theorem5": (suite_theorem5, 100),
    "theorem6": (suite_theorem6, 100),
    "theorem7": (suite_theorem7, 100),
    "theorem8": (suite_theorem8, 100),
    "theorem9": (suite_theorem9, 100),
    "theorem10": (suite_theorem10, 100),
    "theorem11": (suite_theorem11, 100),
    "theorem12": (suite_theorem12, 200),
    "theorem13": (suite_theorem13, 100),
    "theorem14": (suite_theorem14, 50),
    "theorem15": (suite_theorem15, 50),
    "corollary4": (suite_corollary4, 50),
    "lemma1": (suite_lemma1, 400),
    "lemma2": (suite_lemma2, 500),
    "simson": (suite_simson, 200),
}


def run_suite(name: str, seed: int, trials: int | None = None) -> SuiteReport:
    """Run suite ``name`` at ``seed`` over ``trials`` trials (its default
    count when None), timed: the one way to run a suite."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    suite, default_trials = SUITES[name]
    if trials is None:
        trials = default_trials
    elif trials < 1:
        raise ValueError(f"a suite needs at least one trial, got {trials}")
    report = SuiteReport(name, seed, trials)
    started = time.perf_counter()
    suite(report)
    report.duration = time.perf_counter() - started
    return report
