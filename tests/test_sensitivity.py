"""How large an error the claims can see.

Each location body's output is moved by delta times its scale, by
monkeypatching the body: S_v, M_v, the first Brocard point, the incenter and
each excenter by delta·R along +x, where R is the circumradius; X of
``family_xy`` by delta·|AB| along +x; and every checked circle's radius
(``checked_circle``, in each module that holds it) by the factor 1 + delta.
Then the 19 suites run at seed 7 with their default trials.

The table pins, for each body, the smallest decade delta at which a graded
claim fails or a suite raises, and which ones those are; at delta/10 every
graded claim passes. A change that weakens a claim moves its row, and a
tighter tolerance shows as a row caught at a smaller delta.
"""

import math

import pytest

from miquel import centers, chains, kernel, triads, verify
from miquel.errors import GeometryError
from miquel.verify import SUITES, run_suite


def _moved(p, d):
    return None if p is None else (p[0] + d, p[1])


def _s_m(k):
    def patch(monkeypatch, delta):
        real = centers._s_m_xy

        def moved(m, i):
            s_m = real(m, i)
            if s_m is None:
                return None
            s_m = list(s_m)
            s_m[k] = _moved(s_m[k], delta * m.circumradius)
            return tuple(s_m)

        monkeypatch.setattr(centers, "_s_m_xy", moved)
    return patch


def _vertex_free(k):
    def patch(monkeypatch, delta):
        real = centers._vertex_free_xy

        def moved(m):
            points = list(real(m))
            points[k] = _moved(points[k], delta * m.circumradius)
            return tuple(points)

        monkeypatch.setattr(centers, "_vertex_free_xy", moved)
    return patch


def _excenter(monkeypatch, delta):
    real = centers._excenters_xy
    monkeypatch.setattr(centers, "_excenters_xy",
                        lambda m: tuple(_moved(e, delta * m.circumradius) for e in real(m)))


def _family_x(monkeypatch, delta):
    real = triads.family_xy

    def moved(host, px, py, theta):
        (xx, xy, *rest), nearest = real(host, px, py, theta)
        ax, ay, bx, by, _, _ = host
        return (xx + delta * math.hypot(bx - ax, by - ay), xy, *rest), nearest

    for module in (triads, chains, verify):
        monkeypatch.setattr(module, "family_xy", moved)


def _radius(monkeypatch, delta):
    real = kernel.checked_circle

    def scaled(circle):
        cx, cy, r = real(circle)
        return cx, cy, r * (1.0 + delta)

    for module in (kernel, centers, triads):
        monkeypatch.setattr(module, "checked_circle", scaled)


# body: (patch, first decade caught, what catches it there)
SENSITIVITY = {
    "S_v": (_s_m(0), 1e-9, {"theorem9 raises GeometryError"}),
    "M_v": (_s_m(1), 1e-8, {"theorem10:isosceles-base-angles", "theorem12:isogonal-pair"}),
    "first_brocard": (_vertex_free(4), 1e-8, {
        "theorem4:interior-angle-permutations", "theorem4:exterior-inverse-similarity",
        "theorem8:brocard-angle-condition"}),
    "incenter": (_vertex_free(3), 1e-8, {
        "theorem7:incenter-to-circumcenter", "theorem10:on-base-incenter-circle",
        "theorem11:double-angle-at-point", "theorem13:mirror-angle-equations",
        "theorem13:conjugate-position"}),
    "excenter": (_excenter, 1e-8, {"theorem7:excenter-to-circumcenter"}),
    "family_X": (_family_x, 1e-10, {
        "theorem2:angle-equations", "theorem9 raises GeometryError",
        "theorem14 raises DegenerateStepError"}),
    "circumradius": (_radius, 1e-9, {
        "theorem9 raises GeometryError", "theorem11:double-angle-at-point",
        "theorem13:mirror-angle-equations", "theorem13:conjugate-position"}),
}


def _caught() -> set[str]:
    """The graded claims of every suite at seed 7 that fail, and the suites
    that raise, with the class of what they raise."""
    caught = set()
    for name in SUITES:
        try:
            report = run_suite(name, 7)
        except (GeometryError, ValueError) as exc:
            caught.add(f"{name} raises {type(exc).__name__}")
            continue
        caught |= {f"{name}:{c.name}" for c in report.claims
                   if not c.informational and not c.passed}
    return caught


@pytest.mark.parametrize("body", SENSITIVITY)
def test_first_decade_caught(body):
    patch, delta, expected = SENSITIVITY[body]
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch(monkeypatch, delta)
        assert _caught() == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch(monkeypatch, delta / 10.0)
        assert _caught() == set()
