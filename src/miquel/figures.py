"""Schematic SVG rendering of scenes: triangle, chosen circles and lines,
labeled points. Output is a pure function of the scene and options, so the
same input yields byte-identical documents."""

from __future__ import annotations

import math

from . import centers, kernel
from .centers import Measures, SpecialRole
from .errors import GeometryError, SceneError
from .kernel import (CircleXY, LineXY, TriangleXY, checked_xy, circumcircle, corners_xy,
                     line_through, midpoint, second_intersection)
from .scene import ELEMENTS, SceneSpec
from .triads import (checked_triad, family_xy, miquel_point, on_circle_xy, simson_line,
                     triad_xy)

_STROKE = "#1a1a1a"
_AUX = "#5577bb"
_ACCENT = "#bb3344"
# the named points the "centers" element marks, drawn in table order
_DRAWN_CENTERS = ("circumcenter", "orthocenter", "incenter", "first_brocard", "second_brocard")


def _fmt(v: float) -> str:
    # fixed shortest-ish formatting keeps documents byte-stable
    out = format(v, ".6g")
    return "0" if out == "-0" else out


def _sx(p: tuple[float, float]) -> str:
    return _fmt(p[0])


def _sy(p: tuple[float, float]) -> str:
    return _fmt(-p[1])  # svg y grows downward


class _Canvas:
    """An SVG document under construction; points are (x, y) pairs."""

    def __init__(self, view_center: tuple[float, float], view_radius: float, width: int) -> None:
        self.center = view_center
        self.radius = view_radius
        self.width = width
        self.shapes: list[str] = []
        self.labels: list[str] = []
        self.stroke = view_radius / 120.0

    def line(self, a: tuple[float, float], b: tuple[float, float], color: str) -> None:
        self.shapes.append(
            f'<line x1="{_sx(a)}" y1="{_sy(a)}" x2="{_sx(b)}" y2="{_sy(b)}" '
            f'stroke="{color}" stroke-width="{_fmt(self.stroke)}"/>'
        )

    def infinite_line(self, line: LineXY) -> None:
        span = 2.0 * self.radius
        ax, ay, dx, dy = line
        vx, vy = self.center
        # the parameter of the view center's foot on the line
        t0 = (vx - ax) * dx + (vy - ay) * dy
        t1, t2 = t0 - span, t0 + span
        self.line(checked_xy(ax + t1 * dx, ay + t1 * dy), checked_xy(ax + t2 * dx, ay + t2 * dy),
                  _ACCENT)

    def circle(self, c: CircleXY) -> None:
        cx, cy, r = c
        self.shapes.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{_AUX}" stroke-width="{_fmt(self.stroke)}"/>'
        )

    def polygon(self, pts: tuple[tuple[float, float], ...], color: str = _STROKE) -> None:
        coords = " ".join(f"{_sx(p)},{_sy(p)}" for p in pts)
        self.shapes.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(self.stroke * 1.5)}"/>'
        )

    def point(self, p: tuple[float, float], label: str | None, color: str = _STROKE) -> None:
        self.shapes.append(
            f'<circle cx="{_sx(p)}" cy="{_sy(p)}" r="{_fmt(self.stroke * 2.5)}" fill="{color}"/>'
        )
        if label is not None:
            off = self.stroke * 4.0
            x, y = p
            self.labels.append(
                f'<text x="{_fmt(x + off)}" y="{_fmt(-(y + off))}" '
                f'font-size="{_fmt(self.radius * 0.07)}" '
                f'font-family="serif">{label}</text>'
            )

    def document(self) -> str:
        r = self.radius
        vx, vy = self.center
        x0 = vx - r
        y0 = -(vy + r)
        body = "\n".join(self.shapes + self.labels)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.width}" viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(2 * r)} {_fmt(2 * r)}">\n'
            f"{body}\n</svg>\n"
        )


def render_figure(scene: SceneSpec, elements: list[str]) -> str:
    """Standalone SVG for the scene with the selected construction layers."""
    if not elements:
        raise SceneError("no elements selected")
    unknown = [e for e in elements if e not in ELEMENTS]
    if unknown:
        raise SceneError(f"unknown elements: {unknown} (choose from {', '.join(ELEMENTS)})")
    chosen = [e for e in ELEMENTS if e in elements]

    m = scene.measures
    p = scene.point
    circ = ox, oy, view_r = (*m.circumcenter_xy, m.circumradius)
    if p is not None:
        view_r = max(view_r, math.hypot(ox - p[0], oy - p[1]))
    canvas = _Canvas((ox, oy), 1.2 * view_r, int(scene.options.get("width", 640)))
    labels_on = scene.options.get("labels", True)

    def name(text: str) -> str | None:
        return text if labels_on else None

    for element in chosen:
        if element in ("pedal", "simson") and p is None:
            raise SceneError(f"element '{element}' requires P")
        if element == "circumcircle":
            canvas.circle(circ)
        elif element == "miquel-circles":
            triad = _scene_triad(scene)
            res = miquel_point(m.xy, triad)
            for k in res.circles:
                canvas.circle(k)
            for q, text in zip(corners_xy(triad, "A"), ("X", "Y", "Z")):
                canvas.point(q, name(text), _AUX)
        elif element in ("pedal", "triad"):
            triad = _pedal(m, *p) if element == "pedal" else _scene_triad(scene)
            points = corners_xy(triad, "A")
            canvas.polygon(points, _AUX)
            for q, text in zip(points, ("X", "Y", "Z")):
                canvas.point(q, name(text), _AUX)
        elif element == "simson":
            sim = simson_line(m.xy, *p)
            canvas.infinite_line(sim.line)
            for q in sim.feet:
                canvas.point(q, None, _ACCENT)
        elif element == "centers":
            for role, text in centers.NAMED_POINTS:
                if role.role in _DRAWN_CENTERS:
                    canvas.point(centers.locate_xy(m, role), name(text), _ACCENT)
        elif element == "median-symmedian":
            _median_symmedian_layer(canvas, m, scene.options.get("vertex", "A"), name)

    vertices = corners_xy(m.xy, "A")
    canvas.polygon(vertices)
    for q, text in zip(vertices, ("A", "B", "C")):
        canvas.point(q, name(text))
    if p is not None:
        canvas.point(p, name("P"), _ACCENT)
    return canvas.document()


def _scene_triad(scene: SceneSpec) -> TriangleXY:
    if scene.triad_params is not None:
        return checked_triad(triad_xy(scene.measures.xy, *scene.triad_params))
    if scene.point is None:
        raise SceneError("this element requires P or triad parameters")
    return _pedal(scene.measures, *scene.point)


def _pedal(m: Measures, px: float, py: float) -> TriangleXY:
    triad, nearest = family_xy(m.xy, px, py, 0.0)
    checked_triad(triad)
    kernel.reject_side_lines(nearest, m.circumradius)
    if on_circle_xy((*m.circumcenter_xy, m.circumradius), px, py):
        raise GeometryError("P sits on the circumcircle; select 'simson' instead")
    return triad


def _median_symmedian_layer(canvas: _Canvas, m: Measures, vertex: str, name) -> None:
    """Median and symmedian from one vertex of the triangle measured as
    ``m``, with the special points on them."""
    apex, b, c = corners_xy(m.xy, vertex)
    e = midpoint(b, c)
    s_loc = centers.locate_xy(m, SpecialRole("s_role", vertex))
    m_loc = centers.locate_xy(m, SpecialRole("m_role", vertex))
    canvas.line(apex, e, _AUX)
    canvas.line(apex, centers.symmedian_foot(m, vertex), _AUX)
    canvas.line(apex, s_loc, _ACCENT)
    if m.angles[kernel.VERTEX_LABELS.index(vertex)] < kernel.HALF_PI:
        f = second_intersection(line_through(apex, e), (*m.circumcenter_xy, m.circumradius), apex)
    else:
        (ax, ay), (bx, by), (cx, cy) = apex, b, c
        f = checked_xy(bx + cx - ax, by + cy - ay)
    canvas.circle(circumcircle(*b, *c, *m.circumcenter_xy))
    canvas.point(e, name("E"), _AUX)
    canvas.point(f, name("F"), _AUX)
    canvas.point(s_loc, name(f"S_{vertex}"), _ACCENT)
    canvas.point(m_loc, name(f"M_{vertex}"), _ACCENT)
