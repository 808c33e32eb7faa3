"""Schematic SVG rendering of scenes: triangle, chosen circles and lines,
labeled points. Output is a pure function of the scene and options, so the
same input yields byte-identical documents."""

from __future__ import annotations

import math

from . import centers, kernel
from .errors import GeometryError, SceneError
from .kernel import (CircleXY, LineXY, Point, Triangle, TriangleXY, circumcircle, line_through,
                     midpoint, second_intersection)
from .scene import ELEMENTS, SceneSpec
from .triads import (checked_triad, miquel_point, on_circle_xy, pedal_triad, simson_line,
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


def _sx(p: Point) -> str:
    return _fmt(p.x)


def _sy(p: Point) -> str:
    return _fmt(-p.y)  # svg y grows downward


class _Canvas:
    def __init__(self, view_center: Point, view_radius: float, width: int) -> None:
        self.center = view_center
        self.radius = view_radius
        self.width = width
        self.shapes: list[str] = []
        self.labels: list[str] = []
        self.stroke = view_radius / 120.0

    def line(self, a: Point, b: Point, color: str = _STROKE) -> None:
        self.shapes.append(
            f'<line x1="{_sx(a)}" y1="{_sy(a)}" x2="{_sx(b)}" y2="{_sy(b)}" '
            f'stroke="{color}" stroke-width="{_fmt(self.stroke)}"/>'
        )

    def infinite_line(self, line: LineXY) -> None:
        span = 2.0 * self.radius
        ax, ay, dx, dy = line
        # the parameter of the view center's foot on the line
        t0 = (self.center.x - ax) * dx + (self.center.y - ay) * dy
        t1, t2 = t0 - span, t0 + span
        self.line(Point(ax + t1 * dx, ay + t1 * dy), Point(ax + t2 * dx, ay + t2 * dy), _ACCENT)

    def circle(self, c: CircleXY) -> None:
        cx, cy, r = c
        self.shapes.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{_AUX}" stroke-width="{_fmt(self.stroke)}"/>'
        )

    def polygon(self, pts: tuple[Point, ...], color: str = _STROKE) -> None:
        coords = " ".join(f"{_sx(p)},{_sy(p)}" for p in pts)
        self.shapes.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(self.stroke * 1.5)}"/>'
        )

    def point(self, p: Point, label: str | None, color: str = _STROKE) -> None:
        self.shapes.append(
            f'<circle cx="{_sx(p)}" cy="{_sy(p)}" r="{_fmt(self.stroke * 2.5)}" fill="{color}"/>'
        )
        if label is not None:
            off = self.stroke * 4.0
            self.labels.append(
                f'<text x="{_fmt(p.x + off)}" y="{_fmt(-(p.y + off))}" '
                f'font-size="{_fmt(self.radius * 0.07)}" '
                f'font-family="serif">{label}</text>'
            )

    def document(self) -> str:
        r = self.radius
        x0 = self.center.x - r
        y0 = -(self.center.y + r)
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

    t = scene.triangle
    circ = t.circumcircle
    m = centers.measures_xy(t.xy, circ)
    ox, oy, view_r = circ
    if scene.point is not None:
        view_r = max(view_r, math.hypot(ox - scene.point.x, oy - scene.point.y))
    canvas = _Canvas(Point(ox, oy), 1.2 * view_r, int(scene.options.get("width", 640)))
    labels_on = scene.options.get("labels", True)

    def name(p: Point, text: str) -> str | None:
        return text if labels_on else None

    for element in chosen:
        if element == "circumcircle":
            canvas.circle(circ)
        elif element == "miquel-circles":
            triad = _scene_triad(scene)
            res = miquel_point(t.xy, triad)
            for k in res.circles:
                canvas.circle(k)
            for q, text in zip(_points(triad), ("X", "Y", "Z")):
                canvas.point(q, name(q, text), _AUX)
        elif element in ("pedal", "triad"):
            triad = _pedal_or_error(t, scene) if element == "pedal" else _scene_triad(scene)
            points = _points(triad)
            canvas.polygon(points, _AUX)
            for q, text in zip(points, ("X", "Y", "Z")):
                canvas.point(q, name(q, text), _AUX)
        elif element == "simson":
            if scene.point is None:
                raise SceneError("element 'simson' requires P")
            sim = simson_line(t.xy, scene.point.x, scene.point.y)
            canvas.infinite_line(sim.line)
            for q in sim.feet:
                canvas.point(Point(*q), None, _ACCENT)
        elif element == "centers":
            for role, text in centers.NAMED_POINTS:
                if role.role in _DRAWN_CENTERS:
                    loc = Point(*centers.locate_xy(m, role))
                    canvas.point(loc, name(loc, text), _ACCENT)
        elif element == "median-symmedian":
            _median_symmedian_layer(canvas, t, m, scene.options.get("vertex", "A"), name)

    canvas.polygon(t.vertices)
    for q, text in zip(t.vertices, ("A", "B", "C")):
        canvas.point(q, name(q, text))
    if scene.point is not None:
        canvas.point(scene.point, name(scene.point, "P"), _ACCENT)
    return canvas.document()


def _points(triad: TriangleXY) -> tuple[Point, Point, Point]:
    return Point(*triad[0:2]), Point(*triad[2:4]), Point(*triad[4:6])


def _scene_triad(scene: SceneSpec) -> TriangleXY:
    t = scene.triangle
    if scene.triad_params is not None:
        return checked_triad(triad_xy(t.xy, *scene.triad_params))
    return _pedal_or_error(t, scene)


def _pedal_or_error(t: Triangle, scene: SceneSpec) -> TriangleXY:
    if scene.point is None:
        raise SceneError("this element requires P or triad parameters")
    kernel.reject_side_lines(t.min_side_line_distance(scene.point), t.circumradius)
    if on_circle_xy(t.circumcircle, scene.point.x, scene.point.y):
        raise GeometryError("P sits on the circumcircle; select 'simson' instead")
    return pedal_triad(t.xy, scene.point.x, scene.point.y)


def _median_symmedian_layer(
    canvas: _Canvas, t: Triangle, m: centers.Measures, vertex: str, name
) -> None:
    """Median and symmedian from one vertex with the special points on them;
    ``m`` is ``t`` measured."""
    apex = t.vertex(vertex)
    b, c = t.opposite(vertex)
    e = Point(*midpoint(b, c))
    s_loc = centers.s_point(m, vertex)
    m_loc = centers.m_point(m, vertex)
    canvas.line(apex, e, _AUX)
    canvas.line(apex, centers.symmedian_foot(t, vertex), _AUX)
    canvas.line(apex, s_loc, _ACCENT)
    if m.angles[kernel.VERTEX_LABELS.index(vertex)] < math.pi / 2.0:
        f = Point(*second_intersection(line_through(apex, e), t.circumcircle, apex))
    else:
        f = b + c - apex
    canvas.circle(circumcircle(*b, *c, *t.circumcenter_xy))
    canvas.point(e, name(e, "E"), _AUX)
    canvas.point(f, name(f, "F"), _AUX)
    canvas.point(s_loc, name(s_loc, f"S_{vertex}"), _ACCENT)
    canvas.point(m_loc, name(m_loc, f"M_{vertex}"), _ACCENT)
