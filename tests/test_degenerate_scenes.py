"""Every subcommand on degenerate scenes: it exits 0, 1 or 2, never with a
traceback, and a run that exits 0 prints no number that is not finite.

The hosts are generic, thin (an apex 10^-9.5 to 10^-6 off its base, where
the weights of an excenter, S_v and M_v cancel), huge (up to 1e49), tiny,
isosceles and right-angled; the point sits at a vertex, on a side, far out,
at the centroid or anywhere.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from miquel import cli
from miquel.scene import ELEMENTS

# fixed examples, and no example database written into the working tree
SCENES = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# a number that is not finite, as a whole token: "nan" and "inf" in text and
# SVG, NaN and Infinity in JSON; the row text "at infinity" is none of them
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")

unit = st.floats(-1.0, 1.0)


@st.composite
def hosts(draw):
    """A host triangle, as its three vertices, from one of the families."""
    family = draw(st.sampled_from(["generic", "thin", "huge", "tiny", "isosceles", "right"]))
    if family == "thin":
        s = draw(st.floats(-0.5, 1.5))
        height = 10.0 ** draw(st.floats(-9.5, -6.0))
        return (0.0, 0.0), (1.0, 0.0), (s, height)
    if family == "isosceles":
        return (0.0, draw(st.floats(0.1, 5.0))), (-1.0, 0.0), (1.0, 0.0)
    if family == "right":
        return (0.0, 0.0), (draw(st.floats(0.1, 5.0)), 0.0), (0.0, draw(st.floats(0.1, 5.0)))
    vertices = [(10.0 * draw(unit), 10.0 * draw(unit)) for _ in range(3)]
    scale = {"generic": 1.0, "huge": 10.0 ** draw(st.floats(40.0, 48.0)),
             "tiny": 10.0 ** -draw(st.floats(40.0, 49.0))}[family]
    return tuple((scale * x, scale * y) for x, y in vertices)


def _point(draw, vertices):
    """P at a vertex, on a side, far out, at the centroid or anywhere."""
    (ax, ay), (bx, by), (cx, cy) = vertices
    size = max(abs(v) for v in (ax, ay, bx, by, cx, cy))
    where = draw(st.sampled_from(["vertex", "side", "far", "centroid", "random"]))
    if where == "vertex":
        return vertices[draw(st.integers(0, 2))]
    if where == "side":
        t = draw(st.floats(0.0, 1.0))
        return bx + t * (cx - bx), by + t * (cy - by)
    if where == "centroid":
        return (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0
    reach = 1e6 if where == "far" else 2.0
    return reach * size * draw(unit), reach * size * draw(unit)


@st.composite
def runs(draw):
    """A scene document and the arguments of one subcommand on it."""
    vertices = draw(hosts())
    scene = {"A": vertices[0], "B": vertices[1], "C": vertices[2],
             "P": _point(draw, vertices),
             "triad": [draw(st.floats(-2.0, 3.0)) for _ in range(3)]}
    command = draw(st.sampled_from(["centers", "classify", "miquel", "family", "chain", "figure"]))
    if command == "figure":
        elements = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, unique=True))
        return scene, ["figure", "--elements", ",".join(elements)]
    argv = [command]
    if command == "family":
        argv += ["--theta", repr(draw(st.floats(-1.5, 1.5)))]
    elif command == "chain":
        argv += ["--steps", str(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        argv.append("--json")
    return scene, argv


@SCENES
@given(runs())
def test_every_subcommand_exits_cleanly_and_prints_finite_numbers(run):
    scene, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scene, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "--in", path, *argv[1:]])
    assert code in (0, 1, 2), (scene, argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), (scene, argv, out.getvalue())
