"""SVG rendering: byte stability, element presence, error handling."""

import pytest

from miquel import cli
from miquel.errors import GeometryError, SceneError
from miquel.figures import render_figure
from miquel.scene import parse_scene

SCENE = parse_scene('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.0, 1.0]}')
SIMSON_SCENE = parse_scene('{"A": [0, 0], "B": [4, 0], "C": [0, 3], "P": [4, 3]}')


def test_byte_stable():
    a = render_figure(SCENE, ["circumcircle", "miquel-circles"])
    b = render_figure(SCENE, ["circumcircle", "miquel-circles"])
    assert a == b


def test_selection_order_does_not_matter():
    a = render_figure(SCENE, ["circumcircle", "pedal"])
    b = render_figure(SCENE, ["pedal", "circumcircle"])
    assert a == b


def test_miquel_circles_drawn():
    svg = render_figure(SCENE, ["miquel-circles"])
    # three construction circles plus point markers
    assert svg.count('fill="none"') >= 3
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_simson_line_present():
    svg = render_figure(SIMSON_SCENE, ["simson"])
    assert "<line" in svg


def test_simson_requires_circle_point():
    with pytest.raises(
        GeometryError, match="^P is not on the circumcircle; no collapsed line$"
    ):
        render_figure(SCENE, ["simson"])


def test_empty_selection_rejected():
    with pytest.raises(SceneError, match="no elements selected"):
        render_figure(SCENE, [])


def test_unknown_element_rejected():
    with pytest.raises(SceneError):
        render_figure(SCENE, ["sparkles"])


def test_median_symmedian_labels():
    scene = parse_scene('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": {"vertex": "A"}}')
    svg = render_figure(scene, ["median-symmedian"])
    for label in (">E<", ">F<", ">S_A<", ">M_A<"):
        assert label in svg


def test_labels_can_be_disabled():
    scene = parse_scene('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": {"labels": false}}')
    svg = render_figure(scene, ["centers"])
    assert "<text" not in svg


def test_viewbox_covers_exterior_point():
    scene = parse_scene('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [12.0, 9.0]}')
    svg = render_figure(scene, ["circumcircle"])
    view = svg.split('viewBox="')[1].split('"')[0]
    x0, y0, w, h = (float(v) for v in view.split())
    assert w > 20.0  # the far point stretched the bounding circle


TRIAD_ONLY = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [0.3, 0.3, 0.3]}'
BARE = '{"A": [0, 0], "B": [4, 0], "C": [1, 3]}'


@pytest.mark.parametrize(
    "scene, element, message",
    [
        (TRIAD_ONLY, "simson", "element 'simson' requires P"),
        (TRIAD_ONLY, "pedal", "element 'pedal' requires P"),
        (BARE, "triad", "this element requires P or triad parameters"),
        (BARE, "miquel-circles", "this element requires P or triad parameters"),
    ],
    ids=["simson", "pedal", "triad", "miquel-circles"],
)
def test_missing_input_names_what_the_element_needs(tmp_path, capsys, scene, element, message):
    """The layers that need P name P, even when the scene has triad
    parameters; the triad layers fall back to P's pedal triad and name
    both. Each is a usage error (exit 2) on one stderr line."""
    with pytest.raises(SceneError, match=f"^{message}$"):
        render_figure(parse_scene(scene), [element])
    path = tmp_path / "scene.json"
    path.write_text(scene)
    assert cli.main(["figure", "--in", str(path), "--elements", element]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: {message}\n")


def test_triad_scene_draws_without_p():
    svg = render_figure(parse_scene(TRIAD_ONLY), ["triad", "miquel-circles"])
    assert svg.count(">X<") == 2
