"""Scene document parsing: strictness and full-precision numbers."""

import pytest

from miquel.errors import CollinearError, SceneError
from miquel.scene import parse_scene

GOOD = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.0, 1.0], "triad": [0.3, 0.4, 0.5], "theta": 0.25}'


def test_parse_basic():
    spec = parse_scene(GOOD)
    assert spec.triangle.a.x == 0.0
    assert spec.point.y == 1.0
    assert spec.triad_params == (0.3, 0.4, 0.5)
    assert spec.theta == 0.25


def test_full_precision_floats_survive():
    text = '{"A": [0.1234567890123456, -7.1e-12], "B": [4, 0], "C": [1, 3]}'
    spec = parse_scene(text)
    assert spec.triangle.a.x == 0.1234567890123456
    assert spec.triangle.a.y == -7.1e-12


def test_unknown_field_rejected():
    with pytest.raises(SceneError):
        parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "bogus": true}')


def test_unknown_option_rejected():
    with pytest.raises(SceneError):
        parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"nope": 1}}')


def test_missing_vertex_rejected():
    with pytest.raises(SceneError):
        parse_scene('{"A": [0,0], "B": [4,0]}')


def test_malformed_pair_rejected():
    with pytest.raises(SceneError):
        parse_scene('{"A": [0], "B": [4,0], "C": [1,3]}')
    with pytest.raises(SceneError):
        parse_scene('{"A": ["x", 0], "B": [4,0], "C": [1,3]}')


def test_degenerate_triangle_is_geometric_error():
    with pytest.raises(CollinearError):
        parse_scene('{"A": [0,0], "B": [1,0], "C": [2,0]}')


def test_invalid_json():
    with pytest.raises(SceneError):
        parse_scene("{not json")


def test_options_validated():
    spec = parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"width": 800, "labels": false, "vertex": "B"}}')
    assert spec.options == {"width": 800, "labels": False, "vertex": "B"}
    with pytest.raises(SceneError):
        parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"width": -2}}')
