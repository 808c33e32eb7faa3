"""Scene document parsing: strictness and full-precision numbers."""

import pytest

from miquel.errors import CollinearError, SceneError
from miquel.scene import MAX_COORDINATE, MIN_LONGEST_SIDE, parse_scene

GOOD = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.0, 1.0], "triad": [0.3, 0.4, 0.5], "theta": 0.25}'


def test_parse_basic():
    spec = parse_scene(GOOD)
    assert spec.measures.xy[0] == 0.0
    assert spec.point[1] == 1.0
    assert spec.triad_params == (0.3, 0.4, 0.5)
    assert spec.theta == 0.25


def test_full_precision_floats_survive():
    text = '{"A": [0.1234567890123456, -7.1e-12], "B": [4, 0], "C": [1, 3]}'
    spec = parse_scene(text)
    assert spec.measures.xy[0] == 0.1234567890123456
    assert spec.measures.xy[1] == -7.1e-12


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


# nested far past the JSON decoder's recursion limit on every supported
# Python (about 1000 deep on 3.10/3.11, several thousand from 3.12 on)
DEPTH = 100_000
DEEP_SCENES = ['{"A": ' + "[" * DEPTH + "]" * DEPTH + "}", "[" * DEPTH + "]" * DEPTH]


@pytest.mark.parametrize("text", DEEP_SCENES, ids=["object", "array"])
def test_deeply_nested_json_is_scene_error(text):
    with pytest.raises(SceneError, match="^invalid JSON: nested too deeply$"):
        parse_scene(text)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"A": [0,0], "B": [4,0], "C": [1,3], "A": [1,1]}', "A"),
        ('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"width": 800, "width": 90}}', "width"),
    ],
)
def test_duplicate_key_rejected(text, key):
    # json.loads alone would keep the last value
    with pytest.raises(SceneError, match=f"^duplicate key '{key}'$"):
        parse_scene(text)


# each schema rejection no other test reaches, with its exact message
TRI_FIELDS = '"A": [0, 0], "B": [4, 0], "C": [1, 3]'
SCHEMA_REJECTIONS = [
    ("[]", "scene must be a JSON object"),
    (f'{{{TRI_FIELDS}, "theta": true}}', "'theta' must be a number"),
    (f'{{{TRI_FIELDS}, "options": 3}}', "'options' must be an object"),
    (f'{{{TRI_FIELDS}, "options": {{"labels": 1}}}}', "'labels' must be a boolean"),
    (f'{{{TRI_FIELDS}, "options": {{"vertex": "D"}}}}', "'vertex' must be A, B or C"),
]


@pytest.mark.parametrize("text, message", SCHEMA_REJECTIONS)
def test_schema_rejection_message(text, message):
    with pytest.raises(SceneError) as info:
        parse_scene(text)
    assert str(info.value) == message


def test_options_validated():
    spec = parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"width": 800, "labels": false, "vertex": "B"}}')
    assert spec.options == {"width": 800, "labels": False, "vertex": "B"}
    with pytest.raises(SceneError):
        parse_scene('{"A": [0,0], "B": [4,0], "C": [1,3], "options": {"width": -2}}')


def test_range_limits_are_inclusive():
    m = MAX_COORDINATE
    spec = parse_scene(f'{{"A": [{-m!r}, {-m!r}], "B": [{m!r}, {-m!r}], "C": [0, {m!r}], "P": [0, 0]}}')
    assert spec.measures.xy[2] == m
    side = MIN_LONGEST_SIDE
    spec = parse_scene(f'{{"A": [0, 0], "B": [{side!r}, 0], "C": [{side / 2!r}, {side / 2!r}]}}')
    assert max(spec.measures.side_lengths) == side


@pytest.mark.parametrize(
    "text",
    [
        '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2, 1.5e50]}',
        '{"A": [0, 0], "B": [-1.5e50, 0], "C": [1, 3]}',
        '{"A": [0, 0], "B": [4e-51, 0], "C": [1e-51, 3e-51]}',
        '{"A": [1, 1], "B": [1, 1], "C": [1, 1]}',
    ],
)
def test_out_of_range_rejected(text):
    with pytest.raises(SceneError, match="out of range"):
        parse_scene(text)


BIG = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "text, key",
    [
        (f'{{"A": [{BIG}, 0], "B": [4, 0], "C": [1, 3]}}', "A"),
        (f'{{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [0.3, {BIG}, 0.3]}}', "triad"),
        (f'{{"A": [0, 0], "B": [4, 0], "C": [1, 3], "theta": {BIG}}}', "theta"),
    ],
)
def test_integer_beyond_float_range_rejected(text, key):
    # float() of such an integer raises OverflowError
    with pytest.raises(SceneError, match=f"^'{key}' holds an integer beyond the float range$"):
        parse_scene(text)
