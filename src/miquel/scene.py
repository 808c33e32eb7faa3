"""Strict JSON scene documents for the command-line tools.

A scene is a single object with vertex keys "A", "B", "C" and optional
"P", "triad", "theta" and "options"; anything else, a key given twice
included, is rejected. Numbers are read at full float precision.
Coordinates must lie within ±``MAX_COORDINATE`` and the triangle's longest
side must be at least ``MIN_LONGEST_SIDE``. The parsed scene holds the
triangle measured once (``centers.measures_xy``, which rejects a collinear
one) and the point as a checked (x, y) pair.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .centers import Measures, measures_xy
from .errors import SceneError
from .kernel import MAX_COORDINATE, MIN_LONGEST_SIDE, checked_xy

_TOP_KEYS = ("A", "B", "C", "P", "triad", "theta", "options")
_OPTION_KEYS = ("width", "labels", "vertex")
# the layers ``miquel figure --elements`` draws, in drawing order; here so the
# CLI can list them without importing the renderer
ELEMENTS = (
    "circumcircle",
    "miquel-circles",
    "pedal",
    "triad",
    "simson",
    "centers",
    "median-symmedian",
)


class SceneSpec(NamedTuple):
    measures: Measures
    point: tuple[float, float] | None
    triad_params: tuple[float, float, float] | None
    theta: float | None
    options: dict


def _numbers(value, key: str, n: int) -> tuple[float, ...]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != n
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise SceneError(f"{key!r} must be a list of {n} numbers")
    return tuple(_float(v, key) for v in value)


def _float(value: int | float, key: str) -> float:
    """``value`` as a float; a JSON integer past the float range is a schema
    error, where ``float`` raises ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        raise SceneError(f"{key!r} holds an integer beyond the float range") from None


def point_in_range(x: float, y: float, key: str) -> tuple[float, float]:
    """The point (x, y), rejected unless both coordinates lie within
    ±``MAX_COORDINATE``."""
    p = checked_xy(x, y)  # rejects NaN and infinite coordinates first
    if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
        raise SceneError(
            f"{key} is out of range: coordinates must lie within ±{MAX_COORDINATE:.0e}"
        )
    return p


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, rejected if a key repeats: ``json.loads``
    alone keeps the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SceneError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_scene(text: str) -> SceneSpec:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SceneError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SceneError("scene must be a JSON object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise SceneError(f"unknown scene fields: {sorted(unknown)}")
    for key in ("A", "B", "C"):
        if key not in doc:
            raise SceneError(f"missing vertex {key!r}")
    a, b, c = (point_in_range(*_numbers(doc[key], key, 2), key) for key in ("A", "B", "C"))
    if max(math.dist(a, b), math.dist(b, c), math.dist(c, a)) < MIN_LONGEST_SIDE:
        raise SceneError(
            f"the triangle is out of range: its longest side must be at least {MIN_LONGEST_SIDE:.0e}"
        )
    measures = measures_xy((*a, *b, *c))  # degenerate input raises the geometric error

    point = point_in_range(*_numbers(doc["P"], "P", 2), "P") if "P" in doc else None

    triad = _numbers(doc["triad"], "triad", 3) if "triad" in doc else None

    theta = None
    if "theta" in doc:
        if not isinstance(doc["theta"], (int, float)) or isinstance(doc["theta"], bool):
            raise SceneError("'theta' must be a number")
        theta = _float(doc["theta"], "theta")

    options: dict = {}
    if "options" in doc:
        raw = doc["options"]
        if not isinstance(raw, dict):
            raise SceneError("'options' must be an object")
        bad = set(raw) - set(_OPTION_KEYS)
        if bad:
            raise SceneError(f"unknown option keys: {sorted(bad)}")
        if "width" in raw:
            if not isinstance(raw["width"], int) or isinstance(raw["width"], bool) or raw["width"] <= 0:
                raise SceneError("'width' must be a positive integer")
            options["width"] = raw["width"]
        if "labels" in raw:
            if not isinstance(raw["labels"], bool):
                raise SceneError("'labels' must be a boolean")
            options["labels"] = raw["labels"]
        if "vertex" in raw:
            if raw["vertex"] not in ("A", "B", "C"):
                raise SceneError("'vertex' must be A, B or C")
            options["vertex"] = raw["vertex"]

    return SceneSpec(measures, point, triad, theta, options)

