"""Exceptions: one class for each failure a caller tells apart; every other
geometric failure is a plain ``GeometryError`` whose message names it."""


class GeometryError(Exception):
    """Base class for every geometric failure raised by this package."""


class CollinearError(GeometryError):
    """Three points that should span a circle are collinear within tolerance."""


class OnSideLineError(GeometryError):
    """The point lies on a side line of the triangle."""


class RightAngleDegenerateError(GeometryError):
    """The construction degenerates when the vertex angle is a right angle."""


class DegenerateStepError(GeometryError):
    """An iteration step hit a side line or the circumcircle of its triangle."""


class SceneError(Exception):
    """A scene document is malformed (schema problem, not a geometric one)."""
