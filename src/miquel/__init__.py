"""Plane-geometry toolkit for Miquel-point constructions and verification."""

from .errors import GeometryError
from .kernel import Point, Triangle
from .triads import miquel_point, pedal_triad

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "Point",
    "Triangle",
    "miquel_point",
    "pedal_triad",
]
