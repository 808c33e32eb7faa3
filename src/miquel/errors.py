"""Exception hierarchy for geometric failure modes."""


class GeometryError(Exception):
    """Base class for every geometric failure raised by this package."""


class CollinearError(GeometryError):
    """Three points that should span a circle are collinear within tolerance."""


class IdenticalCirclesError(GeometryError):
    """Two circles coincide within tolerance; intersection is undefined."""


class DegenerateRayError(GeometryError):
    """An angle leg collapses: one endpoint coincides with the apex."""


class CenterInversionError(GeometryError):
    """Inversion of the circle center is requested; the image is at infinity."""


class NotOnBothError(GeometryError):
    """The known point does not lie on both the line and the circle."""


class ParallelLinesError(GeometryError):
    """Two lines are parallel within tolerance; no unique intersection."""


class OnSideLineError(GeometryError):
    """The point lies on a side line of the triangle."""


class NoFiniteConjugateError(GeometryError):
    """The point lies on the circumcircle; its isogonal conjugate is at infinity."""


class RightAngleDegenerateError(GeometryError):
    """The construction degenerates when the vertex angle is a right angle."""


class NotScaleneError(GeometryError):
    """The triangle is isosceles or equilateral within tolerance."""


class RightTriangleError(GeometryError):
    """The triangle has a right angle within tolerance."""


class AtVertexError(GeometryError):
    """The point coincides with a triangle vertex within tolerance."""


class ThetaOutOfRangeError(GeometryError):
    """The rotation parameter is outside the open (-pi/2, pi/2) range."""


class DegenerateCircleError(GeometryError):
    """A defining point triple of a construction circle is collinear."""


class NotAMiquelTriadError(GeometryError):
    """The triad's concurrency point does not match the supplied point."""


class OnCircumcircleError(GeometryError):
    """The point lies on the circumcircle where the construction collapses."""


class DegenerateStepError(GeometryError):
    """An iteration step hit a side line or the circumcircle of its triangle."""


class SceneError(Exception):
    """A scene document is malformed (schema problem, not a geometric one)."""
