"""The layer entry points the traced run wraps.

Spans are recorded around these calls from outside the program: the tracer
replaces each function at every ``miquel`` module that holds it by name, so
calls through ``from .kernel import circumcircle`` and through
``centers.s_point`` are both seen. README.md says which end-to-end metric
each layer should move, and on which workload.
"""

# (span name, defining module, attribute)
FUNCTIONS = (
    ("chains.iterate_chain", "miquel.chains", "iterate_chain"),
    ("chains.check_mod3_similarity", "miquel.chains", "check_mod3_similarity"),
    ("triads.miquel_point", "miquel.triads", "miquel_point"),
    ("triads.family_member", "miquel.triads", "family_member"),
    ("triads.pedal_triad", "miquel.triads", "pedal_triad"),
    ("triads.detect_special_role", "miquel.triads", "detect_special_role"),
    ("triads.classify_similarity", "miquel.triads", "classify_similarity"),
    ("centers.s_point", "miquel.centers", "s_point"),
    ("centers.m_point", "miquel.centers", "m_point"),
    ("centers.brocard_point", "miquel.centers", "brocard_point"),
    ("centers.isogonal_conjugate", "miquel.centers", "isogonal_conjugate"),
    ("centers.eleven_point_catalog", "miquel.centers", "eleven_point_catalog"),
    ("kernel.circumcircle", "miquel.kernel", "circumcircle"),
    ("kernel.circle_circle_intersections", "miquel.kernel", "circle_circle_intersections"),
    ("kernel.line_circle_intersections", "miquel.kernel", "line_circle_intersections"),
    ("kernel.line_line_intersection", "miquel.kernel", "line_line_intersection"),
    ("scene.parse_scene", "miquel.scene", "parse_scene"),
    ("figures.render_figure", "miquel.figures", "render_figure"),
)

# (span name, defining module, class, method)
METHODS = (
    ("kernel.min_side_line_distance", "miquel.kernel", "Triangle", "min_side_line_distance"),
)

# constructions counted without spans: (counter name, module, class)
COUNTED_CLASSES = (
    ("kernel.points_created", "miquel.kernel", "Point"),
    ("kernel.triangles_created", "miquel.kernel", "Triangle"),
)

# every public function of this module is wrapped; together they are one
# layer, reported as "sampling"
SAMPLING_MODULE = "miquel.sampling"

DETECT = "triads.detect_special_role"
CENTERS = tuple(name for name, _, _ in FUNCTIONS if name.startswith("centers."))
