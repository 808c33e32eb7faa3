"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from miquel import cli, kernel
from miquel.kernel import side_lengths_xy
from miquel.scene import ELEMENTS
from miquel.triads import PEDAL_SIMILARITY_TOL, classify_similarity

TRI = '{"A": [0, 0], "B": [4, 0], "C": [1, 3]}'


@pytest.fixture()
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRI)
    return str(path)


def cli_env(env_extra=None):
    env = dict(os.environ)
    env.pop("MIQUEL_SEED", None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*argv, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "miquel.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
    )


def test_centers_table(tri_file):
    res = run_cli("centers", "--in", tri_file)
    assert res.returncode == 0
    assert "O" in res.stdout and "(2.0, 1.0)" in res.stdout
    assert "S_A" in res.stdout


def test_centers_json(tri_file):
    res = run_cli("centers", "--in", tri_file, "--json")
    doc = json.loads(res.stdout)
    assert doc["O"] == "(2.0, 1.0)"


def test_centers_rows_in_order_with_right_angle_rows_degenerate(tmp_path):
    path = tmp_path / "right.json"
    path.write_text('{"A": [0, 0], "B": [4, 0], "C": [0, 3]}')
    res = run_cli("centers", "--in", str(path), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert list(doc) == [
        "O", "H", "G", "L", "excenter_A", "excenter_B", "excenter_C", "Ω₁", "Ω₂",
        "S_A", "M_A", "S_B", "M_B", "S_C", "M_C",
    ]
    degenerate = "degenerate: RightAngleDegenerateError"
    assert doc["S_A"] == doc["M_A"] == degenerate
    assert sum(value == degenerate for value in doc.values()) == 2


# so thin at C that the weights of excenter_C, S_C and M_C cancel
THIN_AT_C = '{"A": [0, 0], "B": [1, 0], "C": [0.5, 2e-9]}'


@pytest.mark.parametrize(
    "argv", [("centers",), ("centers", "--json"), ("classify", "--point", "0.5,1")]
)
def test_points_at_infinity_are_rows_not_tracebacks(tmp_path, capsys, argv):
    path = tmp_path / "thin.json"
    path.write_text(THIN_AT_C)
    assert cli.main([argv[0], "--in", str(path), *argv[1:]]) == 0
    out = capsys.readouterr().out
    if "--json" in argv:
        doc = json.loads(out)
        at_infinity = [name for name, value in doc.items() if value == "degenerate: at infinity"]
        assert at_infinity == ["excenter_C", "S_C", "M_C"]
    elif argv[0] == "centers":
        assert out.count("degenerate: at infinity") == 3


def test_point_at_infinity_is_a_geometric_error(tmp_path, capsys):
    path = tmp_path / "thin.json"
    path.write_text(THIN_AT_C[:-1] + ', "options": {"vertex": "C"}}')
    assert cli.main(["figure", "--in", str(path), "--elements", "median-symmedian"]) == 1
    assert capsys.readouterr().err == (
        "geometric error: GeometryError: s_role(C) is at infinity: its weights cancel\n"
    )


# the scenes of the CI parity job, and the exit code of each run of
# PIN_RUNS on each, in order
PARITY_SCENES = {
    "tri": (TRI, "02020202022"),
    "scene": ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2, 1], "triad": [0.3, 0.3, 0.3]}',
              "00000000001"),
    "right": ('{"A": [0, 0], "B": [4, 0], "C": [0, 3], "P": [1, 1], "triad": [0.2, 0.5, 0.7]}',
              "00000000011"),
    "side": ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.5, 1.5], "triad": [0.3, 0.3, 0.3]}',
             "00000101011"),
    "obtuse": ('{"A": [0, 0], "B": [4, 0], "C": [1.6, 0.9], "P": [1.5, 0.4], '
               '"triad": [0.3, 0.3, 0.3]}', "00000000001"),
    "oncircle": ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [4.23606797749979, 1]}',
                 "00020001010"),
    "iso": ('{"A": [0, 4], "B": [-3, 0], "C": [3, 0]}', "02020202022"),
    "obtuse-c": ('{"A": [0, 0], "B": [4, 0], "C": [1.6, 0.9], "P": [1.5, 0.4], '
                 '"triad": [0.3, 0.3, 0.3], "options": {"vertex": "C"}}', "00000000001"),
    "oncircle-b": ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [4.23606797749979, 1], '
                   '"options": {"vertex": "B"}}', "00020001010"),
    "huge-triad": ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [1e308, 0.3, 0.3]}',
                   "02020202022"),
}
PIN_RUNS = [
    ("centers",),
    ("classify",),
    ("classify", "--point", "1.3,0.9"),
    ("miquel",),
    ("miquel", "--triad", "0.2,0.4,0.6"),
    ("family", "--theta", "0.3"),
    ("family", "--point", "1.3,0.9", "--theta", "0.3"),
    ("chain", "--steps", "4"),
    ("chain", "--point", "1.3,0.9", "--steps", "4"),
    ("figure", "--elements", "circumcircle,miquel-circles,pedal,triad,centers,median-symmedian"),
    ("figure", "--elements", "circumcircle,simson,median-symmedian"),
]


@pytest.mark.parametrize("name", list(PARITY_SCENES))
def test_subcommands_build_no_point_or_triangle(name, tmp_path, capsys, monkeypatch):
    """Every scene subcommand runs on coordinates: with ``Point`` and
    ``Triangle`` unable to be built, each run on each parity scene still
    gives its exit code. The verify suites are pinned the same way in
    test_verify_suites.py."""

    def refused(self, *args):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(kernel.Point, "__init__", refused)
    monkeypatch.setattr(kernel.Triangle, "__init__", refused)
    text, codes = PARITY_SCENES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    got = "".join(str(cli.main([run[0], "--in", str(path), *run[1:]])) for run in PIN_RUNS)
    capsys.readouterr()
    assert got == codes


def test_classify_circumcenter(tri_file):
    res = run_cli("classify", "--in", tri_file, "--point", "2.0,1.0")
    assert res.returncode == 0
    assert "circumcenter" in res.stdout
    assert "permutation XYZ" in res.stdout


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("letters", ["XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"])
def test_every_correspondence_classified_and_printed(
    tri_file, monkeypatch, capsys, letters, mirrored
):
    # a turned, scaled copy of the scalene host whose vertex order[i] is the
    # host's vertex i, reflected when mirrored: no other correspondence fits
    order = tuple("XYZ".index(ch) for ch in letters)
    host = (0, 0, 4, 0, 1, 3)
    vertices = [None] * 3
    c, s = math.cos(0.7), math.sin(0.7)
    for i, (x, y) in enumerate(zip(host[0::2], host[1::2])):
        qx, qy = (c * x - s * y) * 1.9 + -2.0, (s * x + c * y) * 1.9 + 5.0
        vertices[order[i]] = (-qx, qy) if mirrored else (qx, qy)
    copy = (*vertices[0], *vertices[1], *vertices[2])
    side_lengths_xy(*copy)  # a triangle, not three collinear points
    match = classify_similarity(host, copy, PEDAL_SIMILARITY_TOL)
    assert (match.order, match.mirrored) == (order, mirrored)
    # classify reports the copy as the pedal triangle of the scene's point
    monkeypatch.setattr(cli, "pedal_triad", lambda host, px, py: copy)
    assert cli.main(["classify", "--in", tri_file, "--point", "2,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["permutation"], doc["orientation"]) == (
        letters, "inverse" if mirrored else "direct"
    )


@pytest.mark.parametrize(
    "point, role",
    [
        ("1,0.5773502691896256", "circumcenter"),
        ("1,0.577350269189626", "orthocenter"),
        ("1,0.5773502691896257", "incenter"),
    ],
)
def test_classify_equilateral_tie_goes_to_the_identity(tmp_path, point, role):
    # the pedal triangle of the center is the medial triangle, which every
    # vertex map fits; the first in order wins, whatever the float noise
    path = tmp_path / "equi.json"
    path.write_text('{"A": [0, 0], "B": [2, 0], "C": [1, 1.7320508075688772]}')
    res = run_cli("classify", "--in", str(path), "--point", point)
    assert res.returncode == 0
    assert res.stdout == (
        f"role           {role}\n"
        "pedal          similar to host, permutation XYZ (direct)\n"
    )


def test_classify_right_triangle_circumcenter_on_hypotenuse(tmp_path):
    # the circumcenter of a right triangle sits on the hypotenuse; the feet
    # are the midpoints and the report still classifies it
    path = tmp_path / "right.json"
    path.write_text('{"A": [0, 0], "B": [4, 0], "C": [0, 3]}')
    res = run_cli("classify", "--in", str(path), "--point", "2,1.5")
    assert res.returncode == 0
    assert "circumcenter" in res.stdout
    assert "permutation XYZ" in res.stdout


def test_vertex_gets_its_simson_line(tri_file, tmp_path):
    # a vertex is on the circumcircle and on two side lines: two of its feet
    # are the vertex, the third is the altitude's foot
    res = run_cli("classify", "--in", tri_file, "--point", "0,0")
    assert res.returncode == 0
    assert res.stdout.startswith("role           none\n")
    assert "pedal          collinear (simson line), deviation " in res.stdout
    scene = tmp_path / "vertex.json"
    scene.write_text('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [0, 0]}')
    res = run_cli("figure", "--in", str(scene), "--elements", "simson")
    assert res.returncode == 0
    assert "<line" in res.stdout


def test_miquel_subcommand(tri_file):
    res = run_cli("miquel", "--in", tri_file, "--triad", "0.3,0.3,0.3", "--json")
    doc = json.loads(res.stdout)
    assert doc["residual"] < 1e-12
    assert abs(doc["point"][0] - 1.7023121387283235) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("miquel", "--triad", "1e308,0.3,0.3"),
        ("miquel",),
        ("figure", "--elements", "triad"),
        ("figure", "--elements", "miquel-circles"),
    ],
)
def test_overflowing_triad_point_is_usage_error(tmp_path, capsys, argv):
    # u = 1e308 is finite, but X = B + u·(C − B) is not, and each triad
    # point is checked as a point
    path = tmp_path / "huge.json"
    path.write_text('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [1e308, 0.3, 0.3]}')
    assert cli.main([argv[0], "--in", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == "usage error: non-finite coordinates (-inf, inf)\n"


def test_miquel_tangency_line(tri_file):
    res = run_cli("miquel", "--in", tri_file, "--triad", "0.2,0.8,0.1716117818584988")
    assert res.returncode == 0
    assert "tangency       the two defining circles touch at the point" in res.stdout


def test_family_roundtrip(tri_file):
    res = run_cli("family", "--in", tri_file, "--point", "1.4,0.9", "--theta", "0.5", "--json")
    doc = json.loads(res.stdout)
    assert doc["roundtrip_residual"] < 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--point", "2,1", "--theta", "nan"),
        ("family", "--point", "2,1", "--theta", "inf"),
        ("chain", "--point", "2,1", "--steps", "3", "--thetas", "nan,0,0"),
        ("family", "--point", "2,1", "--theta", "-inf"),
    ],
)
def test_non_finite_rotation_is_geometric_error(tri_file, argv):
    res = run_cli(argv[0], "--in", tri_file, *argv[1:])
    assert res.returncode == 1
    assert "not inside (-pi/2, pi/2)" in res.stderr


def test_chain_roles(tri_file):
    res = run_cli("chain", "--in", tri_file, "--point", "2.0,1.0", "--steps", "3", "--json")
    doc = json.loads(res.stdout)
    assert doc["roles"] == ["circumcenter", "orthocenter", "incenter", "circumcenter"]
    assert doc["mod3_similar"] is True


def test_verify_single_suite(tri_file):
    res = run_cli("verify", "--suite", "theorem5", "--seed", "3", "--trials", "20")
    assert res.returncode == 0
    assert "result PASS" in res.stdout
    assert "wall clock" in res.stderr


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nope")
    assert res.returncode == 2


def test_verify_determinism_bytes(tri_file):
    a = run_cli("verify", "--suite", "theorem3", "--seed", "11", "--trials", "40")
    b = run_cli("verify", "--suite", "theorem3", "--seed", "11", "--trials", "40")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_env_seed_override(tri_file):
    default = run_cli("verify", "--suite", "theorem5", "--trials", "10", "--json")
    via_env = run_cli(
        "verify", "--suite", "theorem5", "--trials", "10", "--json",
        env_extra={"MIQUEL_SEED": "99"},
    )
    explicit = run_cli("verify", "--suite", "theorem5", "--seed", "99", "--trials", "10", "--json")
    assert json.loads(via_env.stdout) == json.loads(explicit.stdout)
    assert json.loads(default.stdout)[0]["seed"] == 7
    assert json.loads(via_env.stdout)[0]["seed"] == 99


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_is_usage_error(trials):
    res = run_cli("verify", "--suite", "theorem14", "--trials", trials)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"usage error: a suite needs at least one trial, got {trials}\n"


def test_verify_claim_no_trial_reached_fails():
    # obtuse hosts run only on odd trials, so one trial checks no excenter
    res = run_cli("verify", "--suite", "theorem6", "--trials", "1")
    assert res.returncode == 3
    lines = res.stdout.splitlines()
    assert lines[1].split()[:2] == ["acute-incenter", "PASS"]
    assert lines[2].split() == [
        "obtuse-excenter", "FAIL", "max", "0.000e+00", "tol", "1e-08", "trials", "0"
    ]
    assert lines[-1] == "result FAIL"


def test_non_integer_env_seed(tri_file):
    env = {"MIQUEL_SEED": "abc"}
    res = run_cli("centers", "--in", tri_file, env_extra=env)
    assert res.returncode == 0
    res = run_cli("verify", "--suite", "theorem5", "--trials", "2", env_extra=env)
    assert res.returncode == 2
    assert res.stderr == "usage error: MIQUEL_SEED must be an integer, got 'abc'\n"
    res = run_cli("verify", "--suite", "theorem5", "--trials", "2", "--seed", "3", env_extra=env)
    assert res.returncode == 0


def test_figure_unwritable_out_is_usage_error(tri_file, tmp_path):
    out = tmp_path / "no-such-dir" / "x.svg"
    res = run_cli("figure", "--in", tri_file, "--elements", "circumcircle", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith(f"usage error: cannot write {out}: ")
    assert "Traceback" not in res.stderr


def test_exit_code_geometric_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [0, 0], "B": [1, 0], "C": [2, 0]}')
    res = run_cli("centers", "--in", str(bad))
    assert res.returncode == 1
    assert "CollinearError" in res.stderr


def test_thin_scene_rejected_while_parsing(tmp_path):
    thin = tmp_path / "thin.json"
    thin.write_text('{"A": [0, 0], "B": [1, 0], "C": [1, 7e-10]}')
    res = run_cli("centers", "--in", str(thin))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == (
        "geometric error: CollinearError: degenerate triangle: collinear within tolerance\n"
    )


def test_thin_well_conditioned_scene_accepted(tmp_path):
    # base angles of 6e-4 rad; the circumradius is 416.67
    flat = tmp_path / "flat.json"
    flat.write_text('{"A": [0, 0], "B": [1, 0], "C": [0.5, 3e-4]}')
    res = run_cli("centers", "--in", str(flat))
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 15


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
def test_classify_tolerance_must_be_finite_and_positive(tri_file, value):
    res = run_cli("classify", "--in", tri_file, "--point", "3.3,0.2", f"--tolerance={value}")
    assert res.returncode == 2
    assert "finite and strictly positive" in res.stderr


def test_negative_tolerance_in_exponent_form_reaches_its_check(tri_file):
    res = run_cli("classify", "--in", tri_file, "--point", "3.3,0.2", "--tolerance", "-1e-9")
    assert res.returncode == 2
    assert res.stderr == "usage error: --tolerance must be finite and strictly positive\n"


def test_exit_code_usage_error(tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "extra": 5}')
    res = run_cli("centers", "--in", str(weird))
    assert res.returncode == 2
    res = run_cli("centers", "--no-such-flag")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "scene, key",
    [
        ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "A": [1, 1]}', "A"),
        ('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": {"labels": true, "labels": false}}',
         "labels"),
    ],
)
def test_duplicate_scene_key_is_usage_error(tmp_path, scene, key):
    path = tmp_path / "scene.json"
    path.write_text(scene)
    res = run_cli("figure", "--in", str(path), "--elements", "circumcircle")
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"usage error: duplicate key '{key}'" in res.stderr


@pytest.mark.parametrize("command", ["centers", "miquel"])
@pytest.mark.parametrize(
    "scene",
    [
        '{"A": [0, 0], "B": [4, 0], "C": [NaN, 3]}',
        '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [Infinity, 1]}',
    ],
)
def test_non_finite_scene_is_usage_error(tmp_path, command, scene):
    path = tmp_path / "scene.json"
    path.write_text(scene)
    res = run_cli(command, "--in", str(path))
    assert res.returncode == 2
    assert "non-finite coordinates" in res.stderr


def _scaled_scene(k: int) -> str:
    return f'{{"A": [0, 0], "B": [4e{k}, 0], "C": [1e{k}, 3e{k}]}}'


@pytest.mark.parametrize(
    "scene",
    [
        _scaled_scene(-80),  # the Brocard weights underflow: Ω₁ printed as (0.0, 0.0)
        _scaled_scene(80),  # the Brocard weights overflow
        _scaled_scene(160),  # the collinearity test's squared span overflows
        '{"A": [-1e308, -1e308], "B": [1e308, -1e308], "C": [0, 1e308]}',
    ],
)
def test_out_of_range_scene_is_usage_error(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(scene)
    res = run_cli("centers", "--in", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "out of range" in res.stderr


def test_integer_beyond_float_range_is_usage_error(tmp_path):
    # float() of a 401-digit integer raises OverflowError
    path = tmp_path / "scene.json"
    path.write_text(f'{{"A": [1{"0" * 400}, 0], "B": [4, 0], "C": [1, 3]}}')
    res = run_cli("centers", "--in", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "usage error: 'A' holds an integer beyond the float range\n"


def test_scene_inside_the_range_is_accepted(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(_scaled_scene(40))
    res = run_cli("centers", "--in", str(path), "--json")
    assert res.returncode == 0
    x, y = json.loads(res.stdout)["Ω₁"].strip("()").split(", ")
    assert abs(float(x) / 1e40 - 1.4012738853503184) < 1e-12
    assert abs(float(y) / 1e40 - 0.7643312101910829) < 1e-12
    res = run_cli("classify", "--in", str(path), "--point", "1e51,0")
    assert res.returncode == 2
    assert "--point is out of range" in res.stderr


def test_chain_leaving_the_coordinate_range_is_geometric_error(tmp_path):
    # an in-range scene whose chain grows about 1256 times a step
    path = tmp_path / "scene.json"
    path.write_text('{"A": [0, 0], "B": [4e40, 0], "C": [1e40, 3e40], "P": [2e40, 1e40]}')
    res = run_cli("chain", "--in", str(path), "--steps", "12", "--thetas", ",".join(["1.57"] * 12))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(
        "geometric error: DegenerateStepError: step 3 degenerated: the triangle is out of range"
    )


def test_closed_stdout_exits_without_traceback():
    # the reader goes away before any output, as with `miquel verify | head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "miquel.cli", "verify", "--suite", "all", "--trials", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_figure_output_and_determinism(tri_file, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text('{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.0, 1.0]}')
    out = tmp_path / "fig.svg"
    res = run_cli("figure", "--in", str(scene), "--elements", "circumcircle,pedal",
                  "--out", str(out))
    assert res.returncode == 0
    first = out.read_text()
    assert first.startswith("<svg")
    run_cli("figure", "--in", str(scene), "--elements", "circumcircle,pedal", "--out", str(out))
    assert out.read_text() == first


def test_figure_help_lists_every_element_in_order():
    res = run_cli("figure", "--help", env_extra={"COLUMNS": "400"})  # one line per flag
    assert res.returncode == 0
    line = next(ln for ln in res.stdout.splitlines() if "comma-separated from: " in ln)
    assert line.split("comma-separated from: ")[1].split(", ") == list(ELEMENTS)


def test_figure_unknown_element_lists_the_choices(tri_file):
    res = run_cli("figure", "--in", tri_file, "--elements", "circumcircle,bogus")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (
        "usage error: unknown elements: ['bogus'] (choose from circumcircle, "
        "miquel-circles, pedal, triad, simson, centers, median-symmedian)\n"
    )


def test_figure_empty_elements(tri_file):
    res = run_cli("figure", "--in", tri_file, "--elements", "")
    assert res.returncode == 2
    assert res.stderr.startswith("usage error:")


def test_point_required_when_missing(tri_file):
    res = run_cli("classify", "--in", tri_file)
    assert res.returncode == 2
    assert "--point" in res.stderr


def test_chain_step_cap_is_usage_error(tri_file):
    res = run_cli("chain", "--in", tri_file, "--point", "2.0,1.0", "--steps", "40")
    assert res.returncode == 2
    assert "cap" in res.stderr


SCENE_P = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2, 1]}'
# a point on the circumcircle of tri.json, centered (2, 1) with radius √5
ON_CIRCLE = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [4.23606797749979, 1]}'
# a point on side BC of tri.json
ON_SIDE = '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.5, 1.5]}'
ON_SIDE_LINE = "OnSideLineError: the point lies on a side line of the triangle"


@pytest.mark.parametrize(
    "scene, argv, line",
    [
        (SCENE_P, ("family", "--theta", "2"),
         "GeometryError: rotation 2.0 not inside (-pi/2, pi/2)"),
        # circle AYZ passes through A twice; CollinearError reaches the caller as it is
        (TRI, ("miquel", "--triad", "0,0,0"),
         "CollinearError: the three points are collinear within tolerance"),
        (SCENE_P, ("figure", "--elements", "simson"),
         "GeometryError: P is not on the circumcircle; no collapsed line"),
        (ON_CIRCLE, ("figure", "--elements", "pedal"),
         "GeometryError: P sits on the circumcircle; select 'simson' instead"),
        (ON_SIDE, ("family", "--theta", "0.3"), ON_SIDE_LINE),
        (ON_SIDE, ("figure", "--elements", "pedal"), ON_SIDE_LINE),
    ],
)
def test_geometric_error_names_its_class_and_collapse(tmp_path, scene, argv, line):
    path = tmp_path / "scene.json"
    path.write_text(scene)
    res = run_cli(argv[0], "--in", str(path), *argv[1:])
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"geometric error: {line}\n"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        # S_C's circumcircle inverse, on line AB
        (("classify",), "--point", "-5,0"),
        (("classify", "--json"), "--point", "-5.230769230769232,-1.8461538461538454"),
        (("chain", "--point", "2,1", "--steps", "3"), "--thetas", "-0.3,0.2,0.1"),
        (("family", "--theta", "0.2"), "--point", "-0.5,1"),
        # X on line BC beyond B
        (("miquel",), "--triad", "-0.2,0.5,0.5"),
        # a negative number argparse does not read as one
        (("family", "--point", "2,1"), "--theta", "-1e-3"),
    ],
)
def test_negative_values_read_as_with_equals(tri_file, argv, flag, value):
    joined = run_cli(argv[0], "--in", tri_file, *argv[1:], f"{flag}={value}")
    separate = run_cli(argv[0], "--in", tri_file, *argv[1:], flag, value)
    assert joined.returncode == 0
    assert (separate.returncode, separate.stdout, separate.stderr) == (
        joined.returncode, joined.stdout, joined.stderr
    )


@pytest.mark.parametrize("argv", [("--point",), ("--point", "--json")])
def test_point_without_value_is_usage_error(tri_file, argv):
    res = run_cli("classify", "--in", tri_file, *argv)
    assert res.returncode == 2
    assert "argument --point: expected one argument" in res.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("chain", "--point", "2,1", "--steps", "3", "--theta", "-0.1,0.2,0.3"), "--theta"),
        (("chain", "--point", "2,1", "--steps", "3", "--theta", "0.1,0.2,0.3"), "--theta"),
        (("classify", "--poin", "-5,0"), "--poin"),
        (("verify", "--suite", "theorem1", "--tri", "3"), "--tri"),
    ],
)
def test_abbreviated_flag_is_usage_error(tri_file, argv, flag):
    if argv[0] != "verify":
        argv = (argv[0], "--in", tri_file, *argv[1:])
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"unrecognized arguments: {flag} " in res.stderr


# the modules only some subcommands run: without a bytecode cache, each one a
# process imports is compiled from source
LAZY_MODULES = {"miquel.verify", "miquel.sampling", "miquel.chains", "miquel.figures"}
# prints the exit code, the miquel modules loaded, and whether miquel loaded
# dataclasses (False when the interpreter held it before miquel was imported)
_PROBE = """
import sys
preloaded = "dataclasses" in sys.modules
from miquel import cli
code = cli.main(sys.argv[1:])
print(code)
print(" ".join(m for m in sys.modules if m.startswith("miquel.")))
print(not preloaded and "dataclasses" in sys.modules)
"""
SUBCOMMAND_IMPORTS = [
    (("centers", "--in", "{tri}"), set()),
    (("classify", "--in", "{tri}", "--point", "2,1"), set()),
    (("miquel", "--in", "{tri}", "--triad", "0.3,0.3,0.3"), set()),
    (("family", "--in", "{tri}", "--point", "2,1", "--theta", "0.3"), set()),
    (("figure", "--help"), set()),
    (("chain", "--in", "{tri}", "--point", "2,1", "--steps", "3"), {"miquel.chains"}),
    (("figure", "--in", "{tri}", "--elements", "circumcircle,centers"), {"miquel.figures"}),
    # verify builds chains for the chain suites
    (("verify", "--suite", "theorem5", "--trials", "1"),
     {"miquel.verify", "miquel.sampling", "miquel.chains"}),
]


def _probe(tri_file, argv) -> tuple[set[str], bool]:
    """The miquel modules a fresh interpreter loads to run ``argv``, and
    whether miquel loaded dataclasses."""
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *(a.format(tri=tri_file) for a in argv)],
        capture_output=True, text=True, env=cli_env(),
    )
    *_, code, modules, dataclasses_loaded = res.stdout.splitlines()
    assert code == "0", res.stderr
    return set(modules.split()), dataclasses_loaded == "True"


@pytest.mark.parametrize("argv, loaded", SUBCOMMAND_IMPORTS)
def test_each_subcommand_imports_only_the_modules_it_runs(tri_file, argv, loaded):
    modules, _ = _probe(tri_file, argv)
    assert LAZY_MODULES & modules == loaded


# importing dataclasses costs each process more than any miquel module
@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMAND_IMPORTS])
def test_no_subcommand_imports_dataclasses(tri_file, argv):
    _, dataclasses_loaded = _probe(tri_file, argv)
    assert not dataclasses_loaded
