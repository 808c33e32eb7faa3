"""Command-line surface: center tables, point classification, concurrency
checks, family and chain runs, the verification suites, and SVG figures.

Exit codes: 0 success, 1 geometric error on degenerate input or stdout
closed by its reader, 2 usage or scene-schema error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

# Only what every subcommand needs is imported here. `chain`, `verify` and
# `figure` import chains, verify (with sampling) and figures themselves: a
# process without a bytecode cache compiles every module it imports.
from . import centers
from .errors import GeometryError, RightAngleDegenerateError, SceneError
from .kernel import min_side_line_distance_xy, reject_side_lines, side_lengths_xy
from .scene import ELEMENTS, SceneSpec, parse_scene, point_in_range
from .triads import (
    PEDAL_SIMILARITY_TOL,
    checked_triad,
    classify_similarity,
    detect_special_role,
    family_member,
    miquel_point,
    on_circle_xy,
    pedal_triad,
    simson_line,
    triad_params,
    triad_xy,
)

if TYPE_CHECKING:
    from .verify import SuiteReport

DEFAULT_SEED = 7


def _num(v: float) -> str:
    return repr(v)


def _point_str(p: tuple[float, float]) -> str:
    x, y = p
    return f"({_num(x)}, {_num(y)})"


def _load_scene(path: str) -> SceneSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except OSError as exc:
        raise SceneError(f"cannot read {path}: {exc}") from None


def _parse_numbers(text: str, flag: str, n: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = ()
    if len(values) != n:
        raise SceneError(f"{flag} expects {n} comma-separated numbers, got {text!r}")
    return values


def _require_point(scene: SceneSpec, override: str | None) -> tuple[float, float]:
    if override is not None:
        return point_in_range(*_parse_numbers(override, "--point", 2), "--point")
    if scene.point is None:
        raise SceneError("no point given: add \"P\" to the scene or pass --point")
    return scene.point


# ---------------------------------------------------------------- centers

def _center_table(m: centers.Measures) -> list[tuple[str, str]]:
    rows = []
    for role, label in centers.NAMED_POINTS:
        try:
            rows.append((label, _point_str(centers.locate_xy(m, role))))
        except RightAngleDegenerateError:  # S_v or M_v at a right angle at v
            rows.append((label, f"degenerate: {RightAngleDegenerateError.__name__}"))
        except GeometryError:
            rows.append((label, "degenerate: at infinity"))
    return rows


def cmd_centers(args) -> int:
    scene = _load_scene(args.infile)
    rows = _center_table(scene.measures)
    if args.json:
        print(json.dumps({name: value for name, value in rows}))
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
    return 0


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    scene = _load_scene(args.infile)
    m = scene.measures
    px, py = _require_point(scene, args.point)
    # rejects NaN too: every comparison with NaN is false
    if not 0.0 < args.tolerance < math.inf:
        raise ValueError("--tolerance must be finite and strictly positive")
    role = detect_special_role(m, px, py, args.tolerance)
    doc: dict = {"role": str(role)}
    if on_circle_xy((*m.circumcenter_xy, m.circumradius), px, py):
        doc["pedal"] = "simson-line"
        doc["collinearity_deviation"] = simson_line(m.xy, px, py).max_deviation()
    else:
        pedal = pedal_triad(m.xy, px, py)
        side_lengths_xy(*pedal)  # the CollinearError of a collinear pedal triangle
        match = classify_similarity(m.xy, pedal, PEDAL_SIMILARITY_TOL)
        if match is None:
            doc["similar_to_host"] = False
        else:
            doc["similar_to_host"] = True
            # X, Y, Z: the pedal vertices on BC, CA, AB
            doc["permutation"] = "".join("XYZ"[i] for i in match.order)
            doc["orientation"] = "inverse" if match.mirrored else "direct"
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"role           {doc['role']}")
        if "pedal" in doc:
            print("pedal          collinear (simson line), "
                  f"deviation {doc['collinearity_deviation']:.3e}")
        elif doc["similar_to_host"]:
            print("pedal          similar to host, permutation "
                  f"{doc['permutation']} ({doc['orientation']})")
        else:
            print("pedal          not similar to host")
    return 0


# ---------------------------------------------------------------- miquel

def cmd_miquel(args) -> int:
    scene = _load_scene(args.infile)
    m = scene.measures
    params = _parse_numbers(args.triad, "--triad", 3) if args.triad else scene.triad_params
    if params is None:
        raise SceneError("no triad given: add \"triad\" to the scene or pass --triad")
    res = miquel_point(m.xy, checked_triad(triad_xy(m.xy, *params)))
    doc = {
        "point": list(res.point),
        "residual": res.residual,
        "residual_rel": res.residual / m.circumradius,
        "tangent": res.tangent,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"miquel point   {_point_str(res.point)}")
        print(f"residual       {res.residual:.3e}  (relative {doc['residual_rel']:.3e})")
        if res.tangent:
            print("tangency       the two defining circles touch at the point")
    return 0


# ---------------------------------------------------------------- family

def cmd_family(args) -> int:
    scene = _load_scene(args.infile)
    m = scene.measures
    px, py = _require_point(scene, args.point)
    theta = args.theta if args.theta is not None else (scene.theta or 0.0)
    triad = family_member(m.xy, px, py, theta)
    reject_side_lines(min_side_line_distance_xy(m.xy, px, py), m.circumradius)
    res = miquel_point(m.xy, triad)
    ratio = None
    if not on_circle_xy((*m.circumcenter_xy, m.circumradius), px, py):
        ratio = side_lengths_xy(*triad)[0] / side_lengths_xy(*pedal_triad(m.xy, px, py))[0]
    u, v, w = triad_params(m.xy, triad)
    x, y, z = triad[0:2], triad[2:4], triad[4:6]
    mx, my = res.point
    doc = {
        "theta": theta,
        "u": u,
        "v": v,
        "w": w,
        "X": list(x),
        "Y": list(y),
        "Z": list(z),
        "roundtrip_residual": math.hypot(mx - px, my - py),
        "pedal_ratio": ratio,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"theta          {_num(theta)}")
        print(f"params         u={_num(u)} v={_num(v)} w={_num(w)}")
        print(f"X              {_point_str(x)}")
        print(f"Y              {_point_str(y)}")
        print(f"Z              {_point_str(z)}")
        print(f"roundtrip      {doc['roundtrip_residual']:.3e}")
        if ratio is not None:
            print(f"pedal ratio    {_num(ratio)}")
    return 0


# ---------------------------------------------------------------- chain

def cmd_chain(args) -> int:
    from .chains import CHAIN_SIMILARITY_TOL, check_mod3_similarity, iterate_chain

    scene = _load_scene(args.infile)
    px, py = _require_point(scene, args.point)
    thetas = _parse_numbers(args.thetas, "--thetas", args.steps) if args.thetas else None
    rec = iterate_chain(scene.measures, px, py, args.steps, thetas=thetas)
    worst = check_mod3_similarity(rec) if args.steps >= 3 else None
    doc = {
        "steps": args.steps,
        "roles": [str(r) for r in rec.roles],
        "circumradii": [r for *_, r in rec.circles],
        "mod3_similar": None if worst is None else worst < CHAIN_SIMILARITY_TOL,
        "mod3_worst_residual": worst,
    }
    if args.json:
        print(json.dumps(doc))
    else:
        for k, (role, r) in enumerate(zip(doc["roles"], doc["circumradii"])):
            print(f"step {k:<3d} role={role:<18s} circumradius={_num(r)}")
        if worst is not None:
            print(f"mod3 similarity {'holds' if doc['mod3_similar'] else 'FAILS'} "
                  f"(worst residual {worst:.3e})")
    return 0


# ---------------------------------------------------------------- verify

def _report_doc(rep: SuiteReport) -> dict:
    return {
        "suite": rep.suite,
        "seed": rep.seed,
        "trials": rep.trials,
        "passed": rep.passed,
        "claims": [
            {
                "name": c.name,
                "passed": c.passed,
                "informational": c.informational,
                "max_residual": c.max_residual,
                "tolerance": c.tol,
                "trials": c.trials,
                **({"worst": c.worst} if not c.passed else {}),
            }
            for c in rep.claims
        ],
    }


def _print_report(rep: SuiteReport) -> None:
    print(f"suite {rep.suite}  seed={rep.seed}")
    for c in rep.claims:
        status = "PASS" if c.passed else "FAIL"
        note = " (informational)" if c.informational else ""
        print(
            f"  {c.name:<34s} {status}  max {c.max_residual:.3e}  "
            f"tol {c.tol:.0e}  trials {c.trials}{note}"
        )
        if not c.passed and c.worst:
            print(f"    worst: {c.worst}")
    print(f"result {'PASS' if rep.passed else 'FAIL'}")


def _seed(args) -> int:
    """``--seed``, else ``MIQUEL_SEED``, else ``DEFAULT_SEED``."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("MIQUEL_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise SceneError(f"MIQUEL_SEED must be an integer, got {text!r}") from None


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITES:
        raise SceneError(
            f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}"
        )
    seed = _seed(args)
    reports = [run_suite(name, seed, args.trials) for name in names]
    if args.json:
        print(json.dumps([_report_doc(r) for r in reports]))
    else:
        for i, rep in enumerate(reports):
            if i:
                print()
            _print_report(rep)
        if len(reports) > 1:
            overall = all(r.passed for r in reports)
            print(f"\noverall {'PASS' if overall else 'FAIL'} ({len(reports)} suites)")
    total = sum(r.duration for r in reports)
    print(f"wall clock {total:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 3


# ---------------------------------------------------------------- figure

def cmd_figure(args) -> int:
    from .figures import render_figure

    scene = _load_scene(args.infile)
    elements = [e for e in (args.elements or "").split(",") if e]
    svg = render_figure(scene, elements)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise SceneError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(svg)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    # every flag is spelled in full: an abbreviation (--theta for --thetas)
    # is a usage error, not a second spelling
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="miquel",
        description="Triangle constructions around concurrency points, "
        "with randomized verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    def add_common(p, point_flag=False):
        p.add_argument("--in", dest="infile", required=True, help="scene JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if point_flag:
            p.add_argument("--point", help="override the scene point, as 'x,y'")

    p = sub.add_parser("centers", help="table of named centers")
    add_common(p)
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("classify", help="which special role a point plays")
    add_common(p, point_flag=True)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative match tolerance (default 1e-9)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("miquel", help="concurrency point of a triad")
    add_common(p)
    p.add_argument("--triad", help="affine parameters 'u,v,w'")
    p.set_defaults(func=cmd_miquel)

    p = sub.add_parser("family", help="rotated family member of a point")
    add_common(p, point_flag=True)
    p.add_argument("--theta", type=float, help="rotation in radians")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("chain", help="iterate nested triad triangles")
    add_common(p, point_flag=True)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--thetas", help="comma-separated per-step rotations")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True,
                   help="suite name or 'all' (see README for the full list)")
    p.add_argument("--seed", type=int,
                   help=f"random seed (default: MIQUEL_SEED, else {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=None,
                   help="override the suite's default trial count (at least 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="render the scene as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--elements", required=True,
                   help=f"comma-separated from: {', '.join(ELEMENTS)}")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_figure)

    return parser


def _join_number_lists(argv: list[str]) -> list[str]:
    """``--point -5,0`` as ``--point=-5,0``, and so for ``--triad``, ``--thetas`` and,
    given one number, ``--theta`` and ``--tolerance``: argparse reads a separate value
    with a leading minus as an option. A list after ``--theta`` is left for ``chain`` to refuse."""
    out: list[str] = []
    for arg in argv:
        if out and arg[:1] == "-" and arg[:2] != "--" and (
                out[-1] in ("--point", "--triad", "--thetas")
                or out[-1] in ("--theta", "--tolerance") and "," not in arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_number_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SceneError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`miquel verify ... | head -1`): point
        # stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
