"""The three benchmark workloads. Each is a closed loop with one client.

A workload sets itself up (a fresh import of the program plus its inputs,
timed by the runner), then runs passes. A pass runs every operation of the
workload once, in the same order every time, times each one, and checks its
output: against a condition known without the program, and against the first
output seen for the same operation, so repeated identical operations must
agree byte for byte. A pass given a deadline stops at the first operation
that would start after it. Just before each operation, a pass times the
workload's reference, fixed work like the operation's that no change to the
program can speed up, so the runner can tell how fast the host was then.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

CHAIN_SUITES = ("theorem14", "theorem15", "corollary4")
ONESHOT_SUITES = (
    "theorem1", "theorem2", "theorem3", "theorem4", "theorem5", "theorem6",
    "theorem7", "theorem8", "theorem9", "theorem10", "theorem11", "theorem12",
    "theorem13", "lemma1", "lemma2", "simson",
)
# one seed of the one-shot suites takes about a second; four make a pass
# long enough to time
ONESHOT_SEEDS = 4
# a chain suite's 50 default trials, drawn as 5 trials at each of 10 seeds
# derived from the benchmark seed: the same trial count and layer call counts
# as one seed, in timed calls of under half a second instead of up to 4 s
CHAIN_SEEDS = 10
CHAIN_TRIALS = 5


# The reference loop: fixed work that no change to the program can speed up,
# of the kinds the program does: integer arithmetic, short-lived objects with
# float math, and arithmetic on frozen-dataclass vectors. The verify workloads
# time it just before every operation, and the runner scales each operation's
# time and each set-up by it.
REFERENCE_LOOP_S = 0.020  # the loop's time on the reference host


class _Slots:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


@dataclass(frozen=True)
class _Vec:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite vector")

    def __add__(self, other: _Vec) -> _Vec:
        return _Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: _Vec) -> _Vec:
        return _Vec(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> _Vec:
        return _Vec(self.x * s, self.y * s)

    def cross(self, other: _Vec) -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def reference_loop() -> float:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    pts = []
    for i in range(3_000):
        a = _Slots(math.cos(i * 0.1), math.sin(i * 0.1))
        b = _Slots(a.x * 0.5 + 1.0, a.y - 0.25)
        pts.append(_Slots(math.hypot(a.x - b.x, a.y - b.y), math.atan2(b.y, b.x)))
    acc, a, b, c = _Vec(0.0, 0.0), _Vec(0.3, 1.1), _Vec(-1.2, -0.4), _Vec(1.5, -0.7)
    for _ in range(500):
        u = (b - a) * 0.5 + a
        w = (c - a).cross(b - a)
        acc = acc + (u - c) * (1.0 / (1.0 + abs(w) + (u - b).norm()))
        a, b, c = b, c, _Vec(a.x + 1e-3, a.y - 1e-3)
    return total + sum(p.x for p in pts) + acc.norm()


def fresh_import(name: str):
    """Import ``name`` as a new process would, dropping earlier miquel modules."""
    for mod in [m for m in sys.modules if m == "miquel" or m.startswith("miquel.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    return importlib.import_module(name)


@dataclass
class Pass:
    wall: float = 0.0  # the operations' time, references excluded
    latencies: list[tuple[str, float]] = field(default_factory=list)
    ops: int = 0  # trials on the verify workloads, invocations on cli-session
    complete: bool = True  # False if the deadline cut the pass short
    # the reference's time just before each operation, one per latency
    reference_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    suite_s: dict[str, float] = field(default_factory=dict)
    worst_tol_ratio: float = 0.0

    def time_reference(self, reference) -> None:
        t0 = time.perf_counter()
        reference()
        self.reference_s.append(time.perf_counter() - t0)


def _report_failure(what: str, detail: str) -> None:
    print(f"check failed: {what}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------- verify


class VerifyWorkload:
    """Library calls ``run_suite(name, seed, trials)``, every suite at every seed.

    Each call is timed. One command is the workload's suites at one seed, as
    one ``miquel verify`` call over those suites would run them. The
    reference is the reference loop: in-process Python work like a suite's.
    """

    reference_s = REFERENCE_LOOP_S

    def __init__(self, suites, seeds, trials=None):
        self.suites = tuple(suites)
        self.seeds = tuple(seeds)
        self.trials = trials
        self.ops_per_command = len(self.suites)
        self.reference: dict[tuple[str, int], tuple] = {}

    def setup(self) -> None:
        self.run_suite = fresh_import("miquel.verify").run_suite

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_pass(self, tracer=None, in_process=True, deadline=None) -> Pass:
        run = self.run_suite
        if tracer is not None:
            run = tracer.wrap_operation(run, "verify.run_suite")
        result = Pass()
        clock = time.perf_counter
        for seed, suite in itertools.product(self.seeds, self.suites):
            if deadline is not None and clock() >= deadline:
                result.complete = False
                break
            result.time_reference(reference_loop)
            t0 = clock()
            self._run_suite(run, suite, seed, result)
            result.latencies.append((suite, clock() - t0))
        result.wall = sum(s for _, s in result.latencies)
        return result

    def _run_suite(self, run, suite: str, seed: int, result: Pass) -> None:
        result.attempted += 1
        try:
            rep = run(suite, seed, self.trials)
        except Exception:
            result.failed += 1
            _report_failure(f"{suite} seed {seed}", traceback.format_exc())
            return
        result.ops += rep.trials
        result.suite_s[suite] = result.suite_s.get(suite, 0.0) + rep.duration
        if not self.check(suite, seed, rep):
            result.failed += 1
        for c in rep.claims:
            if not c.informational:
                result.worst_tol_ratio = max(result.worst_tol_ratio, c.max_residual / c.tol)

    def check(self, suite: str, seed: int, rep) -> bool:
        """The report passes and repeats the first report of this suite and seed."""
        signature = tuple(
            (c.name, c.trials, c.max_residual, c.worst, c.passed) for c in rep.claims
        )
        first = self.reference.setdefault((suite, seed), signature)
        if not rep.passed:
            _report_failure(f"{suite} seed {seed}", "report does not pass")
            return False
        if signature != first:
            _report_failure(f"{suite} seed {seed}", "claim residuals differ from the first pass")
            return False
        return True


# ---------------------------------------------------------------- scenes

COMMANDS = ("centers", "classify", "miquel", "family", "chain", "figure", "verify")
FIGURE_ELEMENTS = "circumcircle,miquel-circles,pedal,triad,centers,median-symmedian"
# commands that must refuse a point on a side line with exit code 1
REJECTS_SIDE_POINT = ("family", "chain", "figure")
SCHEMA_BREAKS = ("unknown-field", "missing-vertex", "bad-number", "bad-option", "not-json")


def _triangle(rng: random.Random) -> list[list[float]]:
    """Vertices on a random circle, angles away from 0, right and each other."""
    while True:
        a = rng.uniform(0.35, math.pi - 0.7)
        b = rng.uniform(0.35, math.pi - a - 0.35)
        angles = (a, b, math.pi - a - b)
        if min(angles) < 0.35 or any(abs(x - math.pi / 2) < 0.1 for x in angles):
            continue
        if min(abs(angles[i] - angles[i - 1]) for i in range(3)) < 0.05:
            continue
        break
    radius = rng.uniform(0.5, 3.0)
    cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    # vertex A at phase, B after the arc 2C, C after a further 2A
    ts = (phase, phase + 2.0 * angles[2], phase + 2.0 * angles[2] + 2.0 * angles[0])
    return [[cx + radius * math.cos(t), cy + radius * math.sin(t)] for t in ts]


def _circumcenter(v) -> list[float]:
    (ax, ay), (bx, by), (cx, cy) = v
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return [(a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
            (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d]


def _incenter(v) -> list[float]:
    a, b, c = v
    la, lb, lc = math.dist(b, c), math.dist(c, a), math.dist(a, b)
    s = la + lb + lc
    return [(la * a[0] + lb * b[0] + lc * c[0]) / s, (la * a[1] + lb * b[1] + lc * c[1]) / s]


def _scene(rng: random.Random, kind: str, point: str) -> tuple[str, str | None]:
    """Scene text and the role ``classify`` must report (None if unknown)."""
    v = _triangle(rng)
    doc = {"A": v[0], "B": v[1], "C": v[2]}
    role = None
    if kind == "side":  # on side line BC, strictly between B and C
        s = rng.uniform(0.2, 0.8)
        doc["P"] = [v[1][0] + s * (v[2][0] - v[1][0]), v[1][1] + s * (v[2][1] - v[1][1])]
    elif point == "circumcenter":
        doc["P"], role = _circumcenter(v), "circumcenter"
    elif point == "incenter":
        doc["P"], role = _incenter(v), "incenter"
    else:
        w = [rng.uniform(0.15, 1.0) for _ in range(3)]
        doc["P"] = [sum(wi * vi[k] for wi, vi in zip(w, v)) / sum(w) for k in (0, 1)]
    doc["triad"] = [rng.uniform(0.15, 0.85) for _ in range(3)]
    doc["theta"] = rng.uniform(-0.6, 0.6)
    doc["options"] = {"width": rng.choice((480, 640, 800)), "labels": rng.random() < 0.5,
                      "vertex": rng.choice("ABC")}
    if kind == "schema":
        brk = rng.choice(SCHEMA_BREAKS)
        if brk == "unknown-field":
            doc["Q"] = [0.0, 0.0]
        elif brk == "missing-vertex":
            del doc["C"]
        elif brk == "bad-number":
            doc["A"] = [doc["A"][0], "x"]
        elif brk == "bad-option":
            doc["options"]["width"] = -5
        else:
            return json.dumps(doc)[:-2], None
    return json.dumps(doc), role


@dataclass(frozen=True)
class Invocation:
    key: int
    command: str
    argv: tuple[str, ...]
    expected_code: int
    expected_role: str | None = None
    svg_path: str | None = None


def make_invocations(seed: int, workdir: Path, per_command: int) -> list[Invocation]:
    """Distinct invocations: per command, one scene that breaks the schema,
    one with the point on a side line for the commands that reject it, the
    rest valid with the point inside, at the circumcenter or at the incenter."""
    rng = random.Random(f"cli-session:{seed}")
    out = []
    for command in COMMANDS:
        for j in range(per_command):
            key = len(out)
            json_flag = ("--json",) if j % 2 and command != "figure" else ()
            if command == "verify":
                argv = ("verify", "--suite", "theorem5", "--seed", str(seed + j)) + json_flag
                out.append(Invocation(key, command, argv, 0))
                continue
            kind = "ok"
            if j == per_command - 1 and per_command > 1:
                kind = "schema"
            elif j == per_command - 2 and per_command > 2 and command in REJECTS_SIDE_POINT:
                kind = "side"
            text, role = _scene(rng, kind, ("inside", "circumcenter", "incenter")[j % 3])
            path = workdir / f"scene-{key:03d}.json"
            path.write_text(text, encoding="utf-8")
            argv = (command, "--in", str(path)) + json_flag
            svg = None
            if command == "chain":
                argv += ("--steps", "6")
            elif command == "figure":
                svg = str(workdir / f"figure-{key:03d}.svg")
                argv += ("--elements", FIGURE_ELEMENTS, "--out", svg)
            code = {"ok": 0, "side": 1, "schema": 2}[kind]
            out.append(Invocation(key, command, argv, code,
                                  role if command == "classify" and kind == "ok" else None, svg))
    return out


# ---------------------------------------------------------------- cli-session


class CliSession:
    """One-shot ``python -m miquel.cli`` processes over seeded scene files.

    Each distinct invocation runs twice per pass, in a seeded shuffled
    order, so repeated identical calls are compared within every pass. The
    traced run calls ``miquel.cli.main`` in process instead, with the same
    invocations and checks.

    The reference of a process is an interpreter start without the site
    module, ``python -S -c pass``: a process's start-up is not pure-Python
    work, which the reference loop tracks badly, and a full ``python -c
    pass`` spends most of its time in ``site`` and is itself noisy (see
    README.md). In-process passes time no reference.
    """

    ops_per_command = 1
    reference_s = 0.018  # ``python -S -c pass`` on the reference host

    def __init__(self, seed: int, workdir: Path, per_command: int = 8):
        self.seed = seed
        self.workdir = Path(workdir)
        self.per_command = per_command
        self.reference: dict[int, tuple] = {}

    def setup(self) -> None:
        self.cli = fresh_import("miquel.cli")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.invocations = make_invocations(self.seed, self.workdir, self.per_command)
        order = [inv for inv in self.invocations for _ in range(2)]
        random.Random(self.seed).shuffle(order)
        self.order = order
        src = str(Path(self.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("MIQUEL_SEED", None)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PYTHONIOENCODING"] = "utf-8"
        self.env = env

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _reference(self) -> None:
        subprocess.run([sys.executable, "-S", "-c", "pass"], env=self.env, timeout=60,
                       check=True)

    def _subprocess(self, inv: Invocation) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "miquel.cli", *inv.argv],
            capture_output=True, env=self.env, timeout=60,
        )
        return proc.returncode, proc.stdout

    def _in_process(self, main, inv: Invocation) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(inv.argv))
        return code, out.getvalue().encode("utf-8")

    def run_pass(self, tracer=None, in_process=False, deadline=None) -> Pass:
        main = self.cli.main
        if tracer is not None:
            main = tracer.wrap_operation(main, "cli.main")
        result = Pass()
        clock = time.perf_counter
        for inv in self.order:
            if deadline is not None and clock() >= deadline:
                result.complete = False
                break
            if inv.svg_path and os.path.exists(inv.svg_path):
                os.remove(inv.svg_path)
            if not in_process:
                result.time_reference(self._reference)
            t0 = clock()
            try:
                code, stdout = (self._in_process(main, inv) if in_process
                                else self._subprocess(inv))
            except Exception:
                result.latencies.append((inv.command, clock() - t0))
                result.attempted += 1
                result.failed += 1
                _report_failure(" ".join(inv.argv), traceback.format_exc())
                continue
            result.latencies.append((inv.command, clock() - t0))
            result.attempted += 1
            result.ops += 1
            svg = None
            if inv.svg_path and code == 0:
                svg = Path(inv.svg_path).read_bytes()
            if not self.check(inv, code, stdout, svg):
                result.failed += 1
            if inv.command == "verify" and code == 0:
                result.worst_tol_ratio = max(result.worst_tol_ratio, _worst_tol_ratio(stdout))
        result.wall = sum(s for _, s in result.latencies)
        return result

    def check(self, inv: Invocation, code: int, stdout: bytes, svg: bytes | None) -> bool:
        """Expected exit code and role, and the same bytes as the first identical call."""
        what = " ".join(inv.argv)
        first = self.reference.setdefault(inv.key, (code, stdout, svg))
        if code != inv.expected_code:
            _report_failure(what, f"exit code {code}, expected {inv.expected_code}")
            return False
        if inv.svg_path and code == 0 and not svg:
            _report_failure(what, "no SVG written")
            return False
        if inv.expected_role is not None and not _reports_role(stdout, inv.expected_role):
            _report_failure(what, f"role {inv.expected_role} not reported")
            return False
        if (code, stdout, svg) != first:
            _report_failure(what, "output differs from the first identical invocation")
            return False
        return True

    def layer_metrics(self, runs: int = 10) -> dict[str, tuple[float, int]]:
        """Interpreter start and a cold import of the CLI, each in fresh processes."""
        startup, imports = [], []
        probe = ("import time; t = time.perf_counter(); import miquel.cli; "
                 "print(time.perf_counter() - t)")
        for _ in range(runs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, timeout=60, check=True)
            startup.append(time.perf_counter() - t0)
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                  env=self.env, timeout=60, check=True)
            imports.append(float(proc.stdout))
        return {
            "cli.startup_ms": (1000.0 * statistics.median(startup), runs),
            "cli.import_ms": (1000.0 * statistics.median(imports), runs),
        }


def _reports_role(stdout: bytes, role: str) -> bool:
    text = stdout.decode("utf-8")
    if text.startswith("{"):
        return json.loads(text).get("role") == role
    return any(line.split() == ["role", role] for line in text.splitlines())


def _worst_tol_ratio(stdout: bytes) -> float:
    """Largest max_residual / tol over the gating claims of a verify report."""
    text = stdout.decode("utf-8")
    worst = 0.0
    if text.startswith("["):
        for rep in json.loads(text):
            for c in rep["claims"]:
                if not c["informational"]:
                    worst = max(worst, c["max_residual"] / c["tolerance"])
        return worst
    for line in text.splitlines():
        words = line.split()
        if "max" in words and "tol" in words and "(informational)" not in words:
            worst = max(worst, float(words[words.index("max") + 1])
                        / float(words[words.index("tol") + 1]))
    return worst


WORKLOADS = {
    "verify-chains": lambda seed, workdir: VerifyWorkload(
        CHAIN_SUITES, range(CHAIN_SEEDS * seed, CHAIN_SEEDS * (seed + 1)), CHAIN_TRIALS
    ),
    "verify-oneshot": lambda seed, workdir: VerifyWorkload(
        ONESHOT_SUITES, range(seed, seed + ONESHOT_SEEDS)
    ),
    "cli-session": lambda seed, workdir: CliSession(seed, workdir),
}
