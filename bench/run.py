"""Benchmark of the miquel toolkit: end-to-end metrics, or per-layer ones.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-chains --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it times passes of the workload with tracing off and
reports every end-to-end metric of BENCHMARK.json. With ``--trace 1`` it
alternates untraced and traced passes and reports every per-layer metric;
the spans go to ``.bench_out/<workload>.spans``. Every pass checks the
program's outputs. Earlier stdout lines are a table of every metric with its
unit and sample count; the last line is the JSON result. Each result is also
appended, with host and provenance, to ``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_LOOP_S, WORKLOADS, reference_loop

SETUPS = 15  # set-up repeats per run; setup_s is their median
# End-to-end times are scaled to a reference host, on which each workload's
# reference (see workloads.py) takes the workload's ``reference_s``. The
# host's speed drifts by a fifth and more within minutes; the reference
# drifts with it, the scaled times do not.


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else _median(xs)


def provenance(root: Path, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "miquel").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(workload, seconds: float, trace: bool, spans_path=None) -> dict:
    """Set up, run passes for ``seconds``, and return metrics with sample counts."""
    setup_s = []  # each scaled by the reference loop timed just before it
    for _ in range(SETUPS):
        gc.collect()  # the modules a fresh import drops are garbage; collect them untimed
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        workload.setup()
        setup_s.append(REFERENCE_LOOP_S * (time.perf_counter() - t1) / (t1 - t0))
    return _traced(workload, seconds, spans_path) if trace else _untraced(workload, seconds, setup_s)


def median_pass(passes, reference_s: float) -> list[float]:
    """Each operation of a pass, scaled to the reference host, at its median.

    Passes run the same operations in the same order; the last may be cut
    short. An operation's time is multiplied by ``reference_s`` over the time
    of the reference timed just before it. The host's speed swings within
    seconds, so scaling and medians taken operation by operation are steadier
    than over whole passes.
    """
    return [
        _median([reference_s * p.latencies[i][1] / p.reference_s[i]
                 for p in passes if i < len(p.latencies)])
        for i in range(len(passes[0].latencies))
    ]


def _untraced(workload, seconds, setup_s) -> dict:
    passes = []
    deadline = time.perf_counter() + seconds
    passes.append(workload.run_pass())  # at least one whole pass
    while time.perf_counter() < deadline:
        passes.append(workload.run_pass(deadline=deadline))
    reference = _median([r for p in passes for r in p.reference_s])
    op_s = median_pass(passes, workload.reference_s)
    wall = sum(op_s)
    k = workload.ops_per_command
    cmd_ms = [1000.0 * sum(op_s[i:i + k]) for i in range(0, len(op_s), k)]
    values = {
        "setup_s": (_median(setup_s), len(setup_s)),
        "wall_s": (wall, len(passes)),
        "ops_per_s": (passes[0].ops / wall, len(passes)),
        "cmd_ms_p50": (_median(cmd_ms), len(cmd_ms)),
        "cmd_ms_p90": (_p90(cmd_ms), len(cmd_ms)),
        "peak_rss_mb": (workload.peak_rss_mb(), 1),
    }
    return {
        "values": values,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "checks": [],
        "host": {"reference_ms": 1000.0 * reference,
                 "raw_wall_s": _median([p.wall for p in passes if p.complete])},
    }


def _traced(workload, seconds, spans_path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    started, elapsed = time.perf_counter(), 0.0
    # a further pair of passes only if it should end within ``seconds``
    while not traced or elapsed * (len(traced) + 1) / len(traced) <= seconds:
        untraced.append(workload.run_pass(in_process=True))
        tracer.install()
        try:
            tracer.begin_pass()
            traced.append(workload.run_pass(tracer, in_process=True))
            layers.append(tracer.end_pass())
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - started
    if spans_path is not None:
        tracer.write(spans_path)

    checks = []
    counts = [{k: v for k, v in layer.items() if not k.endswith("self_s")} for layer in layers]
    if any(c != counts[0] for c in counts[1:]):
        checks.append("per-layer counts differ between traced passes")

    n = len(traced)
    values = {}
    for key in layers[0]:
        if key.endswith("self_s"):
            values[key] = (_median([layer[key] for layer in layers]), n)
        else:
            values[key] = (layers[0][key], n)
    suites = {}
    for p in untraced:
        for suite, s in p.suite_s.items():
            suites.setdefault(suite, []).append(s)
    for suite, xs in suites.items():
        values[f"verify.suite.{suite}.s"] = (_median(xs), len(xs))
    values["worst_tol_ratio"] = (max(p.worst_tol_ratio for p in untraced), len(untraced))
    if hasattr(workload, "layer_metrics"):
        values.update(workload.layer_metrics())
        by_command = {}
        for p in untraced:
            for command, s in p.latencies:
                by_command.setdefault(command, []).append(1000.0 * s)
        for command, xs in by_command.items():
            values[f"cli.{command}.main_ms"] = (_median(xs), len(xs))
    values["trace.overhead_ratio"] = (
        _median([p.wall for p in traced]) / _median([p.wall for p in untraced]), n
    )
    references = [r for p in untraced for r in p.reference_s]  # none in-process on cli-session
    return {
        "values": values,
        "attempted": sum(p.attempted for p in untraced + traced),
        "failed": sum(p.failed for p in untraced + traced),
        "checks": checks,
        "host": {"reference_ms": 1000.0 * _median(references)} if references else {},
    }


def result_line(spec: dict, measured: dict, trace: bool) -> tuple[dict, list[str]]:
    """The JSON result and the table lines, for exactly the metrics of ``spec``."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, lines = {}, []
    unknown = sorted(set(measured["values"]) - {m["name"] for m in wanted})
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    for m in wanted:
        value, n = measured["values"].get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']:<48s} {value:>16.6g} {m['unit']:<8s} n={n}")
    # a metric the workload does not exercise reads 0 with n=0
    attempted, failed = measured["attempted"], measured["failed"]
    lines.append(f"{'fail_ratio':<48s} {failed / attempted if attempted else 1.0:>16.6g} "
                 f"{'ratio':<8s} n={attempted}")
    for problem in measured["checks"]:
        lines.append(f"check failed: {problem}")
    result = {
        "correct": failed == 0 and attempted > 0 and not measured["checks"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "miquel" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a miquel source checkout "
              "(src/miquel and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(root / "src"))

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        measured = run_workload(workload, args.seconds, bool(args.trace),
                                out_dir / f"{args.workload}.spans")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(root, args)
    prov.update(measured["host"])
    result, lines = result_line(spec, measured, bool(args.trace))
    samples = {name: n for name, (_, n) in measured["values"].items()}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": prov, "samples": samples, **result}) + "\n")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
