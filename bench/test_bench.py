"""Tests of the benchmark itself, on minimal-size workloads.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_verify():
    # theorem14 at one trial builds 10 chains, corollary4 at one trial 4
    return workloads.VerifyWorkload(("theorem14", "corollary4", "theorem5"), [7], trials=1)


def small_cli(tmp_path):
    return workloads.CliSession(7, tmp_path, per_command=2)


def _assert_all_printed(measured, trace):
    result, lines = run.result_line(SPEC, measured, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = next(ln for ln in lines if ln.split()[0] == m["name"])
        words = line.split()
        float(words[1])
        assert words[2] == m["unit"] and words[3].startswith("n=")
    assert any(ln.split()[0] == "fail_ratio" for ln in lines)
    assert result["correct"], lines
    return result


def test_every_metric_is_printed_with_unit_and_sample_count(tmp_path):
    for workload in (small_verify(), small_cli(tmp_path)):
        measured = run.run_workload(workload, 0.0, False)
        _assert_all_printed(measured, False)
        for m in SPEC["end_to_end"]:  # every workload measures every one
            value, n = measured["values"][m["name"]]
            assert value > 0.0 and n > 0, m["name"]
        result = _assert_all_printed(
            run.run_workload(workload, 0.0, True, tmp_path / "spans"), True
        )
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_verify_chains_pass_holds_each_suites_default_trials(tmp_path):
    workload = workloads.WORKLOADS["verify-chains"](7, tmp_path)
    assert workload.suites == workloads.CHAIN_SUITES
    assert len(set(workload.seeds)) * workload.trials == 50


def test_median_pass_takes_each_operation_at_its_median():
    r = 0.25
    passes = [workloads.Pass(latencies=[("a", 1.0), ("b", 5.0)], reference_s=[r, r]),
              workloads.Pass(latencies=[("a", 3.0), ("b", 1.0)], reference_s=[r, r]),
              workloads.Pass(latencies=[("a", 2.0)], complete=False, reference_s=[r])]
    assert run.median_pass(passes, r) == [2.0, 3.0]
    # an operation timed while the reference ran twice as slow counts half
    passes[0].reference_s[1] = 2.0 * r
    passes[1].reference_s[1] = 2.0 * r
    assert run.median_pass(passes, r) == [2.0, 1.5]


def test_every_timed_pass_times_the_reference(tmp_path):
    for workload in (small_verify(), small_cli(tmp_path)):
        workload.setup()
        first = workload.run_pass()
        assert len(first.reference_s) == len(first.latencies)
        assert all(r > 0.0 for r in first.reference_s)
        assert first.wall == sum(s for _, s in first.latencies)
        measured = run.run_workload(workload, 0.0, False)
        assert measured["host"]["reference_ms"] > 0.0


def test_altered_verify_report_counts_as_failed():
    workload = small_verify()
    workload.setup()
    assert workload.run_pass().failed == 0
    original = workload.run_suite

    def altered(name, seed, trials=None):
        rep = original(name, seed, trials)
        if name == "theorem5":
            rep.claims[0].max_residual *= 2.0  # still inside tolerance, but not repeatable
        return rep

    workload.run_suite = altered
    second = workload.run_pass()
    assert (second.attempted, second.failed) == (3, 1)
    result, lines = run.result_line(
        SPEC, {"values": {}, "attempted": 6, "failed": 1, "checks": []}, False
    )
    assert not result["correct"]
    assert float(next(ln for ln in lines if ln.startswith("fail_ratio")).split()[1]) > 0.0


def test_altered_cli_output_and_exit_code_count_as_failed(tmp_path):
    workload = small_cli(tmp_path)
    workload.setup()
    assert workload.run_pass(in_process=True).failed == 0
    original = workload.cli.main

    def altered(argv):
        code = original(argv)
        if argv[0] == "centers":
            print("extra")
        if argv[0] == "miquel":
            return 3
        return code

    workload.cli.main = altered
    second = workload.run_pass(in_process=True)
    # two distinct invocations of each command, each run twice
    assert second.failed == 8


def test_call_counts_repeat_exactly_and_traced_outputs_match(tmp_path):
    workload = small_verify()
    workload.setup()
    assert workload.run_pass().failed == 0  # the untraced reference
    modules = [m for name, m in sys.modules.items() if name.startswith("miquel")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            tracer.begin_pass()
            assert workload.run_pass(tracer).failed == 0
            counts.append(tracer.end_pass())
        finally:
            tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    for layer in counts:
        for key in [k for k in layer if k.endswith("self_s")]:
            del layer[key]
    assert counts[0] == counts[1]
    assert counts[0]["chains.iterate_chain.calls"] == 14
    assert counts[0]["triads.detect_special_role.calls"] == 10 * 10 + 4 * 7
    assert counts[0]["chains.roles_read_ratio"] == 4 / 14

    path = tmp_path / "run.spans"
    tracer.write(path)
    names, spans = read_spans(path)
    assert len(spans) == len(tracer.start)
    roots = [s for s in spans if s[3] == -1]
    assert {s[0] for s in roots} == {"verify.run_suite"}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    total_self = sum(end - start - child[i] for i, (_, start, end, _) in enumerate(spans))
    total_root = sum(end - start for _, start, end, _ in roots)
    assert abs(total_self - total_root) < 1e-6 * max(1.0, total_root)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
