"""The benchmark harness: passes, checks, tracing and the result contract."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "tutte-planted": {"banded_n": 8, "ladder_k": 4},
    "verify-cli": {"n": 8},
    "search-shuffled": {"n": 6, "shuffles": 1, "smalls": 1},
}


@pytest.fixture(params=sorted(TINY))
def tiny_workload(request, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[request.param]
    for attr, value in TINY[request.param].items():
        monkeypatch.setattr(cls, attr, value)
    return cls(5, tmp_path)


def test_workload_names_match_the_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_untraced_passes_check_clean(tiny_workload):
    runner = run.Runner(tiny_workload)
    passes = runner.passes(0.0)
    assert len(passes.clocks) == run.MIN_PASSES
    assert runner.attempted == run.MIN_PASSES * len(tiny_workload.cases) * len(tiny_workload.steps)
    assert dict(runner.failed) == {}
    assert passes.seconds() == pytest.approx(passes.seconds("n") + passes.seconds("2n") + passes.seconds("small"))


def test_a_wrong_output_counts_as_failed(tiny_workload):
    runner = run.Runner(tiny_workload)
    original = tiny_workload.run

    def broken(case, out, timed):
        original(case, out, timed)
        out[tiny_workload.steps[-1]] = "wrong"

    tiny_workload.run = broken
    runner.passes(0.0)
    last = tiny_workload.steps[-1]
    assert dict(runner.failed) == {f"{c.instance.name}/{last}": run.MIN_PASSES for c in tiny_workload.cases}


def test_traced_passes_give_every_per_layer_metric(tiny_workload):
    runner = run.Runner(tiny_workload)
    tracer = tracing.Tracer()
    workloads.instrument(tracer)
    runner.tracer = tracer
    seen = []
    try:
        runner.passes(0.0, each=lambda mark, clock, outs: seen.append((run.layer_metrics(tracer, mark), outs)))
    finally:
        tracer.unpatch()
    assert dict(runner.failed) == {}
    metrics, outs = seen[-1]
    metrics.update(tiny_workload.work_counts(outs))
    missing = {m["name"] for m in SPEC["per_layer"]} - set(metrics) - {"trace.overhead_s"}
    assert not missing
    assert metrics["gf.calls"] > 0 and metrics["construct.busy_s"] > 0 and metrics["verify.busy_s"] > 0
    # unpatched again: the library's own functions are back in place
    assert workloads.dw.construct.__module__ == "decompwidth.construct"


def test_span_self_time_excludes_children_and_counted_calls():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    counted = tracer.counted("gf", leaf)
    inner = tracer.spanned("inner", lambda: (leaf(), counted()))
    outer = tracer.spanned("outer", lambda: (inner(), leaf()))
    outer()
    first, second = tracer.spans
    assert (first.name, first.parent, second.name, second.parent) == ("outer", -1, "inner", 0)
    assert second.counted_s == pytest.approx(tracer.counters["gf"].busy_s)
    assert first.self_s == pytest.approx(first.duration - second.duration)
    assert second.self_s == pytest.approx(second.duration - second.counted_s)
    times = tracer.layer_times(0)
    assert times["outer"][0] == 1 and times["outer"][1] == pytest.approx(first.duration)


def test_without_the_library_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
