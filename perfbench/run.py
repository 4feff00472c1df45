"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload tutte-planted --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the library is imported from ./src and
the metric names and units come from ./BENCHMARK.json.  The workload is set
up several times (fresh import of the library, instance generation and a
small warm-up; ``setup_s`` is the median), then its pipeline runs over the
instance list pass after pass for ``--seconds`` seconds, every output
checked untimed after its pass.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
passes.  With ``--trace 1`` the first half of the time runs untraced, the
second half with every layer wrapped (see tracing.py); the result holds the
per-layer metrics, medians over the traced passes, and the spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table of
every metric, including the ones BENCHMARK.json leaves out, goes to standard
error.  Exit status 2 when the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
CALIBRATION_LOOPS = 48_000
CALIBRATION_S = 0.01  # nominal seconds of one calibration loop (see README)
CALIBRATE_EVERY_S = 0.1  # steps shorter than this share their calibrations

# Layer timings reported on standard error and in the trace file only: each
# is exactly 0 on the workloads that bypass its layer, and a time that never
# changes is not a measurement the result line may carry.
STDERR_ONLY = {
    "matroids.rank_busy_s": "matroids.rank",
    "branchdecomp.greedy_s": "branchdecomp.greedy",
    "branchdecomp.exact_s": "branchdecomp.exact",
    "kdecomp.serialize_s": "kdecomp.serialize",
    "kdecomp.parse_s": "kdecomp.parse",
    "verify.witness_s": "verify.witness",
    "tutte.whitney_s": "tutte.whitney",
    "tutte.to_tutte_s": "tutte.to_tutte",
    "tutte.evaluate_exact_s": "tutte.evaluate_exact",
    "tutte.evaluate_mod_s": "tutte.evaluate_mod",
    "cli.construct_s": "cli.construct",
    "cli.verify_s": "cli.verify",
    "cli.tutte_eval_s": "cli.tutte_eval",
}


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class Clock:
    """Step times scaled to the reference machine speed.

    Each timed interval is divided by the mean of the calibration loops run
    just before and just after it, then multiplied by CALIBRATION_S.  The
    loop runs again once CALIBRATE_EVERY_S of timed work has passed, so
    short steps share calibrations.  Totals per key are complete after
    ``flush``.
    """

    def __init__(self):
        self.ref: dict = defaultdict(float)
        self.wall: dict = defaultdict(float)
        self._pending: list[tuple[object, float]] = []
        self._last = calibration()

    def time(self, key, fn, *args, **kwargs):
        """Call ``fn`` and charge its duration to ``key``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.wall[key] += elapsed
            self._pending.append((key, elapsed))
            if sum(e for _, e in self._pending) >= CALIBRATE_EVERY_S:
                self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before, self._last = self._last, calibration()
        scale = 2 * CALIBRATION_S / (before + self._last)
        for key, elapsed in self._pending:
            self.ref[key] += elapsed * scale
        self._pending.clear()


def untimed(_step, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def fresh_workloads():
    """Import the workloads, and the library under them, from scratch."""
    for name in list(sys.modules):
        if name in ("workloads", "generators") or name.split(".")[0] == "decompwidth":
            del sys.modules[name]
    return importlib.import_module("workloads")


class Runner:
    """Times passes over a workload's instances and checks their outputs."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.reference: list[dict | None] = [None] * len(workload.cases)
        self.attempted = 0
        self.failed: dict[str, int] = defaultdict(int)  # "instance/step" -> passes failed

    def run_pass(self) -> tuple[Clock, list[dict]]:
        """One pass; the clock holds seconds per (case index, step)."""
        clock, outs = Clock(), []
        for index, case in enumerate(self.workload.cases):
            if self.tracer is not None:
                self.tracer.instance = case.instance.name
            out: dict = {}

            def timed(step, fn, *args, index=index, **kwargs):
                return clock.time((index, step), fn, *args, **kwargs)

            try:
                self.workload.run(case, out, timed)
            except Exception as exc:  # counted as failed steps by the check
                out["error"] = repr(exc)
            outs.append(out)
        clock.flush()
        self._check(outs)
        return clock, outs

    def _check(self, outs: list[dict]) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            for i, (case, out) in enumerate(zip(self.workload.cases, outs)):
                self.workload.finish(case, out)
                self.attempted += len(self.workload.steps)
                if self.reference[i] is not None and out == self.reference[i]:
                    continue  # identical to outputs that passed every check
                try:
                    bad = self.workload.check(case, out)
                except Exception as exc:
                    bad = [f"{step} ({exc!r})" for step in self.workload.steps]
                for step in bad:
                    self.failed[f"{case.instance.name}/{step}"] += 1
                if not bad and self.reference[i] is None:
                    self.reference[i] = out
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def passes(self, seconds: float, each=None) -> "Passes":
        """Passes until ``seconds`` have elapsed (at least MIN_PASSES)."""
        result = Passes([c.size_class for c in self.workload.cases])
        start = time.perf_counter()
        while len(result.clocks) < MIN_PASSES or time.perf_counter() - start < seconds:
            mark = self.tracer.mark() if self.tracer is not None else 0
            clock, outs = self.run_pass()
            if each is not None:
                each(mark, clock, outs)
            result.clocks.append(clock)
        return result


class Passes:
    """Step times of every pass.  A size class's time is the sum, over its
    cases' steps, of each step's median over the passes; a step that did not
    run in a pass counts 0 there."""

    def __init__(self, classes: list[str]):
        self.classes = classes
        self.clocks: list[Clock] = []

    def seconds(self, size_class: str | None = None, wall: bool = False) -> float:
        keys = sorted({key for clock in self.clocks for key in clock.wall})
        return sum(
            statistics.median((clock.wall if wall else clock.ref).get(key, 0.0) for clock in self.clocks)
            for key in keys
            if size_class in (None, self.classes[key[0]])
        )

    def by_step(self) -> dict[str, float]:
        """Median seconds per step name, summed over the cases."""
        steps = {key[1] for clock in self.clocks for key in clock.ref}
        return {
            step: statistics.median(
                sum(v for (_, s), v in clock.ref.items() if s == step) for clock in self.clocks
            )
            for step in steps
        }


def layer_metrics(tracer: tracing.Tracer, since: int) -> dict[str, float]:
    """Per-layer figures of the pass recorded since ``since``."""
    times = tracer.layer_times(since)
    zero = tracing.Counter()
    gf = tracer.counters.get("gf", zero)
    rank = tracer.counters.get("matroids.rank", zero)
    metrics = {
        "gf.calls": gf.calls,
        "gf.busy_s": gf.busy_s,
        "matroids.rank_calls": rank.calls,
        "matroids.rank_cache_hit_ratio": rank.hits / rank.calls if rank.calls else 0.0,
        "matroids.rank_busy_s": rank.busy_s,
        "construct.busy_s": times.get("construct", (0, 0.0, 0.0))[1],
        "construct.self_s": times.get("construct", (0, 0.0, 0.0))[2],
        "verify.busy_s": times.get("verify", (0, 0.0, 0.0))[1],
    }
    for metric, span in STDERR_ONLY.items():
        metrics.setdefault(metric, times.get(span, (0, 0.0, 0.0))[1])
    for span, (_, _, own) in times.items():
        metrics[f"self.{span}_s"] = own
    return metrics


def measure(args, workdir: Path) -> tuple[dict, dict, Runner]:
    """Set up, run the passes, and return (metrics, details, runner)."""
    start = time.perf_counter()
    importlib.import_module("decompwidth")
    first_import_s = time.perf_counter() - start

    setups = Clock()
    for repeat in range(SETUP_REPEATS):

        def setup():
            workloads = fresh_workloads()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            for case in workload.warm:
                # failures are counted by the timed passes, which run the same code
                with contextlib.suppress(Exception):
                    workload.run(case, {}, untimed)
            return workloads, workload

        workloads, workload = setups.time(repeat, setup)
    setups.flush()

    runner = Runner(workload)
    details = {
        "first_import_s": first_import_s,
        "setup_wall_s": statistics.median(setups.wall.values()),
    }
    if not args.trace:
        passes = runner.passes(args.seconds)
        metrics = {
            "total_s": passes.seconds(),
            "large_s": passes.seconds("2n"),
            "doubling_ratio": passes.seconds("2n") / passes.seconds("n"),
            "setup_s": statistics.median(setups.ref.values()),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details["passes"] = len(passes.clocks)
        details["total_wall_s"] = passes.seconds(wall=True)
        details |= {f"step.{step}_s": v for step, v in sorted(passes.by_step().items())}
        return metrics, details, runner

    untraced = runner.passes(args.seconds / 2)
    tracer = tracing.Tracer()
    workloads.instrument(tracer)
    runner.tracer = tracer
    per_pass: list[dict[str, float]] = []
    counts: dict[str, int] = {}

    def record(mark: int, clock: Clock, outs: list[dict]) -> None:
        # layer times in reference seconds, at the pass's mean speed
        scale = sum(clock.ref.values()) / sum(clock.wall.values())
        figures = layer_metrics(tracer, mark)
        per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in figures.items()})
        if not counts and all("error" not in o for o in outs):
            tracer.enabled = False  # work_counts may call the library
            counts.update(runner.workload.work_counts(outs))
            tracer.enabled = True

    try:
        traced = runner.passes(args.seconds / 2, each=record)
    finally:
        tracer.unpatch()
    metrics = {key: statistics.median(p.get(key, 0.0) for p in per_pass) for key in per_pass[0]}
    metrics.update(counts)
    metrics["trace.overhead_s"] = traced.seconds() - untraced.seconds()
    details["passes"] = f"{len(untraced.clocks)} untraced, {len(traced.clocks)} traced"
    trace_file = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_file, workload=args.workload, seed=args.seed, per_pass=per_pass)
    details["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, details, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decompwidth" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'decompwidth'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    (BENCH / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "out"))
    try:
        metrics, details, runner = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(runner.failed.values())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        # work counts are missing only when every traced pass failed somewhere
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in listed},
    }

    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace}", file=err)
    for key, value in details.items():
        print(f"#   {key}: {value}", file=err)
    print(f"{args.workload:16} {'failed_ratio':34} {failed / runner.attempted:14.6g} ratio", file=err)
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in sorted(metrics.items()):
        note = units.get(name, "s" if name.endswith("_s") else "count")
        if name not in units:
            note += "  (stderr only)"
        print(f"{args.workload:16} {name:34} {value:14.6g} {note}", file=err)
    for where, passes in sorted(runner.failed.items()):
        print(f"# FAILED {where} in {passes} pass(es)", file=err)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
