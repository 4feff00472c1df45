"""Print every benchmark metric of every workload as one table.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace]

Runs perfbench/run.py once per workload listed in BENCHMARK.json (and once
more traced with ``--trace``), each in its own process, and prints one row
per metric: workload, name, value, unit.  ``failed_ratio`` is failed over
attempted operations.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), *argv, "--trace", str(trace)],
                capture_output=True,
                text=True,
            )
            if done.returncode != 0:
                print(f"{workload}: run failed\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if not trace:
                ratio = result["failed"] / result["attempted"]
                print(f"{workload:16} {'failed_ratio':30} {ratio:14.6g} ratio")
            for name, metric in result["metrics"].items():
                print(f"{workload:16} {name:30} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
