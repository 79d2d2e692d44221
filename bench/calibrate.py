"""Run the benchmark ten times per workload and record how far it repeats.

    python3 bench/calibrate.py --out bench/calibration/set-1.json [--first-seed 1]

Each run uses another seed.  The workloads take turns, run by run, so that
a slow phase of the host, which can last minutes, falls on every workload's
set rather than on the whole set of one.  For every metric the record holds
the values, their median and quartiles, and the spread the driver computes:
the distance between the first and third quartile as a share of the
median.  The committed sets under ``bench/calibration/`` fix every bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import spec  # noqa: E402 - needs the path set above
from bench.stats import spread  # noqa: E402

#: Runs per workload in one set: what the driver makes.
RUNS = 10


def summarize(values: list) -> dict:
    first, median, third = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "q1": first,
        "median": median,
        "q3": third,
        "spread": spread(values) if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    record: dict = {"runs": RUNS, "workloads": {}}
    taken = {
        name: {"incorrect_runs": 0, "walls": [], "rounds": [], "values": {}}
        for name in spec.WORKLOAD_NAMES
    }
    for run in range(RUNS):
        for name, mine in taken.items():
            started = time.perf_counter()
            with tempfile.TemporaryDirectory() as scratch:
                out = os.path.join(scratch, "run.json")
                subprocess.run(
                    [sys.executable, os.path.join(_ROOT, "bench", "run.py"),
                     "--workload", name, "--seed", str(args.first_seed + run), "--out", out],
                    check=True, stdout=subprocess.DEVNULL,
                )  # fmt: skip
                with open(out, "r", encoding="utf-8") as handle:
                    report = json.load(handle)["reports"][0]
            mine["walls"].append(time.perf_counter() - started)
            record["host"] = report["host"]
            mine["incorrect_runs"] += not report["result"]["correct"]
            mine["rounds"].append(report["rounds"])
            for metric, value in report["measured"].items():
                mine["values"].setdefault(metric, []).append(value)
        print(f"run {run + 1} of {RUNS} done", flush=True)
    for name, mine in taken.items():
        metrics = {metric: summarize(series) for metric, series in mine["values"].items()}
        wall = statistics.median(mine["walls"])
        record["workloads"][name] = {
            "incorrect_runs": mine["incorrect_runs"],
            "wall_seconds_per_run": wall,
            "rounds": mine["rounds"],
            "metrics": metrics,
        }
        spreads = {metric: round(summary["spread"], 4) for metric, summary in metrics.items()}
        print(f"{name}: wall {wall:.1f} s/run, spreads {spreads}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
