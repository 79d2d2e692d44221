"""The benchmark's one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

Runs each workload in fresh subprocesses (``bench/child.py``), checks every
output against its reference, prints every metric by name with its unit
and, as the last line of a single-workload run, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (the
default) measures the end-to-end metrics with tracing off; ``--trace 1``
is the shorter traced run that produces the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import spec  # noqa: E402 - needs the path set above

#: Scratch space for compiled artifacts and temp files, inside the checkout.
WORK_DIR = os.path.join(_ROOT, ".bench_work")
#: A run must end within the driver's 180 s; leave room to report.
CHILD_TIMEOUT = 170.0
SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def _run_child(args, workload: str, work: str, setup_only: bool) -> dict:
    """One fresh interpreter; returns the JSON object it printed last."""
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    command = [
        sys.executable,
        os.path.join(_ROOT, "bench", "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cache-dir", os.path.join(work, "codegen"),
        "--started-at", repr(time.time()),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    # Temp files (the compiler probe, the dist segment manifests) stay in
    # the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=_ROOT, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the child and any worker it spawned
        process.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT:.0f} s")
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: subprocess exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(args, workload: str) -> dict:
    """Set-up repeats plus the measuring subprocess of one workload."""
    segments_before = _shm_segments()
    setups = []
    repeats = 1 if (args.smoke or args.trace) else spec.SETUP_REPEATS
    child: dict = {}
    try:
        for repeat in range(repeats):
            # A fresh, empty artifact directory each time: every set-up pays
            # the first-ever compiles.
            work = os.path.join(WORK_DIR, f"{os.getpid()}-{workload}-{repeat}")
            shutil.rmtree(work, ignore_errors=True)
            try:
                child = _run_child(args, workload, work, setup_only=repeat < repeats - 1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if "setup_s" in child:
                setups.append(child["setup_s"])
            elif "setup_s" in child.get("metrics", {}):
                setups.append(child["metrics"]["setup_s"])
    finally:
        try:
            os.rmdir(WORK_DIR)  # only when no other run is using it
        except OSError:
            pass

    invalid = list(child.get("invalid", []))
    # Only dist_stencil creates segments; elsewhere a new one belongs to
    # some other process on the host.
    leaked = _shm_segments() - segments_before if workload == "dist_stencil" else set()
    if leaked:
        invalid.append(f"{len(leaked)} shared-memory segment(s) leaked: {sorted(leaked)[:3]}")
    metrics = dict(child.get("metrics", {}))
    if setups and not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    defined = spec.PER_LAYER if args.trace else spec.END_TO_END
    attempted = int(child.get("attempted", 0))
    failed = int(child.get("failed", 0))
    complete = all(metric["name"] in metrics for metric in defined)
    return {
        "workload": workload,
        "result": {
            "correct": bool(complete and attempted > 0 and failed == 0 and not invalid),
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {
                metric["name"]: {
                    "value": float(metrics.get(metric["name"], 0.0)),
                    "unit": metric["unit"],
                }
                for metric in defined
            },
        },
        # Everything the subprocess measured: with tracing off that includes
        # the window's timings, which BENCHMARK.json names per layer.
        "measured": metrics,
        "rounds": child.get("rounds", {}),
        "raw": child.get("raw", {}),
        "invalid": invalid,
        "errors": child.get("errors", []),
        "setup_s_samples": setups,
        "host": child.get("host", {}),
        "spans": child.get("spans", []),
    }


def _print_report(report: dict) -> None:
    result = report["result"]
    print(f"== {report['workload']}")
    for name, metric in result["metrics"].items():
        print(f"{report['workload']:<18} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    # The untraced window's timings: per-layer names, so not in the result line.
    units = {metric["name"]: metric["unit"] for metric in spec.PER_LAYER}
    for name, value in report["measured"].items():
        if name not in result["metrics"] and name in units:
            print(f"{report['workload']:<18} {name:<40} {value:>16.6g} {units[name]} (no bound)")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{report['workload']:<18} ops attempted {attempted}, failed {failed}, "
        f"fail_ratio {failed / attempted:.6g}"
    )
    for reason in report["invalid"]:
        print(f"{report['workload']:<18} INVALID: {reason}")
    print(f"{report['workload']:<18} correct: {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, help="default: all five")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a fraction of a second")
    parser.add_argument("--out", help="write results, host stamp and spans to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(spec.RUN_SECONDS)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"bench: no program to measure: {_ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    names = (args.workload,) if args.workload else spec.WORKLOAD_NAMES
    reports = []
    for name in names:
        try:
            report = run_one(args, name)
        except (RuntimeError, ValueError, IndexError) as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        if not reports:
            print("host: " + json.dumps(report["host"], sort_keys=True))
        _print_report(report)
        reports.append(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "smoke": args.smoke, "reports": reports},
                handle,
            )  # fmt: skip
    for report in reports:
        # The last line of a single-workload run is its result object.
        print(json.dumps(report["result"] if args.workload else
                         {"workload": report["workload"], **report["result"]}))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
