"""What runs inside one workload subprocess: set-up, the measured window, the metrics.

The parent (``bench/run.py``) starts this through ``bench/child.py`` in a
fresh interpreter per workload, so nothing one workload loads, compiles or
spawns is there for the next.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.codegen import find_c_compiler
from repro.runtime.tiling import resolve_num_threads
from repro.utils.config import Config, get_config, set_config

from bench import layers, spec
from bench.procstat import cpu_seconds, peak_rss_mib
from bench.stats import percentile, round_values
from bench.trace import NullTracer, Tracer
from bench.workloads import FULL, SMOKE, WORKLOAD_CLASSES, Window, Workload, client_threads

# --------------------------------------------------------------------------- #
# Host stamp and probes
# --------------------------------------------------------------------------- #


def host_stamp() -> dict:
    """Where these numbers came from; printed and written with every result."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def first_line(command) -> str:
        try:
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=10, cwd=repo_root
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = done.stdout.strip().splitlines()
        return lines[0] if done.returncode == 0 and lines else "unknown"

    compiler = find_c_compiler()
    config = get_config()
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity_width": len(os.sched_getaffinity(0)),
        "parallel_threads": resolve_num_threads(config),
        "codegen_threads": config.codegen_threads
        or os.environ.get("REPRO_CODEGEN_THREADS")
        or resolve_num_threads(config),
        "dist_workers": config.dist_num_workers,
        "client_threads": client_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": first_line([compiler, "--version"]) if compiler else "none",
        "commit": first_line(["git", "rev-parse", "HEAD"]),
    }


def spin_ms(iterations: int = 3_000_000) -> float:
    """A fixed pure-Python loop, timed: the same work reads slower on a busy host."""
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value
    return (time.perf_counter() - started) * 1e3


def copy_gbps(megabytes: int = 64, repeats: int = 5) -> float:
    """NumPy copy bandwidth (bytes read + written per second), best of a few."""
    source = np.ones(megabytes * (1 << 20) // 8, dtype=np.float64)
    target = np.empty_like(source)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - started)
    return 2 * source.nbytes / best / 1e9


# --------------------------------------------------------------------------- #
# One window and its guards
# --------------------------------------------------------------------------- #


class _RoundSampler(threading.Thread):
    """Samples ``(time, CPU seconds)`` at the round boundaries of a window."""

    def __init__(self, seconds: float, rounds: int) -> None:
        super().__init__(name="bench-rounds", daemon=True)
        self.seconds, self.rounds = seconds, rounds
        self.marks: list = []

    def run(self) -> None:
        start = time.perf_counter()
        for boundary in range(self.rounds + 1):
            delay = start + boundary * self.seconds / self.rounds - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.marks.append((time.perf_counter(), cpu_seconds()))


class Measured:
    """A window plus the process and cache counters taken around it."""

    def __init__(self, workload: Workload, seconds: float) -> None:
        before = workload.cache_stats()
        sampler = _RoundSampler(seconds, spec.ROUNDS)
        sampler.start()
        self.window: Window = workload.run(seconds)
        sampler.join()
        self.marks = sampler.marks
        window = self.window
        self.rounds = round_values(window.latencies_ms, window.ends, self.marks, window.pauses)
        #: Whether any op ended inside a round: without one there is no timing.
        self.usable = bool(self.rounds["op_ms"])
        after = workload.cache_stats()
        self.cache_after = after
        self.cache_delta = {key: after[key] - before.get(key, 0) for key in after}

    def invalid_reasons(self, workload: Workload) -> list:
        """Why the run does not count: the tier silently degraded.

        A degraded run is reported invalid, never merely slower.
        """
        reasons = []
        delta = self.cache_delta
        if delta.get("native_compiles", 0) > 0:
            reasons.append(f"{delta['native_compiles']} native compile(s) inside the window")
        if delta.get("native_fallbacks", 0) > 0 and workload.name in (
            "stencil_large",
            "dist_stencil",
        ):
            reasons.append(f"{delta['native_fallbacks']} native fallback(s) on a stencil")
        if delta.get("dist_payload_bytes", 0) > 0:
            reasons.append(f"{delta['dist_payload_bytes']} array payload bytes on the wire")
        if self.window.overloads:
            reasons.append(f"{self.window.overloads} ServiceOverloadError(s)")
        if not self.usable:
            reasons.append("no op completed inside the window")
        return reasons

    def raw(self) -> dict:
        """Per-op samples and round marks (times relative to the first mark)."""
        origin = self.marks[0][0]
        return {
            "latencies_ms": self.window.latencies_ms,
            "ends": [end - origin for end in self.window.ends],
            "marks": [[when - origin, cpu] for when, cpu in self.marks],
            "pauses": [[start - origin, end - origin, cpu] for start, end, cpu in self.window.pauses],
        }

    def timings(self) -> Dict[str, float]:
        """The issue's timing metrics: medians over the rounds, pooled 95th percentile."""
        rounds = self.rounds
        return {
            "op_ms_p50": statistics.median(rounds["op_ms"]),
            "op_ms_p95": percentile(self.window.latencies_ms, 0.95),
            "throughput_ops_s": statistics.median(rounds["ops_s"]),
            "cpu_ms_per_op": statistics.median(rounds["cpu_ms"]),
        }


def configure(cache_dir: str) -> None:
    """The default configuration plus the private artifact directory."""
    set_config(Config(codegen_cache_dir=cache_dir))


def make(name: str, seed: int, tracer, smoke: bool, **extra) -> Workload:
    return WORKLOAD_CLASSES[name](seed, tracer, SMOKE if smoke else FULL, **extra)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    cache_dir: str,
    started_at: float,
    setup_only: bool,
) -> dict:
    """Set up, measure and report one workload; returns the child's JSON object."""
    configure(cache_dir)
    if find_c_compiler() is None:
        return {"invalid": ["no C compiler: the native tier would silently degrade"]}
    if trace and not setup_only:
        return _run_traced(name, seed, seconds, smoke)

    workload = make(name, seed, NullTracer(), smoke)
    workload.setup()
    setup_s = time.time() - started_at
    if setup_only:
        workload.close()
        return {"setup_s": setup_s}
    measured = Measured(workload, seconds)
    window = measured.window
    invalid = measured.invalid_reasons(workload)
    metrics = measured.timings() if measured.usable else {}
    # Read at a fixed op count; at the end only if the window fell short of it.
    metrics["peak_rss_mb"] = window.peak_rss_mb or peak_rss_mib()
    metrics["setup_s"] = setup_s
    workload.close()
    return {
        "attempted": window.attempted,
        "failed": window.failed,
        "invalid": invalid,
        "errors": window.errors,
        "metrics": metrics,
        "rounds": measured.rounds,
        "raw": measured.raw(),
    }


def _run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The shorter traced run: per-layer numbers, and what tracing costs."""
    spin_before = spin_ms()
    extras: Dict[str, float] = {"host.spin_ms_before": spin_before}
    if name == "dist_stencil":
        extras["dist.pool_spawn_s"] = layers.pool_spawn_seconds()

    tracer = Tracer()
    traced = make(name, seed, tracer, smoke)
    traced.setup()
    setup_view = layers.SetupView(tracer, traced.cache_stats())
    tracer.reset()
    measured = Measured(traced, seconds * 0.4)
    service_stats = traced.service_stats()
    replays = layers.replay_plan_costs(tracer)
    invalid = measured.invalid_reasons(traced)
    traced.close()

    plain = make(name, seed, NullTracer(), smoke)
    plain.setup()
    untraced = Measured(plain, seconds * 0.3)
    invalid += untraced.invalid_reasons(plain)
    plain.close()

    baseline_seconds = seconds * 0.15
    if name == "service_tenants" and untraced.usable:
        single = make(name, seed, NullTracer(), smoke, tenants=1)
        single.setup()
        alone = Measured(single, baseline_seconds)
        invalid += alone.invalid_reasons(single)
        single.close()
        if alone.usable:
            extras["service.scaling_efficiency"] = untraced.timings()["throughput_ops_s"] / (
                plain.tenant_count * alone.timings()["throughput_ops_s"]
            )
    if name == "dist_stencil" and untraced.usable:
        native = make("stencil_large", seed, NullTracer(), smoke)
        native.setup()
        same_op = Measured(native, baseline_seconds)
        invalid += same_op.invalid_reasons(native)
        native.close()
        if same_op.usable:
            extras["dist.vs_native_ratio"] = (
                untraced.timings()["op_ms_p50"] / same_op.timings()["op_ms_p50"]
            )
    extras["host.copy_gbps"] = copy_gbps(8 if smoke else 64)
    extras["host.spin_ms_after"] = spin_ms()
    extras["host.noise_ratio"] = (
        max(spin_before, extras["host.spin_ms_after"])
        / min(spin_before, extras["host.spin_ms_after"])
        - 1.0
    )

    metrics = layers.per_layer_metrics(
        tracer, measured, untraced, setup_view, replays, service_stats, extras
    )
    windows = (measured.window, untraced.window)
    return {
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows),
        "invalid": invalid,
        "errors": [error for window in windows for error in window.errors],
        "metrics": metrics,
        "spans": [list(span) for span in setup_view.spans + tracer.spans],
    }


def child_main(argv: Optional[list] = None) -> int:
    """Entry point of ``bench/child.py``: one JSON object on the last stdout line."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description="one workload, in this process")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--started-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        args.cache_dir,
        args.started_at,
        args.setup_only,
    )
    if not args.setup_only:
        result["host"] = host_stamp()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
