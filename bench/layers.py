"""Per-layer metrics: spans and public counters turned into the named numbers.

Times come from the spans ``bench/trace.py`` records; counts come from the
library's public ``ExecutionStats``, ``engine.cache_stats()`` and
``service.stats()``.  Pure public functions (fingerprinting, plan binding,
memory planning, tile decomposition) are *replayed* on the plans the
window executed, after the window, so they cost the measured ops nothing.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Optional

from repro.bytecode.base import BaseArray
from repro.dist.backend import WorkerPool
from repro.runtime.instrumentation import ExecutionStats
from repro.runtime.memplan import attach_memory_plan
from repro.runtime.plan import ExecutionPlan, canonical_program_key, fingerprint_of_key
from repro.runtime.tiling import decompose
from repro.utils.config import get_config

from bench import spec
from bench.stats import self_times

#: Distinct plans replayed per window; more are sampled evenly and scaled.
_REPLAY_PLANS = 32
_REPLAY_REPEATS = 3


def pool_spawn_seconds() -> float:
    """Spawn (and stop) one worker pool of the default size, timed."""
    started = time.perf_counter()
    pool = WorkerPool(max(1, int(get_config().dist_num_workers)))
    elapsed = time.perf_counter() - started
    pool.shutdown()
    return elapsed


def span_seconds(spans) -> Dict[str, float]:
    """Total duration per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[1]] = totals.get(span[1], 0.0) + span[3] - span[2]
    return totals


class SetupView:
    """What set-up recorded, kept before the tracer is reset for the window."""

    def __init__(self, tracer, cache_stats: Dict[str, int]) -> None:
        self.spans = list(tracer.spans)
        self.prepare_seconds = span_seconds(self.spans).get("backend.prepare_plan", 0.0)
        self.compiles = cache_stats.get("native_compiles", 0)


def _median_seconds(call) -> float:
    samples = []
    for _ in range(_REPLAY_REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def replay_plan_costs(tracer) -> Dict[str, float]:
    """Replay the pure plan-stage functions on the plans the window executed."""
    records = [record for record in tracer.plans.values() if record[1] > 0]
    stride = max(1, len(records) // _REPLAY_PLANS)
    sampled = records[::stride]
    fingerprint_s = bind_s = attach_s = decompose_s = 0.0
    uses = hit_uses = built = 0
    for plan, executions, was_built in sampled:
        source = plan.report.original

        def fingerprint():
            key, _ = canonical_program_key(source)
            fingerprint_of_key(key)

        fingerprint_s += executions * _median_seconds(fingerprint)
        uses += executions
        hits = executions - 1 if was_built else executions
        if hits:
            fresh = tuple(BaseArray(base.nelem, base.dtype) for base in plan.source_bases)
            bind_s += hits * _median_seconds(lambda: plan.bind(fresh))
            hit_uses += hits
        if was_built:

            def attach():
                attach_memory_plan(
                    ExecutionPlan(
                        fingerprint=plan.fingerprint,
                        backend_name=plan.backend_name,
                        source_bases=plan.source_bases,
                        optimized=plan.optimized,
                    )
                )

            attach_s += _median_seconds(attach)
            decompose_s += _median_seconds(lambda: decompose(plan.optimized))
            built += 1
    return {
        # Seconds per executed op / per hit / per miss, over the sample.
        "fingerprint_s_per_op": fingerprint_s / uses if uses else 0.0,
        "bind_s_per_hit": bind_s / hit_uses if hit_uses else 0.0,
        "attach_s_per_miss": attach_s / built if built else 0.0,
        "decompose_s_per_miss": decompose_s / built if built else 0.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer,
    traced,
    untraced,
    setup: SetupView,
    replays: Dict[str, float],
    service_stats: Optional[dict],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every name in ``spec.PER_LAYER``; 0 where a layer is not on this workload's path."""
    spans = tracer.spans
    window = traced.window
    ops = window.attempted
    total = ExecutionStats()
    for stats in tracer.stats:
        total.merge(stats)
    hits, misses = total.plan_cache_hits, total.plan_cache_misses
    cache = traced.cache_delta

    def ms_per_op(seconds: float) -> float:
        return _ratio(seconds * 1e3, ops)

    def ms_per_miss(seconds: float) -> float:
        return _ratio(seconds * 1e3, misses)

    by_name = span_seconds(spans)
    flush_s = by_name.get("flush", 0.0)
    optimize_s = by_name.get("core.optimize", 0.0)
    prepare_s = by_name.get("backend.prepare_plan", 0.0)
    execute_s = by_name.get("backend.execute", 0.0)
    plan_stage_s = total.plan_time_seconds
    engine_s = plan_stage_s + execute_s

    own = self_times(spans)
    op_self_seconds = sum(own[span[0]] for span in spans if span[1] == "op")

    metrics: Dict[str, float] = {name: 0.0 for name in spec.PER_LAYER_NAMES}
    metrics.update(
        {
            "frontend.record_ms_per_op": ms_per_op(by_name.get("frontend.record", 0.0)),
            "frontend.bytecodes_per_op": _ratio(window.bytecodes, ops),
            "plan.fingerprint_ms_per_op": replays["fingerprint_s_per_op"] * 1e3,
            "plan.bind_ms_per_op": replays["bind_s_per_hit"] * 1e3 * _ratio(hits, ops),
            "plan.hit_ratio": _ratio(hits, hits + misses),
            "plan.builds": cache.get("plan_builds", 0),
            "plan.waits": cache.get("plan_waits", 0),
            "plan.evictions": cache.get("plan_cache_evictions", 0),
            # The engine has no span of its own (it is built inside Session
            # and ArrayService): its time is its public plan-stage clock plus
            # the backend span it calls next; its self time is the plan stage
            # minus the optimizer and backend-preparation spans inside it.
            "engine.execute_ms_per_op": ms_per_op(engine_s),
            "engine.self_ms_per_op": ms_per_op(plan_stage_s - optimize_s - prepare_s),
            "engine.plan_stage_ms_per_op": ms_per_op(plan_stage_s),
            "core.optimize_ms_per_miss": ms_per_miss(optimize_s),
            "memplan.attach_ms_per_miss": replays["attach_s_per_miss"] * 1e3,
            "memory.pool_hit_ratio": _ratio(total.pool_hits, total.pool_hits + total.pool_misses),
            "memory.pool_bytes_reused_per_op": _ratio(total.pool_bytes_reused, ops),
            "memory.actual_peak_bytes": total.actual_peak_bytes,
            "memory.planned_peak_bytes": total.planned_peak_bytes,
            "tiling.decompose_ms_per_miss": replays["decompose_s_per_miss"] * 1e3,
            "tiling.tiles_per_op": _ratio(total.tiles_executed, ops),
            "tiling.serial_fallbacks_per_op": _ratio(total.serial_fallbacks, ops),
            "backend.prepare_ms_per_miss": ms_per_miss(prepare_s),
            "backend.execute_ms_per_op": ms_per_op(execute_s),
            "backend.kernel_ms_per_op": ms_per_op(total.wall_time_seconds),
            "backend.kernel_launches_per_op": _ratio(total.kernel_launches, ops),
            "backend.threads_used": total.threads_used,
            # Computed from operand view sizes, not measured traffic.
            "backend.bytes_moved_per_op": _ratio(total.total_bytes, ops),
            "backend.achieved_gbps": _ratio(total.total_bytes / 1e9, total.wall_time_seconds),
            # Compile outcomes since process start: they are set-up's cost.
            "native.compiles": traced.cache_after.get("native_compiles", 0),
            "native.disk_hits": traced.cache_after.get("native_disk_hits", 0),
            "native.memory_hits": traced.cache_after.get("native_memory_hits", 0),
            "codegen.compile_s_per_kernel": _ratio(setup.prepare_seconds, setup.compiles),
            "native.launches_per_op": _ratio(total.native_kernel_launches, ops),
            "native.mt_launches_per_op": _ratio(total.native_mt_launches, ops),
            "native.fallback_ratio": _ratio(
                total.native_fallbacks, total.native_fallbacks + total.native_kernel_launches
            ),
            "native.reduction_fallbacks": total.native_reduction_fallbacks,
            "dist.shard_launches_per_op": _ratio(total.dist_shard_launches, ops),
            "dist.halo_exchanges_per_op": _ratio(total.dist_halo_exchanges, ops),
            "dist.halo_bytes_per_op": _ratio(total.dist_halo_bytes, ops),
            "dist.control_frames_per_op": _ratio(total.dist_control_frames, ops),
            "dist.control_bytes_per_op": _ratio(total.dist_control_bytes, ops),
            "dist.bytes_migrated_per_op": _ratio(total.dist_bytes_migrated, ops),
            "dist.payload_bytes": total.dist_payload_bytes,
            "dist.workers_used": total.dist_workers_used,
            # What the session (and, in the service, guard + admission) adds
            # around the engine.
            "service.session_overhead_ms_per_op": ms_per_op(flush_s - engine_s),
            "trace.op_self_share": _ratio(op_self_seconds, by_name.get("op", 0.0)),
        }
    )

    # Optimizer passes: time per miss from the spans, rewrites from the
    # reports of the plans the window executed (hits replay a report).
    executed = [record for record in tracer.plans.values() if record[1] > 0]
    executions = sum(record[1] for record in executed)
    before = after = iterations = 0
    rewrites = {name: 0 for name in spec.PASS_NAMES}
    for plan, count, _ in executed:
        report = plan.report
        before += count * report.instructions_before
        after += count * report.instructions_after
        iterations += count * report.iterations
        for pass_stats in report.pass_stats:
            if pass_stats.pass_name in rewrites:
                rewrites[pass_stats.pass_name] += count * pass_stats.rewrites_applied
    for name in spec.PASS_NAMES:
        metrics[f"core.pass.{name}.ms_per_miss"] = ms_per_miss(
            by_name.get(f"core.pass.{name}", 0.0)
        )
        metrics[f"core.pass.{name}.rewrites"] = _ratio(rewrites[name], executions)
    metrics["core.fixed_point_iterations"] = _ratio(iterations, executions)
    metrics["core.bytecodes_after_over_before"] = _ratio(after, before)

    if service_stats is not None:
        admission = service_stats["admission"]
        metrics["service.admission_waits"] = admission["waits"]
        metrics["service.rejected"] = (
            admission["rejected_tenant_cap"] + admission["rejected_timeout"]
        )
        metrics["service.peak_inflight"] = admission["peak_inflight"]
        metrics["service.pool_contentions"] = service_stats["pool"]["pool_lock_contentions"]

    # End-to-end numbers are measured with tracing off; the traced window
    # only adds what tracing costs.
    if untraced.usable:
        plain = untraced.timings()
        for name in ("op_ms_p50", "throughput_ops_s", "cpu_ms_per_op", "op_ms_p95"):
            metrics[name] = plain[name]
        metrics["op_ms_p95_samples"] = untraced.window.attempted
        if traced.usable:
            metrics["trace.overhead_ratio"] = traced.timings()["op_ms_p50"] / plain["op_ms_p50"] - 1.0
    metrics.update(extras)
    return metrics
