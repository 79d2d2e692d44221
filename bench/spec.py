"""Names, units and directions of everything the benchmark reports.

``BENCHMARK.json`` at the repository root is the contract the driver reads,
and this module reads it too: workloads, metric names, units, directions,
bounds and the run length exist only there.  What the driver's schema has
no room for is kept here: the layer each per-layer metric belongs to, the
metric and workload it should move, how a run is cut up, and the seeds.
"""

from __future__ import annotations

import json
import os

with open(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
    "r",
    encoding="utf-8",
) as _handle:
    CONTRACT = json.load(_handle)

#: Seconds one run measures.
RUN_SECONDS = CONTRACT["run_seconds"]
#: Equal time slices a measured window is cut into (one second each at
#: ``RUN_SECONDS``).
ROUNDS = 15
#: Fresh subprocesses that each perform the whole set-up; ``setup_s`` is
#: the median of theirs, the last one goes on to measure.
SETUP_REPEATS = 3
#: The seed used while the benchmark was written, and one held out for
#: checking that a later claim does not depend on it.
DEFAULT_SEED = 20160912
HELD_OUT_SEED = 7919

PASS_NAMES = (
    "identity_simplify",
    "constant_merge",
    "power_expansion",
    "linear_solve",
    "copy_propagation",
    "dce",
    "fusion",
)

WORKLOADS = tuple((entry["name"], entry["why"]) for entry in CONTRACT["workloads"])
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
END_TO_END = tuple(CONTRACT["end_to_end"])


def _layer(layer, moves, *names):
    return {name: (layer, moves) for name in names}


#: Per-layer metric -> (its layer, the end-to-end metric and workload it should move).
_LAYER_AND_MOVES = {
    **_layer(
        "frontend",
        "op_ms_p50 on flush_storm_small",
        "frontend.record_ms_per_op",
        "frontend.bytecodes_per_op",
    ),
    **_layer(
        "runtime.plan",
        "op_ms_p50 on flush_storm_small",
        "plan.fingerprint_ms_per_op",
        "plan.bind_ms_per_op",
    ),
    **_layer(
        "runtime.plan",
        "op_ms_p50 on service_tenants",
        "plan.hit_ratio",
        "plan.builds",
        "plan.waits",
        "plan.evictions",
    ),
    **_layer(
        "runtime.engine",
        "op_ms_p50, cpu_ms_per_op on flush_storm_small",
        "engine.execute_ms_per_op",
        "engine.self_ms_per_op",
        "engine.plan_stage_ms_per_op",
    ),
    **_layer(
        "core",
        "op_ms_p50 on cold_programs, service_tenants",
        "core.optimize_ms_per_miss",
        *[f"core.pass.{name}.ms_per_miss" for name in PASS_NAMES],
        *[f"core.pass.{name}.rewrites" for name in PASS_NAMES],
        "core.fixed_point_iterations",
    ),
    **_layer(
        "core",
        "op_ms_p50 on cold_programs, service_tenants, stencil_large",
        "core.bytecodes_after_over_before",
    ),
    **_layer(
        "runtime.memplan",
        "op_ms_p50 on cold_programs",
        "memplan.attach_ms_per_miss",
    ),
    **_layer(
        "runtime.memory",
        "peak_rss_mb everywhere, op_ms_p50 on stencil_large",
        "memory.pool_hit_ratio",
        "memory.pool_bytes_reused_per_op",
        "memory.actual_peak_bytes",
        "memory.planned_peak_bytes",
    ),
    **_layer(
        "runtime.tiling",
        "op_ms_p50 on cold_programs (time), stencil_large (counts)",
        "tiling.decompose_ms_per_miss",
        "tiling.tiles_per_op",
        "tiling.serial_fallbacks_per_op",
    ),
    **_layer(
        "runtime.parallel/native",
        "op_ms_p50 on cold_programs, setup_s everywhere",
        "backend.prepare_ms_per_miss",
    ),
    **_layer(
        "runtime.parallel/native",
        "op_ms_p50, throughput_ops_s on stencil_large",
        "backend.execute_ms_per_op",
        "backend.kernel_ms_per_op",
        "backend.kernel_launches_per_op",
        "backend.threads_used",
        "backend.bytes_moved_per_op",
        "backend.achieved_gbps",
        "host.copy_gbps",
    ),
    **_layer(
        "codegen",
        "setup_s on cold_programs",
        "native.compiles",
        "native.disk_hits",
        "native.memory_hits",
        "codegen.compile_s_per_kernel",
    ),
    **_layer(
        "codegen",
        "op_ms_p50 on stencil_large, service_tenants",
        "native.launches_per_op",
        "native.mt_launches_per_op",
        "native.fallback_ratio",
        "native.reduction_fallbacks",
    ),
    **_layer("dist", "setup_s on dist_stencil", "dist.pool_spawn_s"),
    **_layer(
        "dist",
        "op_ms_p50, cpu_ms_per_op on dist_stencil only",
        "dist.shard_launches_per_op",
        "dist.halo_exchanges_per_op",
        "dist.halo_bytes_per_op",
        "dist.control_frames_per_op",
        "dist.control_bytes_per_op",
        "dist.bytes_migrated_per_op",
        "dist.payload_bytes",
        "dist.workers_used",
        "dist.vs_native_ratio",
    ),
    **_layer(
        "service",
        "throughput_ops_s, op_ms_p95 on service_tenants",
        "service.session_overhead_ms_per_op",
        "service.admission_waits",
        "service.rejected",
        "service.peak_inflight",
        "service.pool_contentions",
        "service.scaling_efficiency",
    ),
    **_layer(
        "bench",
        "nothing: the issue's end-to-end timings, unbounded because they do not repeat on the building host",
        "op_ms_p50",
        "throughput_ops_s",
        "cpu_ms_per_op",
        "op_ms_p95",
        "op_ms_p95_samples",
    ),
    **_layer(
        "bench",
        "nothing: they qualify the run itself",
        "trace.overhead_ratio",
        "trace.op_self_share",
        "host.spin_ms_before",
        "host.spin_ms_after",
        "host.noise_ratio",
    ),
}
PER_LAYER = tuple(
    dict(metric, layer=_LAYER_AND_MOVES[metric["name"]][0], moves=_LAYER_AND_MOVES[metric["name"]][1])
    for metric in CONTRACT["per_layer"]
)
PER_LAYER_NAMES = tuple(metric["name"] for metric in PER_LAYER)
END_TO_END_NAMES = tuple(metric["name"] for metric in END_TO_END)
