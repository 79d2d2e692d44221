"""E13 — liveness-driven memory planning on repeated-flush workloads.

The plan cache (E11) removed the per-flush optimizer cost and tiling (E12)
parallelized the arithmetic; what remains of the middleware overhead on
iterative workloads is *allocation*: every flush used to zero-fill a fresh
host allocation for every temporary and hand freed buffers straight back
to the OS.  The memory planning subsystem attacks both ends:

* the :class:`~repro.runtime.memory.BufferPool` recycles freed buffers
  across flushes, so steady-state iterations perform (almost) no host
  allocations at all, and
* the plan-time :class:`~repro.runtime.memplan.MemoryPlan` aliases
  temporaries with disjoint lifetimes onto shared slots and waives
  provably unnecessary zero fills, cutting the peak footprint of a batch
  below what a naive allocator needs.

The workload batches several Jacobi heat-equation steps per flush (no
intermediate observation), so temporaries are defined *and* become dead
within one program — the situation the slot allocator exploits — then
repeats the flush many times to exercise pool recycling.  All acceptance
assertions are on deterministic allocation counters and planned byte
sizes; wall-clock is reported but only soft-warned on, keeping the suite
robust on noisy CI hosts.
"""

import warnings

from repro.frontend import flush as frontend_flush
from repro.frontend import zeros
from repro.frontend.session import Session, reset_session
from repro.utils.config import config_override
from repro.workloads import heat_equation

from conftest import record_table

GRID = 64
STEPS_PER_FLUSH = 6
FLUSHES = 15


def _heat_batch(work):
    """Several Jacobi iterations recorded lazily, flushed as one batch."""
    for _ in range(STEPS_PER_FLUSH):
        up = work[0:-2, 1:-1]
        down = work[2:, 1:-1]
        left = work[1:-1, 0:-2]
        right = work[1:-1, 2:]
        interior = (up + down + left + right) * 0.25
        next_grid = work.copy()
        next_grid[1:-1, 1:-1] = interior
        work = next_grid
    return work


def _run(memory_planning: bool):
    overrides = dict(
        memory_plan_enabled=memory_planning,
        memory_pool_max_bytes=(1 << 26) if memory_planning else 0,
    )
    with config_override(**overrides):
        session = reset_session(backend="interpreter", optimize=True)
        grid = zeros((GRID, GRID))
        grid[0, :] = 100.0
        grid[-1, :] = 100.0
        work = grid
        for _ in range(FLUSHES):
            work = _heat_batch(work)
            frontend_flush()
        checksum = float(work.to_numpy().sum())
        stats = session.total_stats()
        return {
            "checksum": checksum,
            "session": session,
            "stats": stats,
            "host_allocations": session.memory.host_allocations,
            "allocation_count": session.memory.allocation_count,
            "wall_s": sum(s.wall_time_seconds for s in session.stats_history),
        }


def test_memory_planning_cuts_allocations_and_peak(benchmark):
    """Planning on vs. off: >= 2x fewer host allocations, smaller planned peak."""

    def run():
        return _run(memory_planning=True), _run(memory_planning=False)

    planned, unplanned = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E13 memory planning"

    # Results are bitwise identical with planning on and off: zero fills
    # are only waived where liveness proves no uninitialised read.
    assert planned["checksum"] == unplanned["checksum"]

    planned_stats = planned["stats"]
    unplanned_stats = unplanned["stats"]
    record_table(
        benchmark,
        f"E13: {FLUSHES} flushes x {STEPS_PER_FLUSH} heat steps, {GRID}x{GRID} grid",
        [
            {
                "mode": "planned+pool",
                "host_allocs": planned["host_allocations"],
                "pool_hits": planned_stats.pool_hits,
                "bytes_reused": planned_stats.pool_bytes_reused,
                "peak_bytes": planned_stats.actual_peak_bytes,
                "wall_s": planned["wall_s"],
            },
            {
                "mode": "unplanned",
                "host_allocs": unplanned["host_allocations"],
                "pool_hits": unplanned_stats.pool_hits,
                "bytes_reused": unplanned_stats.pool_bytes_reused,
                "peak_bytes": unplanned_stats.actual_peak_bytes,
                "wall_s": unplanned["wall_s"],
            },
        ],
        ["mode", "host_allocs", "pool_hits", "bytes_reused", "peak_bytes", "wall_s"],
    )

    # Acceptance: the recycling pool must cut host allocations by >= 2x.
    # (Measured: ~10x — only the first flush allocates; the counters are
    # deterministic, so the bound is exact, not statistical.)
    assert planned["host_allocations"] * 2 <= unplanned["host_allocations"]
    # Every materialization still happened — reuse, not skipped work.
    assert planned["allocation_count"] == unplanned["allocation_count"]
    assert planned_stats.pool_hits > 0
    assert planned_stats.pool_bytes_reused > 0

    # Acceptance: the planner's slot aliasing must put the planned peak
    # below the unplanned baseline for the batched program, and the
    # measured high-water mark must follow it down.
    session = planned["session"]
    plans = [
        plan
        for plan in (session.engine.last_plan,)
        if plan is not None and plan.memory_plan is not None
    ]
    assert plans, "no memory plan was attached"
    # total_stats keeps the max planned/actual peaks across flushes.
    assert planned_stats.planned_peak_bytes > 0
    assert planned_stats.planned_peak_bytes < unplanned_stats.actual_peak_bytes
    assert planned_stats.actual_peak_bytes < unplanned_stats.actual_peak_bytes

    # Wall-clock: reuse should not be slower; warn (don't fail) on noise.
    if planned["wall_s"] > unplanned["wall_s"] * 1.25:
        warnings.warn(
            f"memory planning slower than baseline: {planned['wall_s']:.4f}s vs "
            f"{unplanned['wall_s']:.4f}s (noisy host?)",
            stacklevel=1,
        )


def test_memory_plan_aliases_batch_temporaries(benchmark):
    """The batched flush's plan folds dead temporaries onto shared slots."""

    def run():
        return _run(memory_planning=True)

    planned = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E13 memory planning"
    session = planned["session"]

    # Find the big batch's plan in the cache (the trailing free-only flush
    # may own last_plan): pick the plan with the most aliasing.
    plans = [
        plan for plan in session.engine.plan_cache.values()
        if plan.memory_plan is not None
    ]
    assert plans
    best = max(plans, key=lambda plan: plan.memory_plan.aliased_bases)
    memory_plan = best.memory_plan
    record_table(
        benchmark,
        "E13: slot aliasing in the batched heat-step plan",
        [memory_plan.stats()],
        [
            "memory_plan_bases",
            "memory_plan_slots",
            "memory_plan_aliased_bases",
            "memory_plan_zero_fills_waived",
            "memory_plan_planned_peak_bytes",
            "memory_plan_unplanned_peak_bytes",
        ],
    )
    # Deterministic structural assertions: temporaries were aliased, zero
    # fills were waived, and the planned peak undercuts the naive layout.
    assert memory_plan.aliased_bases >= 2
    assert memory_plan.num_slots >= 1
    assert memory_plan.zero_fills_waived >= 1
    assert memory_plan.planned_peak_bytes < memory_plan.unplanned_peak_bytes


def test_a_stencil_step_writes_its_result_where_it_is_going(benchmark, tmp_path):
    """The warm ``stencil_large`` flush holds two grids and launches ten kernels.

    Store forwarding retargets each step's fused kernel at the next grid's
    interior (no interior temporary, no second copy launch), the session
    frees the previous result before the flush allocates, and the result is
    born in the ping-pong slot that died one step earlier: of five live
    arrays (57 561 632 bytes, 14 launches) once, the two plan slots remain
    and the result leaves the flush owning one of them.  Counters only.
    """
    grid, steps = 1200, 4

    def run():
        with config_override(codegen_cache_dir=str(tmp_path / "codegen")):
            session = Session(backend="native", optimize=True)
            # The second flush is the first to free a previous result,
            # the third replays its plan.
            for _ in range(3):
                out = heat_equation(grid, steps, session=session).to_numpy()
        return out, session

    out, session = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E13 memory planning"
    stats = session.stats_history[-1]
    forwarded = sum(
        run.rewrites_applied for run in session.last_report.stats_for("copy_propagation")
    )
    record_table(
        benchmark,
        f"E13: warm heat_equation({grid}, {steps}) flush on native",
        [
            {
                "peak_bytes": stats.actual_peak_bytes,
                "kernel_launches": stats.kernel_launches,
                "stores_forwarded": forwarded,
                "byte_codes": len(session.last_report.optimized),
            }
        ],
        ["peak_bytes", "kernel_launches", "stores_forwarded", "byte_codes"],
    )
    assert stats.plan_cache_hits == 1
    assert forwarded == steps
    assert stats.actual_peak_bytes == 2 * grid * grid * 8 == 23_040_000
    assert stats.kernel_launches == 10
    memory_plan = session.engine.last_plan.memory_plan
    assert memory_plan.adopted_bases == 1 and memory_plan.num_slots == 2
    assert memory_plan.planned_peak_bytes <= 160_819_584
    oracle = Session(backend="interpreter", optimize=False)
    assert out.tobytes() == heat_equation(grid, steps, session=oracle).to_numpy().tobytes()


def test_a_reduction_reads_its_producers_values(benchmark, tmp_path):
    """Warm ``monte_carlo_pi(200 000)`` holds x, y and two scalars — no mask.

    ``sum(inside * 1.0)`` closes the kernel that computes ``inside``: the
    float64 mask (1 600 000 bytes; PR 21 had to materialise it again) and
    the four temporaries before it live in registers, span scratch or a
    worker's scratch, never in the memory manager or in shared memory, and
    the reduction is no launch of its own (5 -> 4).  The peak is 3 200 016,
    not 3 200 008: the reduction's result is now born in the kernel that
    last reads ``x``, so it can no longer take ``x``'s slot.  Counters only.
    """
    from repro.workloads import monte_carlo_pi

    samples = 200_000
    tiers = [("parallel", {}), ("native", {}), ("dist", {"dist_num_workers": 1}),
             ("dist", {"dist_num_workers": 2})]

    def run():
        rows = []
        for backend, overrides in tiers:
            with config_override(codegen_cache_dir=str(tmp_path / "codegen"), **overrides):
                session = Session(backend=backend, optimize=True)
                for _ in range(3):
                    monte_carlo_pi(samples, session=session).to_numpy()
                rows.append((backend, overrides, session))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E13 memory planning"
    table = []
    for backend, overrides, session in rows:
        stats = session.stats_history[-1]
        plan = session.engine.last_plan
        table.append(
            {
                "tier": backend + "".join(f" {v}w" for v in overrides.values()),
                "peak_bytes": stats.actual_peak_bytes,
                "kernel_launches": stats.kernel_launches,
                "slots_elided": stats.native_slots_elided + stats.template_slots_elided,
            }
        )
        assert stats.plan_cache_hits == 1
        assert stats.actual_peak_bytes == 2 * samples * 8 + 16 == 3_200_016, backend
        assert stats.kernel_launches == 4, backend
        assert plan.fusion_schedule.reduction_tails == 1
        assert stats.native_fallbacks == 0
        if backend == "native":
            # The kernel's members are one compiled map form; NumPy folds
            # the mask it stores in span scratch.
            assert stats.native_kernel_launches == 1 and stats.native_slots_elided == 5
        if backend == "dist":
            assert stats.dist_payload_bytes == 0
            # Five bases — the mask among them — have no segment for the
            # ``map`` frame to name; x, y and the two scalars do.
            assert len(plan.dist_plan.private_positions) == 5
            assert stats.template_slots_elided == 5 * stats.dist_shard_launches
    record_table(
        benchmark,
        f"E13: warm monte_carlo_pi({samples}) flush",
        table,
        ["tier", "peak_bytes", "kernel_launches", "slots_elided"],
    )
