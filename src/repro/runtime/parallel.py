"""The tiled, multi-threaded shared-memory backend.

Executes an optimized program step-by-step following a plan-time
:class:`~repro.runtime.tiling.TileDecomposition`:

* tiled element-wise / fused steps launch one compiled
  :class:`~repro.runtime.kernel.KernelTemplate` per tile over row-sliced
  views — independent tiles are distributed over a persistent
  ``ThreadPoolExecutor``; a tile is the work of one thread task, and the
  template walks it in cache-sized blocks, all byte-codes per block, with
  the kernel's local slots in block scratch instead of memory,
* tiled reductions either write disjoint output slices directly (n-D
  inputs, bit-identical to the serial reduction) or tree-combine per-tile
  partial results (full 1-D reductions),
* everything non-splittable — generators, dense linear algebra, system
  directives — falls back to the reference interpreter, serially and in
  program order.

Thread-safety model: tiles of one step write disjoint row blocks of NumPy
buffers, every base is allocated *before* tiles are submitted (so workers
never mutate the memory manager), and steps are separated by a join —
cross-step dependencies therefore never race.  NumPy releases the GIL on
large-buffer loops, so worker threads genuinely overlap on multi-core
hosts; on a single core the backend still wins by keeping each block's
working set cache-resident across all fused operations instead of
streaming full arrays once per byte-code.

The tile decomposition itself is computed **once at plan time** (see
:meth:`prepare_plan`) and cached inside the
:class:`~repro.runtime.plan.ExecutionPlan`, so warm flushes through the
engine's plan cache pay zero re-tiling cost.  A plan-less
:meth:`~ParallelBackend.execute` is not a second implementation: it wraps
the program in an ordinary plan, kept in a backend-owned
:class:`~repro.runtime.plan.PlanCache`, and runs it through
:meth:`~ParallelBackend.execute_plan`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.bytecode.instruction import Instruction
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.runtime.backend import Backend, fresh_memory
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime import interpreter
from repro.runtime.kernel import KERNEL_CACHE_CAPACITY, cached_kernel_launch, split_tail
from repro.runtime.memory import MemoryManager
from repro.runtime.memplan import bind_memory_plan
from repro.runtime.plan import (
    ExecutionPlan,
    PlanCache,
    canonical_program_walk,
    config_signature,
    fingerprint_of_key,
)
from repro.runtime.tiling import (
    SerialStep,
    TiledMapStep,
    TiledReduceStep,
    TileSpan,
    combine_partials,
    decompose,
    partition_length,
    reduce_tile,
    slice_view,
    span_producer,
)
from repro.utils.config import Config
from repro.utils.locking import ContendedLock
from repro.utils.lru import BoundedLRU


class ParallelBackend(Backend):
    """Tiled multi-threaded executor with plan-time tile decomposition."""

    name = "parallel"

    def __init__(self) -> None:
        # One persistent pool per thread count a flush asked for: a flush
        # holding one pool may still be submitting to it when another asks
        # for a different count, so no pool is shut down before ``close``.
        self._pools: Dict[int, ThreadPoolExecutor] = {}
        self._interpreter = interpreter.NumPyInterpreter()
        # Interpreted kernel templates by structural key; reported as
        # ``tile_template_*``.
        self._templates = BoundedLRU(KERNEL_CACHE_CAPACITY)
        # Plans for programs handed to ``execute`` without one; reported as
        # ``tiling_cache_*``.
        self._adhoc_plans = PlanCache()
        # Covers pool construction and the cumulative counters: concurrent
        # sessions sharing this instance mutate them only under it.
        self._cache_lock = ContendedLock()
        # The cumulative record ``cache_stats`` reports from: every flush's
        # record is added to it once, under the cache lock, when the flush
        # ends — also when it raises.
        self._totals = ExecutionStats(backend_name=self.name)

    # ------------------------------------------------------------------ #
    # Thread pool
    # ------------------------------------------------------------------ #

    def _executor(self, threads: int) -> ThreadPoolExecutor:
        """The persistent pool of ``threads`` workers, made on first use."""
        with self._cache_lock:
            pool = self._pools.get(threads)
            if pool is None:
                pool = self._pools[threads] = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-tile"
                )
            return pool

    def close(self) -> None:
        """Shut down every worker pool (idempotent; new ones are made on demand)."""
        with self._cache_lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Plan integration
    # ------------------------------------------------------------------ #

    def prepare_plan(self, plan) -> None:
        """Compute the tile decomposition once, at plan time.

        The engine calls this when a plan is compiled (or primed); the
        decomposition is structural, so it stays valid for every rebound
        replay of the plan — warm flushes skip re-tiling entirely.  It is
        computed under ``plan.config``: the engine keys the plan by it.
        """
        super().prepare_plan(plan)  # liveness-driven memory plan
        plan.tiling = decompose(plan.optimized, plan.config)

    def execute_plan(
        self, plan, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Execute a bound program with its plan's decomposition and config."""
        memory = memory if memory is not None else fresh_memory(plan.config)
        bind_memory_plan(plan, program, memory)
        return self._run(program, plan, memory)

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Execute without a plan, by building (or replaying) an ordinary one.

        Plan-less programs have not been through the optimizer's fusion
        pass, so the backend runs the shared fusion-scheduling seam itself
        and plans the scheduled program exactly as the engine plans an
        optimized one: :meth:`prepare_plan` attaches the same artifacts,
        :meth:`execute_plan` runs them.  Repeated flushes of one structure
        (whatever their seeds) pay only the linear rebind.  Concurrent first
        executions of one fingerprint may both build; the later ``put`` wins,
        which is benign.  The live configuration is read once, here, and
        keys the plan exactly as the engine keys its own.
        """
        from repro.core.schedule import compute_schedule

        config = self.flush_config()
        key, bases, values = canonical_program_walk(program)
        fingerprint = fingerprint_of_key(key)
        cache_key = (fingerprint,) + config_signature(config)
        plan = self._adhoc_plans.get(cache_key)
        if plan is None:
            schedule = compute_schedule(program, config)
            plan = ExecutionPlan(
                fingerprint=fingerprint,
                backend_name=self.name,
                source_bases=bases,
                optimized=schedule.materialize(program),
                source_values=values,
                config=config,
                fusion_schedule=schedule,
            )
            self.prepare_plan(plan)
            self._adhoc_plans.put(cache_key, plan)
        if config.check_ir:  # every execution, as the engine does
            from repro.checks.plancheck import maybe_check_plan

            maybe_check_plan(plan, config)
        return self.execute_plan(plan, plan.bind(bases, values), memory)

    def cache_stats(self) -> Dict[str, int]:
        """Tile-template and plan-less plan cache counters."""
        return {
            **self._templates.stats("tile_template_"),
            **self._adhoc_plans.stats("tiling_cache_"),
            "template_slots_elided": self._totals.template_slots_elided,
            "backend_lock_contentions": self._cache_lock.contentions,
        }

    def fallback_reasons(self) -> Dict[str, int]:
        with self._cache_lock:
            return dict(self._totals.native_fallback_reasons)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run(self, program: Program, plan, memory: MemoryManager) -> ExecutionResult:
        stats = ExecutionStats(backend_name=self.name)
        config = plan.config
        stats.threads_used = config.parallel_num_threads
        start = time.perf_counter()
        try:
            for step in plan.tiling.steps:
                instruction = program[step.index]
                if isinstance(step, SerialStep):
                    self._run_serial(instruction, memory, stats, config)
                elif isinstance(step, TiledMapStep):
                    self._run_map(instruction, step, memory, stats, config)
                else:
                    self._run_reduce(instruction, step, memory, stats, config)
        finally:
            stats.wall_time_seconds = time.perf_counter() - start
            with self._cache_lock:
                self._totals.merge(stats)
        return ExecutionResult(memory=memory, stats=stats)

    def _run_serial(self, instruction: Instruction, memory, stats, config: Config) -> None:
        """Execute one non-tiled step whole, in program order, on this thread."""
        if not instruction.is_system():
            stats.serial_fallbacks += 1
        self._interpreter._execute_instruction(instruction, memory, stats, config)

    def _scatter(self, tasks: List, threads: int) -> None:
        """Run thunks across the pool in contiguous blocks; serial when moot.

        One submitted future per worker (not per tile) keeps submission
        overhead independent of the tile count.
        """
        if threads <= 1 or len(tasks) <= 1:
            for task in tasks:
                task()
            return
        pool = self._executor(threads)
        workers = min(threads, len(tasks))

        def run_block(block: List) -> None:
            for task in block:
                task()

        futures = []
        for start, count in partition_length(len(tasks), workers):
            if count == 0:
                continue
            futures.append(pool.submit(run_block, tasks[start : start + count]))
        for future in futures:
            future.result()

    def _run_map(
        self,
        instruction: Instruction,
        step: TiledMapStep,
        memory: MemoryManager,
        stats: ExecutionStats,
        config: Config,
    ) -> None:
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        stats.record_launch(instructions, fused)
        slots, launcher = self._map_launcher(instructions, step, stats, config)
        # Allocate every base up front: worker threads must never mutate
        # the memory manager.  Slots the launcher elides (kernel-local
        # temporaries: registers of a compiled kernel, block scratch of a
        # template) never materialize at all.
        for position, view in enumerate(slots):
            if position not in launcher.elided_slots:
                memory.allocate(view.base)
        stats.tiled_instructions += len(instructions)
        self._launch_map(launcher, slots, step, memory, stats, config)

    def _launch_map(
        self,
        launcher,
        slots: Sequence[View],
        step: TiledMapStep,
        memory: MemoryManager,
        stats: ExecutionStats,
        config: Config,
    ) -> None:
        """Run one resolved map step over its tile spans (the launch seam).

        All bases are already allocated.  The native backend overrides this
        to call a compiled kernel once per step, or once per row block.
        """
        spans = step.spans
        stats.tiles_executed += len(spans)

        def tile_task(span: TileSpan):
            views = tuple(slice_view(view, span) for view in slots)

            def run() -> None:
                launcher(memory, views)

            return run

        self._scatter([tile_task(span) for span in spans], config.parallel_num_threads)

    def _map_launcher(self, instructions, step, stats, config, prepared=None):
        """Resolve one tiled map step to ``(slot views, launcher)``.

        The launcher is called once per tile with the tile-sliced slot
        views and names the slots it needs no storage for
        (``elided_slots``).  Here it is the cached interpreted template,
        bound to the step for a blocked launch: tiling proved the kernel
        row-sliceable, and ``step.local_slots`` is the plan-time liveness
        that says which slots nobody outside the kernel observes.  The
        native backend overrides this seam to substitute a compiled loop
        nest when the kernel form lowers to C (``prepared`` is its own
        :func:`prepare_kernel_launch` walk, so falling back here does not
        pay a second one).
        """
        slots, template, erf = self._template(instructions, step, stats, config, prepared)
        return slots, template.blocked(step.local_slots, erf)

    def _template(self, instructions, step, stats, config, prepared=None):
        """``(slot views, cached interpreted template, vector erf)`` of a
        step's element-wise byte-codes, its local slots counted as elided."""
        slots, template = cached_kernel_launch(self._templates, instructions, prepared)
        stats.template_slots_elided += len(step.local_slots)
        erf = None
        if template.uses_erf:
            erf, reason = interpreter.erf_helper(config)
            stats.note_fallback(reason)
        return slots, template, erf

    def _span_producer(self, members, source, step, stats, config, prepared=None):
        """``(slot views, producer)`` computing each span's ``source`` for
        :func:`reduce_tile` when the reduction ends a kernel: here the
        members' interpreted template, local slots in span-sized scratch.
        The native backend overrides this seam with a compiled map form."""
        slots, template, erf = self._template(members, step, stats, config, prepared)
        return slots, span_producer(template, slots, step.local_slots, source, erf)

    def _run_reduce(
        self,
        instruction: Instruction,
        step: TiledReduceStep,
        memory: MemoryManager,
        stats: ExecutionStats,
        config: Config,
    ) -> None:
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        members, tail = split_tail(instructions)
        stats.record_launch(instructions, fused)
        # A kernel that ends in the reduction computes each span's source
        # with its members; as for a map step, no worker thread may mutate
        # the memory manager.
        producer = None
        slots = (tail.inputs[0],)
        if members:
            slots, producer = self._span_producer(
                members, tail.inputs[0], step, stats, config
            )
        for position, view in enumerate(slots + (tail.out,)):
            if position not in step.local_slots:
                memory.allocate(view.base)
        tiles = len(step.spans)
        stats.tiles_executed += tiles
        stats.tiled_instructions += len(instructions)
        # Full 1-D reductions yield one partial per tile, tree-combined.
        partials = [None] * tiles if step.combine else None
        self._scatter(
            [
                partial(reduce_tile, memory, tail, step, position, partials, producer)
                for position in range(tiles)
            ],
            config.parallel_num_threads,
        )
        if step.combine:
            combine_partials(memory, tail, partials)
