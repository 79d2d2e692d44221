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
from repro.runtime.backend import Backend
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.interpreter import NumPyInterpreter, erf_fallback_reason
from repro.runtime.kernel import KERNEL_CACHE_CAPACITY, cached_kernel_launch, split_tail
from repro.runtime.memory import MemoryManager
from repro.runtime.memplan import bind_memory_plan
from repro.runtime.plan import (
    ExecutionPlan,
    PlanCache,
    canonical_program_walk,
    fingerprint_of_key,
)
from repro.runtime.tiling import (
    SerialStep,
    TileDecomposition,
    TiledMapStep,
    TiledReduceStep,
    TileSpan,
    combine_partials,
    decompose,
    partition_length,
    reduce_tile,
    resolve_num_threads,
    slice_view,
    span_producer,
)
from repro.utils.config import get_config
from repro.utils.locking import ContendedLock
from repro.utils.lru import BoundedLRU


class ParallelBackend(Backend):
    """Tiled multi-threaded executor with plan-time tile decomposition."""

    name = "parallel"

    def __init__(
        self,
        num_threads: Optional[int] = None,
        tile_elements: Optional[int] = None,
    ) -> None:
        """
        Parameters
        ----------
        num_threads:
            Worker-thread count; defaults to the configuration's
            ``parallel_num_threads`` (itself defaulting to the host's CPU
            count).
        tile_elements:
            Target elements per tile; defaults to the configuration's
            ``parallel_tile_elements``.
        """
        self._configured_threads = num_threads
        self._configured_tile_elements = tile_elements
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        self._interpreter = NumPyInterpreter()
        # Interpreted kernel templates by structural key; reported as
        # ``tile_template_*``.
        self._templates = BoundedLRU(KERNEL_CACHE_CAPACITY)
        # Plans for programs handed to ``execute`` without one; reported as
        # ``tiling_cache_*``.
        self._adhoc_plans = PlanCache(max(1, get_config().plan_cache_size))
        # Covers pool construction and the cumulative counters: concurrent
        # sessions sharing this instance mutate them only under it.
        self._cache_lock = ContendedLock()
        # The cumulative record ``cache_stats`` reports from: whatever is
        # added to a flush's record is added here too, under the cache lock.
        self._totals = ExecutionStats(backend_name=self.name)

    # ------------------------------------------------------------------ #
    # Thread pool
    # ------------------------------------------------------------------ #

    def num_threads(self) -> int:
        """The effective worker-thread count for the next execution."""
        if self._configured_threads is not None:
            return max(1, int(self._configured_threads))
        return resolve_num_threads()

    def _executor(self, threads: int) -> ThreadPoolExecutor:
        """The persistent pool, rebuilt only when the thread count changes."""
        with self._cache_lock:
            if self._pool is None or self._pool_size != threads:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                self._pool = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-tile"
                )
                self._pool_size = threads
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; a new one is made on demand)."""
        with self._cache_lock:
            pool, self._pool, self._pool_size = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Plan integration
    # ------------------------------------------------------------------ #

    def _effective_config(self):
        """The global configuration with this instance's overrides applied."""
        config = get_config()
        overrides = {}
        if self._configured_tile_elements is not None:
            overrides["parallel_tile_elements"] = self._configured_tile_elements
        if self._configured_threads is not None:
            overrides["parallel_num_threads"] = self._configured_threads
        return config.replace(**overrides) if overrides else config

    def _tiling_signature(self) -> tuple:
        """The tiling-relevant settings a decomposition depends on."""
        config = self._effective_config()
        return (
            config.parallel_tile_elements,
            config.parallel_serial_threshold,
            resolve_num_threads(config),
        )

    def _decompose(self, program: Program) -> TileDecomposition:
        return decompose(program, self._effective_config())

    def prepare_plan(self, plan) -> None:
        """Compute the tile decomposition once, at plan time.

        The engine calls this when a plan is compiled (or primed); the
        decomposition is structural, so it stays valid for every rebound
        replay of the plan — warm flushes skip re-tiling entirely.  The
        signature check covers instances with *constructor* overrides,
        which the engine's config-signature cache key cannot see: a plan
        tiled by a differently-configured instance is re-tiled, never
        replayed stale.
        """
        super().prepare_plan(plan)  # liveness-driven memory plan
        signature = self._tiling_signature()
        with plan.lock:
            if (
                getattr(plan, "tiling", None) is None
                or plan.tiling_signature != signature
            ):
                plan.tiling = self._decompose(plan.optimized)
                plan.tiling_signature = signature
        # The base class checked the plan before the tiling existed;
        # re-check now that it does (no-op unless ``check_ir`` is on).
        from repro.checks.plancheck import maybe_check_plan

        maybe_check_plan(plan)

    def execute_plan(
        self, plan, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Execute a bound program with its plan's cached decomposition."""
        self.prepare_plan(plan)
        memory = memory if memory is not None else MemoryManager()
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
        which is benign.
        """
        from repro.core.schedule import compute_schedule, schedule_signature

        config = self._effective_config()
        key, bases, values = canonical_program_walk(program)
        fingerprint = fingerprint_of_key(key)
        # The schedule is baked into the plan's program, so its knobs key
        # the cache; every other artifact re-validates its own signature in
        # ``prepare_plan``.
        cache_key = (
            (fingerprint,) + self._tiling_signature() + schedule_signature(config)
        )
        plan = self._adhoc_plans.get(cache_key)
        if plan is None:
            schedule = compute_schedule(program, config)
            plan = ExecutionPlan(
                fingerprint=fingerprint,
                backend_name=self.name,
                source_bases=bases,
                optimized=schedule.materialize(program),
                source_values=values,
                fusion_schedule=schedule,
            )
            self.prepare_plan(plan)
            self._adhoc_plans.put(cache_key, plan)
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

    def _note_fallback(self, stats: ExecutionStats, reason: Optional[str]) -> None:
        """Count one fallback, if ``reason`` names one, on the flush's record
        and the cumulative one."""
        if reason is not None:
            stats.note_fallback(reason)
            with self._cache_lock:
                self._totals.note_fallback(reason)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run(self, program: Program, plan, memory: MemoryManager) -> ExecutionResult:
        stats = ExecutionStats(backend_name=self.name)
        threads = self.num_threads()
        stats.threads_used = threads
        start = time.perf_counter()
        for step in plan.tiling.steps:
            instruction = program[step.index]
            if isinstance(step, SerialStep):
                self._run_serial(instruction, memory, stats)
            elif isinstance(step, TiledMapStep):
                self._run_map(instruction, step, memory, stats, threads)
            else:
                self._run_reduce(instruction, step, memory, stats, threads)
        stats.wall_time_seconds = time.perf_counter() - start
        return ExecutionResult(memory=memory, stats=stats)

    def _run_serial(
        self, instruction: Instruction, memory: MemoryManager, stats: ExecutionStats
    ) -> None:
        """Execute one non-tiled step whole, in program order, on this thread."""
        if not instruction.is_system():
            stats.serial_fallbacks += 1
        self._interpreter._execute_instruction(
            instruction, memory, stats, self._note_fallback
        )

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
        threads: int,
    ) -> None:
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        stats.record_launch(instructions, fused)
        slots, launcher = self._map_launcher(instructions, step, stats)
        # Allocate every base up front: worker threads must never mutate
        # the memory manager.  Slots the launcher elides (kernel-local
        # temporaries: registers of a compiled kernel, block scratch of a
        # template) never materialize at all.
        for position, view in enumerate(slots):
            if position not in launcher.elided_slots:
                memory.allocate(view.base)
        stats.tiled_instructions += len(instructions)
        self._launch_map(launcher, slots, step, memory, stats, threads)

    def _launch_map(
        self,
        launcher,
        slots: Sequence[View],
        step: TiledMapStep,
        memory: MemoryManager,
        stats: ExecutionStats,
        threads: int,
    ) -> None:
        """Run one resolved map step over its tile spans (the launch seam).

        All bases are already allocated.  The native backend overrides this
        to collapse a multi-thread launch of a chunk-capable compiled
        kernel into a single in-kernel-threaded call.
        """
        spans = step.spans
        if threads <= 1 and len(spans) > 1 and launcher.single_pass:
            # A compiled loop nest tiles only to feed worker threads; with
            # a single worker the whole step runs as one native call,
            # skipping every per-tile view slice and marshalling round.
            stats.tiles_executed += 1
            launcher(memory, slots)
            return
        stats.tiles_executed += len(spans)

        def tile_task(span: TileSpan):
            views = tuple(slice_view(view, span) for view in slots)

            def run() -> None:
                launcher(memory, views)

            return run

        self._scatter([tile_task(span) for span in spans], threads)

    def _map_launcher(self, instructions, step, stats, prepared=None):
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
        slots, template = self._template(instructions, step, stats, prepared)
        return slots, template.blocked(step.local_slots)

    def _template(self, instructions, step, stats, prepared=None):
        """``(slot views, cached interpreted template)`` of a step's
        element-wise byte-codes, its local slots counted as elided."""
        slots, template, _ = cached_kernel_launch(self._templates, instructions, prepared)
        stats.template_slots_elided += len(step.local_slots)
        with self._cache_lock:
            self._totals.template_slots_elided += len(step.local_slots)
        if template.uses_erf:
            self._note_fallback(stats, erf_fallback_reason())
        return slots, template

    def _run_reduce(
        self,
        instruction: Instruction,
        step: TiledReduceStep,
        memory: MemoryManager,
        stats: ExecutionStats,
        threads: int,
    ) -> None:
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        members, tail = split_tail(instructions)
        stats.record_launch(instructions, fused)
        # A kernel that ends in the reduction computes each span's source
        # with its members' template, local slots in span-sized scratch; as
        # for a map step, no worker thread may mutate the memory manager.
        producer = None
        slots = (tail.inputs[0],)
        if members:
            slots, template = self._template(members, step, stats)
            producer = span_producer(template, slots, step.local_slots, tail.inputs[0])
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
            threads,
        )
        if step.combine:
            combine_partials(memory, tail, partials)
