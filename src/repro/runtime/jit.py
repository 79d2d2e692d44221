"""The fusing JIT backend.

Clusters fusable element-wise byte-codes into kernels (one launch per
cluster) before executing, through the shared scheduling seam
(:func:`repro.core.schedule.compute_schedule`): under the default ``"dag"``
fusion scheduler non-adjacent byte-codes are legally reordered into
clusters, under ``"consecutive"`` only adjacent runs fuse.  Pre-fused
``BH_FUSED`` byte-codes (baked in by the optimizer) launch as compiled
kernels too, sharing templates with structurally identical unfused chains.
Non-element-wise byte-codes — reductions, extension methods, system
directives — are executed individually through the reference interpreter.

Compiled kernels are cached by their *canonical structural form* (see
:meth:`~repro.runtime.kernel.Kernel.structural_key`), not by operand
identity: two equivalent kernels that differ only in which temporary base
arrays they write through — the normal situation across loop iterations of
a repeated-flush workload — share a single compiled template, which is
launched with each kernel's concrete views.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.bytecode.program import Program
from repro.runtime.backend import Backend
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.kernel import Kernel, KernelTemplate
from repro.runtime.memory import MemoryManager
from repro.utils.config import get_config
from repro.utils.locking import ContendedLock
from repro.utils.lru import BoundedLRU


class FusingJIT(Backend):
    """Kernel-fusing backend with a structural per-kernel compilation cache."""

    name = "jit"

    def __init__(self, max_kernel_size: Optional[int] = None) -> None:
        self.max_kernel_size = (
            max_kernel_size
            if max_kernel_size is not None
            else get_config().fusion_max_kernel_size
        )
        self._interpreter = NumPyInterpreter()
        self._kernel_cache: Dict[tuple, KernelTemplate] = {}
        # Covers the kernel cache and its counters: concurrent sessions
        # sharing one engine share this instance too.
        self._cache_lock = ContendedLock()
        self.cache_hits = 0
        self.cache_misses = 0
        # Fusion schedules keyed by (fingerprint, schedule-relevant config):
        # warm plan-cache replays hand this backend the same (already
        # scheduled) program every flush, and the schedule is structural, so
        # one dependency-graph analysis serves them all.
        self._schedule_cache = BoundedLRU(max(1, get_config().plan_cache_size))

    def _template(self, kernel: Kernel) -> KernelTemplate:
        key = kernel.structural_key()
        with self._cache_lock:
            cached = self._kernel_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        from repro.runtime.kernel import compile_kernel_template

        # Compiled outside the lock; a concurrent miss of the same form
        # loses the setdefault race and adopts the winner's template.
        template = compile_kernel_template(kernel.instructions)
        with self._cache_lock:
            return self._kernel_cache.setdefault(key, template)

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative compiled-kernel cache counters for this backend."""
        return {
            "kernel_cache_hits": self.cache_hits,
            "kernel_cache_misses": self.cache_misses,
            "kernel_cache_size": len(self._kernel_cache),
            **self._schedule_cache.stats("schedule_cache_"),
            "backend_lock_contentions": self._cache_lock.contentions,
        }

    def _partition(self, program: Program) -> List[object]:
        """Launch units for ``program`` via the shared scheduling seam."""
        from repro.core.schedule import compute_schedule
        from repro.runtime.plan import program_fingerprint

        # The key carries exactly the settings the schedule is computed
        # under: the instance's kernel-size snapshot (a constructor
        # override, like ParallelBackend's), not the live config knob the
        # computation ignores.
        config = get_config()
        key = (
            program_fingerprint(program),
            config.fusion_scheduler,
            config.fusion_cost_threshold,
            self.max_kernel_size,
        )
        schedule = self._schedule_cache.get(key)
        if schedule is None:
            schedule = self._schedule_cache.setdefault(
                key, compute_schedule(program, max_kernel_size=self.max_kernel_size)
            )
        return schedule.partition(program)

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        memory = memory if memory is not None else MemoryManager()
        stats = ExecutionStats(backend_name=self.name)
        hits_before, misses_before = self.cache_hits, self.cache_misses
        start = time.perf_counter()
        for item in self._partition(program):
            if isinstance(item, Kernel):
                self._execute_kernel(item, memory, stats)
            else:
                self._interpreter._execute_instruction(item, memory, stats, top_level=True)
        stats.wall_time_seconds = time.perf_counter() - start
        stats.kernel_cache_hits = self.cache_hits - hits_before
        stats.kernel_cache_misses = self.cache_misses - misses_before
        return ExecutionResult(memory=memory, stats=stats)

    def _execute_kernel(self, kernel: Kernel, memory: MemoryManager, stats: ExecutionStats) -> None:
        stats.kernel_launches += 1
        if kernel.source is not None:
            # The kernel unwraps a pre-fused byte-code: keep the instruction
            # accounting identical to interpreting it (BH_FUSED + payload).
            stats.record_instruction(kernel.source.opcode)
        for instruction in kernel.instructions:
            stats.record_instruction(instruction.opcode)
            out = instruction.out
            if out is not None:
                stats.elements_processed += out.nelem
                stats.bytes_written += out.nbytes
            for view in instruction.reads():
                stats.bytes_read += view.nbytes
        template = self._template(kernel)
        template(memory, kernel.slot_views())
