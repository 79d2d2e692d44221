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
from repro.runtime.interpreter import NumPyInterpreter, erf_fallback_reason
from repro.runtime.kernel import (
    KERNEL_CACHE_CAPACITY,
    Kernel,
    cached_kernel_launch,
    split_tail,
)
from repro.runtime.memory import MemoryManager
from repro.utils.config import get_config
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
        # Compiled templates by structural key; its own counters are the
        # backend's cumulative ``kernel_cache_*`` (concurrent sessions
        # sharing one engine share this instance too).
        self._kernels = BoundedLRU(KERNEL_CACHE_CAPACITY)
        # Fusion schedules keyed by (fingerprint, schedule-relevant config):
        # warm plan-cache replays hand this backend the same (already
        # scheduled) program every flush, and the schedule is structural, so
        # one dependency-graph analysis serves them all.
        self._schedule_cache = BoundedLRU(max(1, get_config().plan_cache_size))

    @property
    def cache_hits(self) -> int:
        return self._kernels.hits

    @property
    def cache_misses(self) -> int:
        return self._kernels.misses

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative compiled-kernel cache counters for this backend."""
        stats = self._kernels.stats("kernel_cache_")
        stats.update(self._schedule_cache.stats("schedule_cache_"))
        # The kernel cache's lock is the only one this backend owns.
        stats["backend_lock_contentions"] = stats["kernel_cache_contentions"]
        return stats

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
        start = time.perf_counter()
        for item in self._partition(program):
            if isinstance(item, Kernel):
                self._execute_kernel(item, memory, stats)
            else:
                self._interpreter._execute_instruction(item, memory, stats)
        stats.wall_time_seconds = time.perf_counter() - start
        return ExecutionResult(memory=memory, stats=stats)

    def _execute_kernel(self, kernel: Kernel, memory: MemoryManager, stats: ExecutionStats) -> None:
        # A kernel that unwraps a pre-fused byte-code is accounted exactly
        # like interpreting it (BH_FUSED + payload).
        stats.record_launch(kernel.instructions, kernel.source)
        members, tail = split_tail(kernel.instructions)
        slots, template, hit = cached_kernel_launch(self._kernels, members)
        if hit:
            stats.kernel_cache_hits += 1
        else:
            stats.kernel_cache_misses += 1
        if template.uses_erf:
            stats.note_fallback(erf_fallback_reason())
        template(memory, slots)
        if tail is not None:  # the kernel's closing reduction, over the whole array
            self._interpreter._dispatch(tail, memory)
