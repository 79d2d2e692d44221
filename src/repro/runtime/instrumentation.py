"""Execution statistics and results returned by every backend."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.view import View
from repro.runtime.memory import MemoryManager


def _stat(default=0, merge: str = "sum", export: Optional[str] = None):
    """Declare one numeric statistic — the only place it is spelled.

    ``merge`` is how :meth:`ExecutionStats.merge` folds two records
    (``"sum"`` or ``"max"``); ``export`` is its :meth:`ExecutionStats.as_dict`
    key when that differs from the attribute name.
    """
    return field(default=default, metadata={"merge": merge, "export": export})


@dataclass
class ExecutionStats:
    """Counters describing one program execution.

    Every numeric statistic is declared once, with :func:`_stat`;
    :meth:`merge` and :meth:`as_dict` are derived from the declarations.
    """

    #: Number of byte-codes executed, counting fused payload instructions.
    instructions_executed: int = _stat(export="instructions")
    #: Number of kernel launches — every top-level non-system instruction
    #: is one launch; a fused instruction is a single launch.
    kernel_launches: int = _stat(export="kernels")
    #: Total output elements produced across all launches.
    elements_processed: int = _stat(export="elements")
    #: Memory traffic estimate derived from operand view sizes.
    bytes_read: int = _stat()
    bytes_written: int = _stat()
    #: Histogram of executed op-codes.
    opcode_counts: Dict[OpCode, int] = field(default_factory=dict)
    #: Measured wall-clock execution time.
    wall_time_seconds: float = _stat(0.0, export="wall_time_s")
    #: Middleware overhead of the flush: fingerprinting plus either the
    #: optimization pipeline (plan-cache miss) or the plan rebind (hit).
    plan_time_seconds: float = _stat(0.0, export="plan_time_s")
    #: Whether this execution reused a cached execution plan (filled in by
    #: the :class:`~repro.runtime.engine.ExecutionEngine`; sums meaningfully
    #: under :meth:`merge`).
    plan_cache_hits: int = _stat()
    plan_cache_misses: int = _stat()
    #: C compiler invocations during this execution (native backend; a
    #: warm artifact cache keeps this at zero).
    native_compiles: int = _stat()
    #: Compiled artifacts served from the on-disk cache versus the
    #: in-process loaded-kernel cache.
    native_disk_hits: int = _stat()
    native_memory_hits: int = _stat()
    #: Tiled map steps that executed through compiled native loops (so do
    #: the members of a kernel that ends in a reduction: one per step).
    native_kernel_launches: int = _stat()
    #: Tiled map steps that fell back to interpreted kernel templates
    #: (unsupported op-codes/dtypes, aliasing hazards, no compiler or a
    #: compile failure).
    native_fallbacks: int = _stat()
    #: Compiled map steps launched in two or more parts: one serial kernel
    #: call per row block, the blocks on the tile pool.
    native_mt_launches: int = _stat()
    #: Always 0: no tier compiles a fold, so no reduction falls back from
    #: one.  Declared for readers of the field (``bench/layers.py``).
    native_reduction_fallbacks: int = _stat()
    #: Kernel-local slots whose storage compiled launches elided
    #: entirely this execution (counted per launched step).
    native_slots_elided: int = _stat()
    #: Kernel-local slots interpreted template launches kept out of memory
    #: (block scratch instead of a base allocation), counted per launched
    #: step — on the dist backend per shard launch, as its workers report.
    template_slots_elided: int = _stat()
    #: Why work left its fast path this execution: message -> count, merged
    #: like ``opcode_counts``.  One entry per ``native_fallbacks``
    #: increment, plus — on every tier — one
    #: ``"erf: no compiled helper (...)"`` per launch (on the dist backend
    #: per shard launch) whose ``BH_ERF`` ran the ``math.erf`` loop.
    native_fallback_reasons: Dict[str, int] = field(default_factory=dict)
    #: Number of tiles launched by the tiled parallel backend.
    tiles_executed: int = _stat()
    #: Byte-codes that executed through the tiled path (fused payload
    #: instructions counted individually).
    tiled_instructions: int = _stat()
    #: Non-system instructions the parallel backend had to execute
    #: serially (generators, linear algebra, non-splittable kernels).
    serial_fallbacks: int = _stat()
    #: Worker-thread count of the parallel backend for this execution
    #: (zero for other backends).
    threads_used: int = _stat(merge="max")
    #: Buffer-pool outcomes during this execution: how many base-array
    #: materializations were served from recycled storage versus fresh
    #: host allocations (filled in by the
    #: :class:`~repro.runtime.engine.ExecutionEngine`).
    pool_hits: int = _stat()
    pool_misses: int = _stat()
    #: Bytes of storage served from recycled buffers this execution.
    pool_bytes_reused: int = _stat()
    #: The memory plan's simulated peak footprint for this execution
    #: (zero when planning was disabled).
    planned_peak_bytes: int = _stat(merge="max")
    #: The memory manager's measured high-water mark after this execution.
    actual_peak_bytes: int = _stat(merge="max")
    #: Between-pass IR checks paid compiling this flush's plan (zero on
    #: plan-cache hits and with ``check_ir`` off; filled in by the
    #: :class:`~repro.runtime.engine.ExecutionEngine`).
    ir_checks_run: int = _stat()
    #: IR-check violations attributed to this flush.  A violation aborts
    #: the flush with an :class:`~repro.utils.errors.IRCheckError` before
    #: statistics are returned, so this stays zero on successful flushes;
    #: the field exists so merged/serialized stats share one schema with
    #: the process-wide counters in ``cache_stats()``.
    ir_check_failures: int = _stat()
    #: Plan-artifact soundness checks run for this flush: the engine's
    #: (memory plan, tiling, shard plan; under ``check_ir``) plus, when a
    #: ``dist`` flush meets a plan cold, each validator's shard-plan checks
    #: — every worker's ``load``, or the master's when there is one shard.
    plan_checks_run: int = _stat()
    #: Shard count of the distributed backend for this execution: the
    #: master and its worker processes (zero for other backends).
    dist_workers_used: int = _stat(merge="max")
    #: Shard launch frames sent to worker processes (one per participating
    #: worker per distributed step; never an empty shard).
    dist_shard_launches: int = _stat()
    #: Always 0: a shard reads its neighbours' rows in place.  Both stay
    #: declared because ``bench/layers.py`` reads them.
    dist_halo_exchanges: int = _stat()
    dist_halo_bytes: int = _stat()
    #: Control-channel traffic this execution: every frame exchanged with
    #: the pool and its pickled size.  This is the *entire* wire cost of
    #: the hot path.
    dist_control_frames: int = _stat()
    dist_control_bytes: int = _stat()
    #: Bytes of NumPy array payload detected inside control frames.  The
    #: design invariant is that arrays travel only through shared memory,
    #: so this must stay zero; it is counted (not assumed) so the warm
    #: path's zero-copy claim is a measured fact.
    dist_payload_bytes: int = _stat()
    #: Bytes copied from ordinary host storage into shared-memory
    #: segments when the backend adopted pre-existing arrays (zero on
    #: warm flushes — residency persists).
    dist_bytes_migrated: int = _stat()
    #: Bases newly bound to a shared-memory segment this execution (warm
    #: token hits and kernel-local bases, which get no segment, excluded).
    dist_bases_adopted: int = _stat()
    #: Bytes of those segments the master zero-initialised (the memory
    #: plan waives the fill for bases written before they are read).
    dist_zero_fill_bytes: int = _stat()
    #: Which backend produced these statistics.
    backend_name: str = ""

    def record_instruction(self, opcode: OpCode) -> None:
        """Count one executed instruction of ``opcode``."""
        self.instructions_executed += 1
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1

    def record_launch(
        self, instructions: Sequence[Instruction], fused: Optional[Instruction] = None
    ) -> None:
        """Count one kernel launch — the only place launch accounting is written.

        ``instructions`` are the byte-codes the launch executes; ``fused`` is
        the ``BH_FUSED`` byte-code they are the payload of, when there is one
        (it enters the histogram beside them).  The traffic estimate is the
        same on every tier: each output view's elements and bytes, each
        input view's bytes.
        """
        self.kernel_launches += 1
        if fused is not None:
            self.record_instruction(fused.opcode)
        for instruction in instructions:
            self.record_instruction(instruction.opcode)
            out = instruction.out
            if out is not None:
                self.elements_processed += out.nelem
                self.bytes_written += out.nbytes
            for operand in instruction.inputs:
                if is_view(operand):
                    self.bytes_read += operand.nbytes

    def note_fallback(self, reason: Optional[str]) -> None:
        """Count one fallback for ``reason``; ``None`` (there was none) is a no-op."""
        if reason is not None:
            reasons = self.native_fallback_reasons
            reasons[reason] = reasons.get(reason, 0) + 1

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Fold another stats record into this one (in place) and return self.

        Every flush of a session is folded into its running total, so this
        walks the two instance dicts directly and skips what the other
        record left at zero — most of one flush's statistics.
        """
        totals, record = vars(self), vars(other)
        for name, _, policy in NUMERIC_STATS:
            value = record[name]
            if value:
                totals[name] = (
                    max(totals[name], value) if policy == "max" else totals[name] + value
                )
        for mine, theirs in (
            (self.opcode_counts, other.opcode_counts),
            (self.native_fallback_reasons, other.native_fallback_reasons),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        return self

    @property
    def total_bytes(self) -> int:
        """Total estimated memory traffic in bytes."""
        return self.bytes_read + self.bytes_written

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict summary used by benchmark reporting."""
        return {export: getattr(self, name) for name, export, _ in NUMERIC_STATS}


#: ``(attribute, as_dict key, merge policy)`` of every numeric statistic,
#: in declaration order.
NUMERIC_STATS = tuple(
    (spec.name, spec.metadata["export"] or spec.name, spec.metadata["merge"])
    for spec in dataclasses.fields(ExecutionStats)
    if "merge" in spec.metadata
)


@dataclass
class ExecutionResult:
    """What a backend returns: the memory state plus execution statistics."""

    memory: MemoryManager
    stats: ExecutionStats

    def value(self, view: View) -> np.ndarray:
        """Read the final contents of ``view`` as a NumPy array (copy)."""
        return self.memory.read_view(view)

    def scalar(self, view: View) -> float:
        """Read a single-element view as a Python float."""
        array = self.value(view)
        if array.size != 1:
            raise ValueError(f"view has {array.size} elements, expected 1")
        return float(array.reshape(-1)[0])
