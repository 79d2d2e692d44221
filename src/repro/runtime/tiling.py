"""Tile decomposition: splitting kernels into cache-sized contiguous tiles.

The tiled parallel backend executes fused element-wise kernels and axis
reductions tile-by-tile: each tile is a contiguous block of rows of the
kernel's iteration space, sized so its working set fits in cache, and
independent tiles can run on different worker threads.  This module holds
the *plan-time* half of that backend: deciding which instructions of an
optimized program are splittable, and pre-computing the tile boundaries.

The decomposition is deliberately **structural**: steps reference
instructions by program index and tiles by (start row, row count), never by
base-array identity.  :meth:`~repro.runtime.plan.ExecutionPlan.bind`
preserves instruction order, shapes and strides exactly — only base
identities change — so one decomposition, computed once when a plan is
compiled, replays verbatim against every rebound program the plan serves.
Warm flushes therefore pay zero re-tiling cost.

Splittability rules (serial fallback otherwise):

* element-wise instructions and fused kernels: every view operand must
  share the kernel's shape, the iteration space must clear the configured
  serial threshold, and no written view may overlap a different window of
  the same base (row-aligned dependencies — an instruction reading exactly
  the view another wrote — stay inside a tile and are safe; a write into a
  shifted window would leak across tiles).  A read of a shifted window
  that no write overlaps may reach past its tile's rows: a thread tile and
  a dist shard both read those rows where they lie.
* reductions: n-D inputs are tiled along a non-reduced axis, so every tile
  writes a disjoint slice of the output and results are bit-identical to
  the serial reduction.  Full 1-D reductions produce one partial per tile,
  tree-combined by the backend.  A fused kernel that *ends* in a reduction
  gets that reduction's step, its members computing each tile's source.
* everything else — generators (``BH_RANDOM``, ``BH_RANGE``), extension
  methods (dense linear algebra), system directives — is serial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import REDUCE_TO_ELEMENTWISE, opcode_info
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.utils.config import Config
from repro.utils.errors import ClusterError


def partition_length(length: int, num_workers: int) -> List[Tuple[int, int]]:
    """Split ``length`` elements into contiguous (start, count) chunks.

    The chunk count is clamped to ``min(num_workers, length)`` so every
    returned chunk is non-empty — consumers that launch real work per chunk
    (the distributed backend ships one shard per chunk to a worker process)
    must never be handed a zero-length shard.  A ``length`` of zero therefore
    yields no chunks at all.  Within the clamped count the first
    ``length % parts`` chunks get one extra element, the standard block
    distribution.
    """
    if num_workers < 1:
        raise ClusterError(f"need at least one worker, got {num_workers}")
    parts = min(num_workers, length)
    if parts == 0:
        return []
    base = length // parts
    remainder = length % parts
    chunks: List[Tuple[int, int]] = []
    start = 0
    for worker in range(parts):
        count = base + (1 if worker < remainder else 0)
        chunks.append((start, count))
        start += count
    return chunks


@dataclass(frozen=True)
class TileSpan:
    """One contiguous block of rows along a tiled axis."""

    start: int
    count: int


@dataclass(frozen=True)
class SerialStep:
    """An instruction executed whole, in program order, on one thread."""

    index: int
    reason: str


@dataclass(frozen=True)
class TiledMapStep:
    """An element-wise instruction or fused kernel split into row tiles.

    Every view of the instruction is sliced with the same spans along its
    first axis; tiles touch disjoint rows of every written view, so they
    are independent.

    ``local_slots`` names the kernel's template slots (see
    :func:`repro.runtime.kernel.kernel_slot_views`) that need *no storage
    outside this kernel*: the base's lifetime **ends** inside this
    instruction — its last access in the whole program happens here, it is
    freed and never synced — and the kernel's first reference to the slot
    is a store (:func:`store_first_slots`), so nothing it holds on entry is
    ever read.  Earlier accesses at other program indices are allowed (they
    are dead defs this kernel overwrites).  Slot indices are structural, so
    the set survives plan rebinding; native keeps such slots in registers,
    a template launch in block scratch, and dist keeps their bases out of
    shared memory.
    """

    index: int
    spans: Tuple[TileSpan, ...]
    local_slots: frozenset = frozenset()


@dataclass(frozen=True)
class TiledReduceStep:
    """An axis reduction split into row tiles.

    ``combine`` is false when tiling runs along a *non-reduced* axis: each
    tile reduces its own rows and writes a disjoint slice of the output
    (bit-identical to the serial reduction).  It is true for full 1-D
    reductions, where each tile yields one partial result and the backend
    tree-combines the partials.

    The step of a kernel that *ends* in the reduction is the step the bare
    reduction gets — same spans, axis and combine tree, hence the same bits
    — plus the kernel's ``local_slots`` (see :class:`TiledMapStep`): every
    slot its element-wise members store, the reduction's source included.
    """

    index: int
    spans: Tuple[TileSpan, ...]
    tile_axis: int
    combine: bool
    local_slots: frozenset = frozenset()


@dataclass(frozen=True)
class TileDecomposition:
    """The plan-time tiling of one optimized program."""

    steps: Tuple[object, ...]

    @property
    def num_tiles(self) -> int:
        """Total tile count across every tiled step."""
        return sum(len(step.spans) for step in self.steps if not isinstance(step, SerialStep))

    @property
    def tiled_steps(self) -> Tuple[object, ...]:
        """The steps that run tile-parallel."""
        return tuple(step for step in self.steps if not isinstance(step, SerialStep))

    @property
    def serial_steps(self) -> Tuple[SerialStep, ...]:
        """The steps that fall back to serial execution."""
        return tuple(step for step in self.steps if isinstance(step, SerialStep))


def slice_view(view: View, span: TileSpan, axis: int = 0) -> View:
    """The sub-view addressing ``span`` along ``axis`` of ``view``.

    The offset advances by whole strides, shape shrinks along the axis,
    strides are unchanged.
    """
    offset = view.offset + span.start * view.strides[axis]
    shape = view.shape[:axis] + (span.count,) + view.shape[axis + 1 :]
    return View(view.base, offset, shape, view.strides)


def _reduction_ufunc(instruction: Instruction):
    return getattr(np, opcode_info(REDUCE_TO_ELEMENTWISE[instruction.opcode]).numpy_name)


def partial_dtype(instruction: Instruction) -> np.dtype:
    """The dtype of one span's partial of a combine reduction.

    Whatever NumPy's own ``ufunc.reduce`` yields for the source dtype, asked
    of NumPy on a size-1 sample rather than re-derived: ``add.reduce`` counts
    bools and widens ``int32`` in the platform integer.  Any array that
    holds partials between :func:`reduce_tile` and :func:`combine_partials`
    (the dist tier's shared scratch) is typed and sized with this, never
    with the source dtype.
    """
    sample = np.zeros(1, dtype=instruction.inputs[0].dtype.np_dtype)
    return np.asarray(_reduction_ufunc(instruction).reduce(sample, axis=0)).dtype


def reduce_tile(
    memory, instruction: Instruction, step, position: int, partials=None, producer=None
) -> None:
    """Reduce tile ``position`` of a tiled reduction (thread or worker process).

    Disjoint-slice form (``step.combine`` false): the tile reduces its own
    rows of the source into its own slice of the output; within a slice the
    element order matches the serial reduction, so results are
    bit-identical.  Partial form (full 1-D reductions): the tile's span
    folds to one value stored at ``partials[position]`` for
    :func:`combine_partials`.

    ``producer`` (:func:`span_producer`) computes the span's source values
    when the reduction ends a kernel; without one they are read from memory.
    """
    source_view, axis_constant = instruction.inputs
    ufunc = _reduction_ufunc(instruction)
    span = step.spans[position]
    if producer is not None:
        source = producer(memory, span, step.tile_axis)
    else:
        source = memory.view_array(slice_view(source_view, span, axis=step.tile_axis))
    if step.combine:
        partials[position] = ufunc.reduce(source, axis=0)
        return
    out = memory.view_array(slice_view(instruction.out, span, axis=0))
    reduced = ufunc.reduce(source, axis=int(axis_constant.value))
    np.copyto(out, np.asarray(reduced).reshape(out.shape), casting="unsafe")


def span_producer(template, slots: Sequence[View], local_slots: frozenset, source: View, erf):
    """:func:`reduce_tile`'s ``producer`` for a kernel that ends in a reduction.

    ``template`` is the element-wise members' kernel template, or anything
    with its ``evaluate`` (the native tier's compiled map form), and
    ``slots`` their slot views; per span the members run once over the
    span's slice of every slot — ``local_slots`` in scratch of that size —
    and the array of the slot the reduction reads (``source``) is what the
    tile reduces.  ``erf`` is the launch's vector erf.
    """
    result = next(
        position for position, view in enumerate(slots) if view.same_view(source)
    )

    def produce(memory, span: TileSpan, axis: int):
        views = tuple(slice_view(view, span, axis) for view in slots)
        return template.evaluate(memory, views, local_slots, result, erf)

    return produce


def combine_partials(memory, instruction: Instruction, partials) -> None:
    """Fold per-tile partials pairwise into the reduction's output.

    The tree's shape depends only on how many partials there are — the
    plan's spans, never who produced them — so thread and process tiers
    agree bitwise at any worker count.
    """
    ufunc = _reduction_ufunc(instruction)
    values = list(partials)
    while len(values) > 1:
        combined = [
            ufunc(values[i], values[i + 1]) for i in range(0, len(values) - 1, 2)
        ]
        if len(values) % 2:
            combined.append(values[-1])
        values = combined
    out = memory.view_array(instruction.out)
    np.copyto(out, np.asarray(values[0]).reshape(out.shape), casting="unsafe")


def resolve_num_threads(config: Config) -> int:
    """The effective parallel worker count for ``config``.

    ``parallel_num_threads`` when set, otherwise the number of CPUs this
    process may run on — the scheduler affinity mask where the platform has
    one (a container or ``taskset`` restricted to 2 of 64 CPUs gets 2
    threads), ``os.cpu_count()`` elsewhere.  A flush's resolved snapshot
    already holds the answer (:meth:`~repro.runtime.backend.Backend.resolve_config`).
    """
    threads = config.parallel_num_threads
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
    return max(1, int(threads))


def spans_for(
    rows: int,
    row_elements: int,
    tile_elements: int,
    min_tiles: int = 1,
    min_rows: int = 1,
) -> Tuple[TileSpan, ...]:
    """Split ``rows`` rows of ``row_elements`` each into cache-sized spans.

    The tile count is chosen so each tile holds about ``tile_elements``
    elements — but never fewer than ``min_tiles`` (the worker count, so a
    mid-size workload still feeds every thread) nor so many that a span
    would hold fewer than ``min_rows`` rows.  The rows are then
    block-distributed with :func:`partition_length` so spans differ in
    size by at most one row.
    """
    rows_per_tile = max(min_rows, tile_elements // max(1, row_elements))
    num_tiles = max(1, -(-rows // rows_per_tile), min_tiles)
    num_tiles = min(num_tiles, max(1, rows // min_rows))
    return tuple(
        TileSpan(start, count)
        for start, count in partition_length(rows, num_tiles)
        if count > 0
    )


# --------------------------------------------------------------------------- #
# Splittability analysis
# --------------------------------------------------------------------------- #


def map_serial_reason(
    instructions: Sequence[Instruction], config: Optional[Config] = None
) -> Optional[str]:
    """Why a (fused) element-wise instruction list cannot be row-tiled.

    Returns ``None`` when tiling is safe.  Without a ``config`` only the
    structure is judged, not the size.
    """
    shape = None
    for instruction in instructions:
        out = instruction.out
        if out is not None:
            shape = out.shape
            break
    if shape is None or len(shape) == 0:
        return "no output iteration space"
    views = []
    for instruction in instructions:
        for operand in instruction.operands:
            if is_view(operand):
                views.append(operand)
    for view in views:
        if view.shape != shape:
            return "operand shape differs from kernel shape"
    if config is not None:
        nelem = 1
        for dim in shape:
            nelem *= dim
        if nelem < config.parallel_serial_threshold:
            return "below serial threshold"
        if shape[0] < 2:
            return "single row"
    writes = [v for instruction in instructions for v in instruction.writes()]
    for write in writes:
        for other in views:
            if other is write or other.same_view(write):
                continue
            if write.overlaps(other):
                return "overlapping windows of one base"
    return None


def _decompose_map(
    index: int, instruction: Instruction, config: Config
) -> object:
    instructions = instruction.kernel if instruction.is_fused() else (instruction,)
    reason = map_serial_reason(instructions, config)
    if reason is not None:
        return SerialStep(index=index, reason=reason)
    out_shape = next(i.out.shape for i in instructions if i.out is not None)
    rows = out_shape[0]
    row_elements = 1
    for dim in out_shape[1:]:
        row_elements *= dim
    spans = spans_for(
        rows, row_elements, config.parallel_tile_elements, resolve_num_threads(config)
    )
    return TiledMapStep(index=index, spans=spans)


def tail_serial_reason(
    members: Sequence[Instruction], tail: Instruction, config: Optional[Config] = None
) -> Optional[str]:
    """Why a kernel ending in reduction ``tail`` runs whole (its byte-codes
    in order, every intermediate in memory) instead of tile by tile."""
    source, out = tail.inputs[0], tail.out
    if not any(view.same_view(source) for member in members for view in member.writes()):
        return "reduction reads no store of its kernel"
    if any(view.overlaps(out) for member in members for view in member.views()):
        return "reduction output aliases a kernel operand"
    strides = [abs(s) for s, dim in zip(source.strides, source.shape) if dim > 1]
    if strides != sorted(strides, reverse=True):
        # NumPy folds in the order the strides suggest: a row-major scratch
        # span would be folded differently from the array it stands for.
        return "reduction source is not row-major"
    return map_serial_reason(members, config)


def _decompose_reduce(
    index: int, instruction: Instruction, config: Config, members=()
) -> object:
    source = instruction.inputs[0]
    out = instruction.out
    if not is_view(source) or out is None:
        return SerialStep(index=index, reason="malformed reduction")
    if members:
        reason = tail_serial_reason(members, instruction, config)
        if reason is not None:
            return SerialStep(index=index, reason=reason)
    axis = int(instruction.constants[0].value)
    if source.nelem < config.parallel_serial_threshold:
        return SerialStep(index=index, reason="below serial threshold")
    if out.base is source.base and out.overlaps(source):
        return SerialStep(index=index, reason="output aliases reduction input")
    if source.ndim == 1:
        # Full reduction to one value: per-tile partials, tree-combined.
        if out.nelem != 1:
            return SerialStep(index=index, reason="malformed reduction")
        spans = spans_for(
            source.shape[0], 1, config.parallel_tile_elements, resolve_num_threads(config)
        )
        if len(spans) < 2:
            return SerialStep(index=index, reason="single tile")
        return TiledReduceStep(index=index, spans=spans, tile_axis=0, combine=True)
    # n-D: tile along a non-reduced axis so each tile owns a disjoint
    # output slice.  The tiled source axis always maps to output axis 0.
    tile_axis = 1 if axis == 0 else 0
    rows = source.shape[tile_axis]
    if rows < 2:
        return SerialStep(index=index, reason="single row")
    if len(out.shape) == 0 or out.shape[0] != rows:
        return SerialStep(index=index, reason="output not sliceable with input")
    row_elements = source.nelem // rows
    # A tile of an axis-0 reduction that is one column wide coalesces to a
    # 1-D slice, which NumPy sums pairwise — not bitwise the row-by-row
    # serial reduction.  Two columns keep the column axis innermost.
    one_column_coalesces = axis == 0 and row_elements == source.shape[0]
    spans = spans_for(
        rows,
        row_elements,
        config.parallel_tile_elements,
        resolve_num_threads(config),
        min_rows=2 if one_column_coalesces else 1,
    )
    if one_column_coalesces and len(spans) < 2:
        return SerialStep(index=index, reason="tiles would be one column wide")
    return TiledReduceStep(index=index, spans=spans, tile_axis=tile_axis, combine=False)


def store_first_slots(specs) -> frozenset:
    """Template slots whose first reference in the kernel is a *store*.

    ``specs`` are the per-instruction operand references of the kernel's
    :func:`repro.runtime.kernel._slot_walk` (output first, then inputs).

    Every later load of such a slot reads what this kernel stored, never
    what the storage held on entry (within one byte-code inputs are
    consumed before the output is produced, so ``x = x + 1`` loads first).
    This is the in-kernel half of "needs no storage outside this kernel":
    a compiled kernel forwards the value from a scalar local, a template
    launch (thread tier and dist worker alike) keeps it in block scratch.
    """
    stored: set = set()
    loaded_first: set = set()
    for _, refs in specs:
        (out_kind, out_slot), inputs = refs[0], refs[1:]
        loaded_first.update(
            slot for kind, slot in inputs if kind == "slot" and slot not in stored
        )
        if out_kind == "slot":
            stored.add(out_slot)
    return frozenset(stored - loaded_first)


def _local_slot_indices(index: int, instruction: Instruction, defuse) -> frozenset:
    """Template slots of one map step that need no storage outside it.

    A slot qualifies when its base's *last* access in the whole program
    happens at this program index, the base is explicitly freed and never
    synced — nothing after or outside the program can observe what this
    kernel writes — and the kernel stores the slot before loading it
    (:func:`store_first_slots`).  Accesses at earlier indices are
    permitted: they are dead defs (or reads of them) this kernel's first
    store overwrites; a kernel that instead *reads* the base before storing
    keeps its memory lane, so earlier-produced values are never lost.
    """
    from repro.runtime.kernel import _slot_walk

    instructions = instruction.kernel if instruction.is_fused() else (instruction,)
    _, slots, specs = _slot_walk(instructions)
    local = set()
    for position in store_first_slots(specs):
        base_id = id(slots[position].base)
        if base_id in defuse.synced or base_id not in defuse.freed:
            continue
        accesses = defuse.accesses.get(base_id, ())
        if accesses and max(access.index for access in accesses) == index:
            local.add(position)
    return frozenset(local)


def decompose(program: Program, config: Config = Config()) -> TileDecomposition:
    """Compute the tile decomposition of ``program`` under ``config``.

    This is the plan-time analysis: one walk classifying every instruction
    as tiled or serial and fixing the tile spans.  The result applies to
    any program with the same canonical structural key (see module
    docstring), so plans cache it across rebinds — ``local_slots`` included,
    because slot indices and liveness are structural, not identity-bound.
    ``config`` defaults to the library defaults, not the live configuration.
    """
    from repro.core.analysis import DefUse
    from repro.runtime.kernel import _slot_walk, split_tail

    defuse = None
    steps = []
    for index, instruction in enumerate(program):
        members, tail = split_tail(instruction.kernel or (instruction,))
        if instruction.is_system():
            steps.append(SerialStep(index=index, reason="system"))
        elif tail is not None:
            step = _decompose_reduce(index, tail, config, members)
            if members and isinstance(step, TiledReduceStep):
                if defuse is None:
                    defuse = DefUse.analyze(program)
                local = _local_slot_indices(index, instruction, defuse)
                if local.issuperset(refs[0][1] for _, refs in _slot_walk(members)[2]):
                    step = replace(step, local_slots=local)
                else:
                    step = SerialStep(index=index, reason="kernel keeps a store")
            steps.append(step)
        elif instruction.is_fused() or instruction.is_elementwise():
            step = _decompose_map(index, instruction, config)
            if isinstance(step, TiledMapStep):
                if defuse is None:
                    defuse = DefUse.analyze(program)
                step = replace(
                    step, local_slots=_local_slot_indices(index, instruction, defuse)
                )
            steps.append(step)
        elif instruction.is_extension():
            steps.append(SerialStep(index=index, reason="extension"))
        else:
            steps.append(SerialStep(index=index, reason="generator"))
    return TileDecomposition(steps=tuple(steps))
