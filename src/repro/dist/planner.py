"""Prepare-time shard planning for the distributed backend.

The planner turns a plan's tile decomposition (:mod:`repro.runtime.tiling`
already proved which steps may split along their first axis without
overlap hazards) into *shard descriptors*: one contiguous row shard per
worker process for map steps and span assignments for reductions.  A
tiled step becomes a shard step unless it reads a data operand.

Everything here is structural (step indices, row spans, template slot
positions, canonical base positions) so one shard plan serves every
rebound replay of its execution plan and pickles cheaply to workers.

Reads beyond a shard
--------------------
A fused stencil kernel reads one base through several views at different
row offsets, so a shard's reads reach rows of the next worker's block.
The shard reads them where they lie: every worker maps every base that is
not private, steps are sequenced by ``step``/``complete`` round trips (no
base a step reads is written while it runs), and tiling refuses any
written view that overlaps a different window of its base — the rule the
thread tier's tiles rely on for the same reads.

Private bases
-------------
A base enters shared memory only if a worker must address it.  A base all
of whose accesses sit inside one sharded step (a map step, or the reduce
step of a kernel that ends in the reduction), on slots the tiling
lists in ``local_slots`` (last access here, freed, never synced, stored
before loaded), needs no storage outside that kernel: the planner
records it in :attr:`MapShardStep.private`, the master leaves its
position out of the flush's segment mapping and each worker launches its
slots as the template's kernel-local ones (block scratch of the launch,
see :class:`repro.runtime.kernel.BlockedTemplateLaunch`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.runtime.kernel import kernel_slot_views, split_tail
from repro.runtime.plan import data_operand_positions
from repro.runtime.tiling import (
    SerialStep,
    TileDecomposition,
    TileSpan,
    TiledMapStep,
    TiledReduceStep,
    partial_dtype,
    partition_length,
)


@dataclass(frozen=True)
class MapShardStep:
    """A tiled map step sharded across workers: shard ``k`` → worker ``k``."""

    index: int
    shards: Tuple[TileSpan, ...]
    #: Kernel-local bases of this step, as ``(canonical base position,
    #: template slot indices)``: positions that may stay out of the
    #: flush's segment mapping (see the module docstring).
    private: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class ReduceShardStep:
    """A tiled reduction: plan spans dealt out to workers.

    ``spans`` are the *plan's* tile spans — they depend only on tiling
    configuration, never on the worker count, which is what keeps combine
    reductions bitwise stable at any pool size: workers compute one partial
    per assigned span into the shared scratch segment (indexed by span
    position) and the master tree-combines all partials in the parallel
    backend's fixed pairwise order.  Non-combine reductions write disjoint
    output slices directly, so any dealing is bit-identical.
    """

    index: int
    spans: Tuple[TileSpan, ...]
    tile_axis: int
    combine: bool
    #: Per worker: the span positions that worker reduces (empty tuples
    #: for workers beyond the span count — they are never launched).
    assignments: Tuple[Tuple[int, ...], ...]
    #: Combine form: the dtype (NumPy ``str``) of one span's partial — what
    #: NumPy's reduce yields for the source, see
    #: :func:`repro.runtime.tiling.partial_dtype` — which types the shared
    #: scratch on the worker that writes it and the master that combines it.
    partial_dtype: str = ""
    #: As :attr:`MapShardStep.private`, for a kernel that ends in the
    #: reduction: the bases its element-wise members store (the reduction's
    #: source among them), computed per span in the worker's scratch.
    private: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class MasterStep:
    """A step the master executes itself (with the reason recorded): whole,
    or — a tiled reduction the planner kept here — over the tiling's spans
    with the thread tier's code, so its bits are the sharded reduction's."""

    index: int
    reason: str


@dataclass(frozen=True)
class DistPlan:
    """The shard descriptors for one execution plan at one worker count."""

    num_workers: int
    steps: Tuple[object, ...]
    #: Widest combine reduction (span count) — sizes the scratch segment.
    max_partials: int = 0
    #: Largest partial itemsize among combine reductions.
    partial_itemsize: int = 0
    #: The plan-cache token workers key their loaded-plan cache on: a
    #: fingerprint over (program, tiling signature, worker count).  Set by
    #: the backend, which knows the cache key; "" means unkeyed.
    token: str = ""
    #: Base positions whose only access in the program is a ``BH_FREE`` (an
    #: earlier flush's storage going away): no step addresses them, so they
    #: are never bound to a segment, with or without a memory plan.
    free_only: frozenset = frozenset()
    #: Whether a sharded map step runs ``BH_ERF``: the master then resolves
    #: the kernel runtime artifact (its vector ``erf``) before the flush and
    #: names the cache directory in the ``map`` frame, for workers to load
    #: it from — they never compile.
    shards_erf: bool = False

    def unbound_positions(self, memory_planned: bool) -> frozenset:
        """Base positions a flush's segment mapping leaves out.

        Without a memory plan every base a step addresses keeps a dedicated,
        zeroed segment: the baseline the differential axes compare against.
        """
        if not memory_planned:
            return self.free_only
        return self.free_only | self.private_positions

    @property
    def distributed_steps(self) -> Tuple[object, ...]:
        return tuple(
            step for step in self.steps if not isinstance(step, MasterStep)
        )

    @property
    def private_positions(self) -> frozenset:
        """Kernel-local base positions: no segment under a memory plan."""
        return frozenset(
            position for step in self.distributed_steps for position, _ in step.private
        )

    def _with_token(self, token: str) -> "DistPlan":
        return replace(self, token=token)


def _reads_data_operand(instruction) -> bool:
    """Whether a step's byte-code (or any in its kernel) has a data operand.

    Such a step may only run on the master: workers keep the program of the
    token's *first* flush, only the master's is bound to this flush's values.
    """
    return any(
        data_operand_positions(inner) for inner in (instruction.kernel or (instruction,))
    )


def _base_positions(program: Program) -> Dict[int, int]:
    from repro.runtime.plan import program_base_order

    return {id(base): pos for pos, base in enumerate(program_base_order(program))}


def _private_bases(
    index: int, slots, local_slots: frozenset, positions, defuse
) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """The bases of one sharded map step that need no shared-memory segment.

    ``local_slots`` already proves the lifetime *ends* here unobserved and
    that each slot is stored before it is loaded; leaving the base out of
    shared memory additionally requires that no other step touches it (a
    dead def elsewhere would write storage that does not exist) and that
    *every* slot of the base qualifies.
    """
    slots_of: Dict[int, List[int]] = {}
    for slot, view in enumerate(slots):
        slots_of.setdefault(id(view.base), []).append(slot)
    return tuple(
        (positions[base_id], tuple(base_slots))
        for base_id, base_slots in slots_of.items()
        if local_slots.issuperset(base_slots)
        and all(access.index == index for access in defuse.accesses[base_id])
    )


def build_dist_plan(
    program: Program, tiling: TileDecomposition, num_workers: int
) -> DistPlan:
    """Turn a tile decomposition into per-worker shard descriptors."""
    from repro.core.analysis import DefUse

    positions = _base_positions(program)
    defuse = None
    steps: List[object] = []
    max_partials = 0
    partial_itemsize = 0
    shards_erf = False
    for step in tiling.steps:
        instruction = program[step.index]
        if isinstance(step, SerialStep):
            steps.append(MasterStep(index=step.index, reason=step.reason))
            continue
        if _reads_data_operand(instruction):
            steps.append(MasterStep(index=step.index, reason="reads a data operand"))
            continue
        instructions = instruction.kernel if instruction.is_fused() else (instruction,)
        members, tail = split_tail(instructions)
        slots = kernel_slot_views(members) if members else ()
        private = ()
        if step.local_slots:
            if defuse is None:
                defuse = DefUse.analyze(program)
            private = _private_bases(step.index, slots, step.local_slots, positions, defuse)
        shards_erf |= any(inner.opcode is OpCode.BH_ERF for inner in members)
        if isinstance(step, TiledMapStep):
            # partition_length clamps to min(workers, rows): every shard
            # is non-empty by construction, workers beyond the clamp are
            # simply not launched for this step.
            shards = tuple(
                TileSpan(start, count)
                for start, count in partition_length(slots[0].shape[0], num_workers)
            )
            steps.append(MapShardStep(index=step.index, shards=shards, private=private))
            continue
        assert isinstance(step, TiledReduceStep)
        dealt = partition_length(len(step.spans), num_workers)
        assignments = tuple(
            tuple(range(start, start + count)) for start, count in dealt
        ) + ((),) * (num_workers - len(dealt))
        partial = partial_dtype(tail) if step.combine else None
        steps.append(
            ReduceShardStep(
                index=step.index,
                spans=step.spans,
                tile_axis=step.tile_axis,
                combine=step.combine,
                assignments=assignments,
                partial_dtype=partial.str if step.combine else "",
                private=private,
            )
        )
        if step.combine:
            max_partials = max(max_partials, len(step.spans))
            partial_itemsize = max(partial_itemsize, partial.itemsize)
    addressed = {
        id(view.base)
        for instruction in program
        if instruction.opcode is not OpCode.BH_FREE
        for view in instruction.views()
    }
    return DistPlan(
        num_workers=num_workers,
        steps=tuple(steps),
        max_partials=max_partials,
        partial_itemsize=partial_itemsize,
        free_only=frozenset(
            position for base_id, position in positions.items() if base_id not in addressed
        ),
        shards_erf=shards_erf,
    )


def validate_dist_plan(
    program: Program, tiling, plan: DistPlan, check: bool = False
) -> int:
    """Structural soundness of a shard plan against its program.

    Whoever executes shards checks a plan once before its first execution —
    each worker on ``load``, the master in ``prepare_plan`` when no worker
    will load it (one shard).  With ``check`` (the ``check_ir`` knob) the
    tiling and dist-adoption checks run too.  Step indices
    must be in range and match the tiling's step kinds, map shards must be
    non-empty and exactly partition the step's rows, private bases (the
    positions a flush may leave unmapped) must name real positions once,
    reduce assignments must cover every span exactly once, and no step a
    worker executes may read a data operand (the worker's program is the
    token's first flush's, so it would replay that flush's value).  Returns the
    number of checks run (one per step, plus two with ``check``); raises
    :class:`~repro.dist.protocol.ProtocolError` on violation.
    """
    from repro.dist.protocol import ProtocolError
    from repro.runtime.plan import program_base_order

    checks = 0
    num_bases = len(program_base_order(program))
    private_seen: set = set()
    if len(plan.steps) != len(tiling.steps):
        raise ProtocolError(
            f"shard plan has {len(plan.steps)} steps, tiling has {len(tiling.steps)}"
        )
    for shard_step, tile_step in zip(plan.steps, tiling.steps):
        checks += 1
        if shard_step.index != tile_step.index:
            raise ProtocolError(
                f"shard step index {shard_step.index} != tiling index {tile_step.index}"
            )
        if shard_step.index >= len(program):
            raise ProtocolError(f"step index {shard_step.index} out of range")
        if isinstance(shard_step, MasterStep):
            continue
        if _reads_data_operand(program[shard_step.index]):
            raise ProtocolError(
                f"distributed step {shard_step.index} reads a data operand"
            )
        for position, _ in shard_step.private:
            if not 0 <= position < num_bases or position in private_seen:
                raise ProtocolError(
                    f"step {shard_step.index} claims base position "
                    f"{position} as private (of {num_bases}, each at most once)"
                )
            private_seen.add(position)
        if isinstance(shard_step, MapShardStep):
            if not shard_step.shards:
                raise ProtocolError(f"map step {shard_step.index} has no shards")
            cursor = 0
            for span in shard_step.shards:
                if span.count <= 0:
                    raise ProtocolError(
                        f"map step {shard_step.index} carries an empty shard"
                    )
                if span.start != cursor:
                    raise ProtocolError(
                        f"map step {shard_step.index} shards are not contiguous"
                    )
                cursor += span.count
        elif isinstance(shard_step, ReduceShardStep):
            dealt = sorted(
                position
                for assignment in shard_step.assignments
                for position in assignment
            )
            if dealt != list(range(len(shard_step.spans))):
                raise ProtocolError(
                    f"reduce step {shard_step.index} assignments do not cover "
                    f"its spans exactly once"
                )
    if check:
        from repro.checks.plancheck import check_dist_adoption, check_tiling

        check_tiling(program, tiling)
        check_dist_adoption(program, plan)
        checks += 2
    return checks
