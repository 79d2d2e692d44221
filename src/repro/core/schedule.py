"""Dependency-graph fusion scheduling: legal clustering of byte-codes.

The paper frames byte-code fusion as a *spectrum* of transformations.  The
low end — maximal runs of consecutive element-wise byte-codes — is what
:func:`repro.runtime.kernel.partition_into_kernels` implements: any
interleaved reduction, system byte-code or shape change cuts the kernel, so
real workloads (a stencil with a per-step norm, Black–Scholes with
diagnostics) launch far more kernels than their dependency structure
requires.

This module implements the next rung: a **dependency-graph fusion
scheduler**.  It builds a data-dependency DAG over the program (reusing the
:class:`~repro.core.analysis.DefUse` index), then clusters *non-adjacent*
fusable element-wise byte-codes by legal topological reordering.  Every
merge that is legal and fits the kernel-size limit is taken: fusing a
byte-code into a kernel always saves its launch, so there is nothing to
price.  What a schedule saves is ``kernels_before - kernels_after``.

Legality rules (what an edge in the DAG means):

* **flow (read-after-write)** — an instruction reading a view that may
  overlap an earlier instruction's written view must stay after it;
* **anti (write-after-read)** — an instruction overwriting a view an
  earlier instruction reads must stay after it;
* **output (write-after-write)** — overlapping writes keep their order;
* ``BH_SYNC`` counts as a read of its view (an observation point), and a
  ``BH_FREE`` is a barrier for its base: every earlier access happens
  before it, every later access after it.

Reads never conflict with reads, so two windows of one base that are only
read can reorder freely — which is exactly what lets the scheduler hoist an
element-wise chain past an interleaved reduction.  A reduction of what a
kernel just stored may then *end* that kernel (:func:`_tail_refusal`): it
reads its producer's values, and the array between them never exists.

The result is a :class:`FusionSchedule`.  Like the tile decomposition and
the memory plan it is **structural**: items reference byte-codes by program
index, never by base identity, so the schedule computed once per plan-cache
miss replays against every rebound flush.  One seam —
:func:`compute_schedule` — serves every consumer: the optimizer's
:class:`~repro.core.fusion.FusionPass` bakes the scheduled order into the
optimized program (which the memory planner consumes, so
fusion-shortened lifetimes improve buffer aliasing),
and the tiled parallel backend schedules plan-less programs through the
same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.core.analysis import DefUse
from repro.runtime.kernel import MAX_KERNEL_SIZE, Kernel, _slot_walk, partition_into_kernels
from repro.runtime.tiling import store_first_slots, tail_serial_reason
from repro.utils.config import Config, get_config
from repro.utils.errors import ExecutionError

#: Recognised ``fusion_scheduler`` configuration values.
SCHEDULERS = ("dag", "consecutive")


def schedule_signature(config: Optional[Config] = None) -> tuple:
    """The configuration slice a computed :class:`FusionSchedule` depends on."""
    config = config if config is not None else get_config()
    return (config.fusion_scheduler,)


# --------------------------------------------------------------------------- #
# The dependency DAG
# --------------------------------------------------------------------------- #


def dependency_graph(
    program: Program, defuse: Optional[DefUse] = None
) -> Tuple[List[Set[int]], List[int]]:
    """Build the data-dependency DAG of ``program``.

    Returns ``(successors, predecessor_counts)``: ``successors[i]`` is the
    set of instruction indices that must execute after instruction ``i``,
    and ``predecessor_counts[j]`` how many instructions must execute before
    ``j``.  Edges follow the legality rules in the module docstring; all
    edges point forward in program order, so the graph is acyclic by
    construction.
    """
    defuse = defuse if defuse is not None else DefUse.analyze(program)
    n = len(program)
    successors: List[Set[int]] = [set() for _ in range(n)]
    predecessors = [0] * n

    def add_edge(earlier: int, later: int) -> None:
        if earlier != later and later not in successors[earlier]:
            successors[earlier].add(later)
            predecessors[later] += 1

    for base_id, accesses in defuse.accesses.items():
        for position, first in enumerate(accesses):
            for second in accesses[position + 1 :]:
                if second.index == first.index:
                    continue  # one instruction's own read/write pair
                if not (first.is_write or second.is_write):
                    continue  # reads never conflict with reads
                if first.view.overlaps(second.view):
                    add_edge(first.index, second.index)
        # A free is a barrier for its base: it must stay after every
        # earlier access and before every later one.
        for free_index in defuse.freed.get(base_id, ()):
            for access in accesses:
                if access.index < free_index:
                    add_edge(access.index, free_index)
                elif access.index > free_index:
                    add_edge(free_index, access.index)
    return successors, predecessors


# --------------------------------------------------------------------------- #
# The schedule artifact
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FusionSchedule:
    """The scheduled clustering of one program.

    ``items`` is the scheduled execution order: each entry is a tuple of
    source-program instruction indices forming one launch unit — a
    multi-index tuple is a fused kernel, a singleton a stand-alone
    byte-code.  Everything is structural (indices only), so a schedule
    computed for one program applies to any program with the same canonical
    structural key — exactly like the tile decomposition and the memory
    plan cached on an :class:`~repro.runtime.plan.ExecutionPlan`.
    """

    scheduler: str
    items: Tuple[Tuple[int, ...], ...]
    #: Kernel launches had every byte-code launched individually.
    kernels_before: int
    #: Kernel launches under this schedule (a cluster is one launch).
    kernels_after: int
    #: Byte-codes that execute at a different relative position than in the
    #: source program (non-adjacent clustering moved them).
    bytecodes_reordered: int
    #: Kernels that end in a reduction of what they just stored (the
    #: reduction's source then needs no storage outside the kernel).
    reduction_tails: int = 0
    #: Why a reduction of a kernel's store stayed a launch of its own:
    #: ``(reason, count)`` pairs, sorted.
    tail_refusals: Tuple[Tuple[str, int], ...] = ()

    @property
    def order(self) -> Tuple[int, ...]:
        """Flattened scheduled execution order of source indices."""
        return tuple(index for item in self.items for index in item)

    @property
    def is_identity_order(self) -> bool:
        """True when no byte-code moved relative to program order."""
        return self.order == tuple(range(len(self.order)))

    @property
    def num_clusters(self) -> int:
        """Fused kernels (items holding more than one byte-code)."""
        return sum(1 for item in self.items if len(item) > 1)

    def materialize(
        self, program: Program, min_kernel_size: int = 2, tag: str = "fusion"
    ) -> Program:
        """Emit the scheduled program, wrapping clusters into ``BH_FUSED``.

        Clusters smaller than ``min_kernel_size`` are emitted as bare
        byte-codes (in cluster order) — fusing a single byte-code only adds
        wrapper overhead.
        """
        result: List[Instruction] = []
        for item in self.items:
            instructions = [program[index] for index in item]
            # (A cluster opens with an element-wise byte-code; one reduction
            # may close it.  A lone reduction or system byte-code stays bare.)
            if len(instructions) >= min_kernel_size and instructions[0].is_elementwise():
                result.append(
                    Instruction(OpCode.BH_FUSED, (), kernel=instructions, tag=tag)
                )
            else:
                result.extend(instructions)
        return Program(result)

    def stats(self) -> dict:
        """Scheduler counters for reports, the CLI and ``--stats-json``."""
        return {
            "fusion_scheduler": self.scheduler,
            "fusion_kernels_before": self.kernels_before,
            "fusion_kernels_after": self.kernels_after,
            "fusion_clusters": self.num_clusters,
            "fusion_bytecodes_reordered": self.bytecodes_reordered,
            "fusion_reduction_tails": self.reduction_tails,
            "fusion_tail_refusals": dict(self.tail_refusals),
        }


def fusion_schedule_of(report) -> Optional[FusionSchedule]:
    """The fusion schedule an optimization report's fusion pass computed.

    The pipeline may run the fusion pass several times on its way to a
    fixed point; later runs see the already-fused program and typically
    schedule it to itself.  The returned schedule carries the *final*
    clustering structure with the transformation counters aggregated across
    runs: launches before scheduling from the first run, launches after
    from the last, reorders summed.
    """
    if report is None:
        return None
    schedules = [
        stats.artifacts["fusion_schedule"]
        for stats in getattr(report, "pass_stats", ())
        if "fusion_schedule" in stats.artifacts
    ]
    if not schedules:
        return None
    if len(schedules) == 1:
        return schedules[0]
    return FusionSchedule(
        scheduler=schedules[-1].scheduler,
        items=schedules[-1].items,
        kernels_before=schedules[0].kernels_before,
        kernels_after=schedules[-1].kernels_after,
        bytecodes_reordered=sum(s.bytecodes_reordered for s in schedules),
        # A later run sees the fused program: the tails are inside its
        # BH_FUSED byte-codes and the refused reductions have no kernel left
        # to ask, so both are the first run's.
        reduction_tails=schedules[0].reduction_tails,
        tail_refusals=schedules[0].tail_refusals,
    )


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #


def compute_schedule(
    program: Program,
    config: Optional[Config] = None,
    max_kernel_size: int = MAX_KERNEL_SIZE,
    min_kernel_size: int = 1,
) -> FusionSchedule:
    """Compute the fusion schedule of ``program`` under ``config``.

    This is the single partitioning seam shared by the optimizer's fusion
    pass and the tiled parallel backend's plan-less execution.  The policy
    is the configuration's ``fusion_scheduler``: ``"dag"`` reorders and
    clusters over the dependency graph, ``"consecutive"`` reproduces the
    adjacent runs of :func:`~repro.runtime.kernel.partition_into_kernels`.

    Clusters smaller than ``min_kernel_size`` are broken back into
    singletons (in cluster order), so the schedule's launch counts describe
    exactly what :meth:`FusionSchedule.materialize` will emit for a caller
    with the same threshold.
    """
    config = config if config is not None else get_config()
    scheduler = config.fusion_scheduler
    if scheduler not in SCHEDULERS:
        raise ExecutionError(
            f"unknown fusion scheduler {scheduler!r}; available: {SCHEDULERS}"
        )
    refusals: Dict[str, int] = {}
    if scheduler == "dag":
        items = _dag_schedule(program, max_kernel_size, refusals)
    else:
        items = _consecutive_schedule(program, max_kernel_size)
    if min_kernel_size > 1:
        split_items: List[Tuple[int, ...]] = []
        for item in items:
            if len(item) == 1 or len(item) >= min_kernel_size:
                split_items.append(item)
            else:
                split_items.extend((index,) for index in item)
        items = split_items
    schedule = FusionSchedule(
        scheduler=scheduler,
        items=tuple(items),
        kernels_before=sum(
            1 for instruction in program if not instruction.is_system()
        ),
        kernels_after=sum(
            1
            for item in items
            if any(not program[index].is_system() for index in item)
        ),
        bytecodes_reordered=_count_reordered(items),
        reduction_tails=sum(
            1 for item in items if len(item) > 1 and program[item[-1]].is_reduction()
        ),
        tail_refusals=tuple(sorted(refusals.items())),
    )
    if config.check_ir:
        # This seam is the one place the schedule's indices still refer to
        # the program it was computed from, so the DAG cross-check happens
        # here — not in prepare_plan, where the fused program has already
        # been materialized and the indices no longer line up.
        from repro.checks.plancheck import maybe_check_schedule

        maybe_check_schedule(program, schedule, config)
    return schedule


def _tail_refusal(
    kernel: Kernel, reduction: Instruction, index: int, defuse: DefUse, scheduled
) -> Optional[str]:
    """Why ``reduction`` (program index ``index``) may not end ``kernel``.

    ``None`` when it may; ``""`` when the kernel does not write the
    reduction's source at all, so there is nothing to refuse.  Legal means:
    the tiling would run the kernel tile by tile with the bare reduction's
    spans (:func:`~repro.runtime.tiling.tail_serial_reason` — run whole, a
    rank-1 reduction is not bitwise the tiled one it replaces), and every
    base the members store dies inside the kernel — freed, never synced, no
    access by a byte-code not yet scheduled, stored before loaded — so the
    tiling's kernel-local rule gives none of them storage.
    """
    source = reduction.inputs[0]
    stores = kernel.output_views()
    if not any(view.base is source.base for view in stores):
        return ""
    # Liveness first: it is the cheap test and the common refusal.
    for base in {id(view.base): view.base for view in stores}.values():
        what = "reduction source" if base is source.base else "another store of the kernel"
        if id(base) in defuse.synced:
            return f"{what} is synced"
        if id(base) not in defuse.freed:
            return f"{what} is not freed"
        if any(
            not scheduled[access.index] and access.index != index
            for access in defuse.accesses[id(base)]
        ):
            return f"{what} is accessed again after the kernel"
    specs = _slot_walk(kernel.instructions)[2]
    if store_first_slots(specs) != {refs[0][1] for _, refs in specs}:
        return "kernel updates a base in place"
    return tail_serial_reason(kernel.instructions, reduction)


def _count_reordered(items: Sequence[Tuple[int, ...]]) -> int:
    """Byte-codes emitted after a higher-indexed byte-code (i.e. that moved)."""
    highest = -1
    moved = 0
    for item in items:
        for index in item:
            if index < highest:
                moved += 1
            else:
                highest = index
    return moved


def _consecutive_schedule(program: Program, max_size: int) -> List[Tuple[int, ...]]:
    """The low-end policy: maximal runs of adjacent fusable byte-codes.

    Delegates the clustering itself to
    :func:`~repro.runtime.kernel.partition_into_kernels` — the two must
    never drift apart — and only derives the index items (consecutive
    clustering preserves program order, so indices are assigned by walking
    the items in sequence).
    """
    items: List[Tuple[int, ...]] = []
    index = 0
    for item in partition_into_kernels(program, max_size):
        size = item.size if isinstance(item, Kernel) else 1
        items.append(tuple(range(index, index + size)))
        index += size
    return items


def _dag_schedule(
    program: Program, max_size: int, refusals: Dict[str, int]
) -> List[Tuple[int, ...]]:
    """Greedy topological list scheduling with legality-driven clustering.

    Ready byte-codes are consumed in program-index order (a stable
    tie-break: a program already in scheduled form re-schedules to
    itself).  Whenever an element-wise byte-code is scheduled it opens a
    cluster, and the scheduler keeps absorbing the lowest-indexed ready
    byte-code the kernel accepts
    (:meth:`~repro.runtime.kernel.Kernel.can_accept`: shared iteration
    space, loop-fusion legality, the size limit).  Absorbing a byte-code
    releases its dependents, so whole dependent chains fall into one kernel
    even when a reduction or system byte-code sat between them in program
    order.

    A kernel that can absorb no more may then take **one reduction as its
    tail** (:func:`_tail_refusal` is the legality rule; the reasons of the
    refused ones are counted into ``refusals``).
    """
    import bisect

    n = len(program)
    defuse = DefUse.analyze(program)
    successors, predecessors = dependency_graph(program, defuse)
    ready: List[int] = sorted(i for i in range(n) if predecessors[i] == 0)
    items: List[Tuple[int, ...]] = []
    scheduled = [False] * n

    def release(index: int) -> None:
        scheduled[index] = True
        for successor in sorted(successors[index]):
            predecessors[successor] -= 1
            if predecessors[successor] == 0:
                bisect.insort(ready, successor)

    while ready:
        index = ready.pop(0)
        instruction = program[index]
        if not instruction.is_elementwise():
            items.append((index,))
            release(index)
            continue
        kernel = Kernel([instruction])
        cluster = [index]
        release(index)
        while kernel.size < max_size:
            chosen = next(
                (i for i in ready if kernel.can_accept(program[i], max_size)), None
            )
            if chosen is None:
                break
            ready.remove(chosen)
            kernel.append(program[chosen])
            cluster.append(chosen)
            release(chosen)
        # The closed kernel may end in one reduction of what it just stored.
        for candidate_index in ready if kernel.size < max_size else ():
            candidate = program[candidate_index]
            if not candidate.is_reduction():
                continue
            reason = _tail_refusal(kernel, candidate, candidate_index, defuse, scheduled)
            if reason is None:
                ready.remove(candidate_index)
                cluster.append(candidate_index)
                release(candidate_index)
                break
            if reason:
                refusals[reason] = refusals.get(reason, 0) + 1
        items.append(tuple(cluster))

    scheduled = sum(len(item) for item in items)
    if scheduled != n:
        raise ExecutionError(
            f"fusion scheduler covered {scheduled} of {n} byte-codes; "
            "the dependency graph is not acyclic"
        )
    return items
