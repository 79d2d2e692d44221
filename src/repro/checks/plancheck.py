"""Independent soundness checks for plan-time artifacts.

A cached :class:`~repro.runtime.plan.ExecutionPlan` carries derived
artifacts whose corruption would execute silently wrong: the memory plan
(slot aliasing and zero-fill waivers), the fusion schedule (a reordering of
the byte-codes), the tile decomposition (the parallel split) and, on the
distributed backend, the shard plan's private bases.  Each was
computed by its own analysis; this module *re-derives the safety conditions
from the program with separate code* and cross-checks the artifact against
them:

* **memory plan** — a shared slot's occupants must be defined in the
  program with pairwise-disjoint liveness intervals, an observable one
  (its *adopter*) must be the last of them, the slot must be big enough
  for each, and a zero-fill may be waived only for a base that is fully
  written before any read (:func:`check_memory_plan`);
* **fusion schedule** — the scheduled order must be a permutation of the
  program that respects every dependency-DAG edge, and every multi-element
  cluster must contain only element-wise byte-codes
  (:func:`check_schedule`, invoked from
  :func:`~repro.core.schedule.compute_schedule` under ``check_ir``);
* **tiling** — a tiled step must be hazard-free under an independent
  recomputation (same-shape operands, no overlapping windows of one base)
  and its spans must exactly partition the tiled axis
  (:func:`check_tiling`);
* **dist adoption** — a base the shard plan keeps out of shared memory
  must be touched by exactly one sharded map step, stored there before it
  is loaded, read by no halo fetch, freed and never synced — or be
  touched by nothing but its ``BH_FREE``
  (:func:`check_dist_adoption`; workers run it on ``load``).

``Backend.prepare_plan`` and ``Backend.execute_plan`` call
:func:`maybe_check_plan` under the ``check_ir`` knob, so a corrupted plan —
whether freshly computed or replayed from the cache — can never execute.
Violations raise :class:`~repro.utils.errors.PlanCheckError`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.checks import COUNTERS
from repro.core.analysis import BaseInterval, live_intervals
from repro.utils.config import Config
from repro.utils.errors import PlanCheckError

__all__ = [
    "PlanCheckError",
    "check_memory_plan",
    "check_schedule",
    "check_tiling",
    "check_dist_adoption",
    "check_plan",
    "maybe_check_plan",
    "maybe_check_schedule",
]


# --------------------------------------------------------------------------- #
# Memory plan
# --------------------------------------------------------------------------- #


def check_memory_plan(program: Program, memory_plan) -> None:
    """Cross-check ``memory_plan`` against freshly recomputed liveness."""
    from repro.runtime.plan import program_base_order

    order = program_base_order(program)
    intervals = {
        id(interval.base): interval for interval in live_intervals(program)
    }
    interval_of: Dict[int, BaseInterval] = {}
    for position, base in enumerate(order):
        interval = intervals.get(id(base))
        if interval is not None:
            interval_of[position] = interval

    occupants_by_slot: Dict[int, List[Tuple[BaseInterval, int]]] = {}
    for position, directive in memory_plan.directives.items():
        if position < 0 or position >= len(order):
            raise PlanCheckError(
                f"memory plan addresses base position {position} but the "
                f"program only has {len(order)} base(s)"
            )
        interval = interval_of.get(position)
        if interval is None:
            raise PlanCheckError(
                f"memory plan has a directive for base position {position} "
                f"({order[position].name!r}) which the program never accesses"
            )
        if not directive.zero_fill and not interval.fully_defined_before_read:
            raise PlanCheckError(
                f"memory plan waives the zero fill of base "
                f"{interval.base.name!r} (position {position}) but the base "
                f"is not fully written before its first read"
            )
        if directive.slot is None:
            continue
        if not interval.defined_in_program:
            raise PlanCheckError(
                f"memory plan aliases base {interval.base.name!r} (position "
                f"{position}) onto shared slot {directive.slot}, but the "
                f"base is read before its first write in the program"
            )
        if directive.adopts == interval.is_temporary:
            kind = "a temporary" if interval.is_temporary else "observable"
            raise PlanCheckError(
                f"memory plan puts base {interval.base.name!r} (position "
                f"{position}) on shared slot {directive.slot} with "
                f"adopts={directive.adopts}, but the base is {kind} (synced or "
                f"not freed means observable): exactly the observable "
                f"occupant takes the slot's buffer with it"
            )
        if directive.slot_nbytes < interval.base.nbytes:
            raise PlanCheckError(
                f"shared slot {directive.slot} holds {directive.slot_nbytes} "
                f"byte(s) but occupant {interval.base.name!r} needs "
                f"{interval.base.nbytes}"
            )
        occupants_by_slot.setdefault(directive.slot, []).append(
            (interval, position)
        )

    for slot, occupants in occupants_by_slot.items():
        occupants.sort(key=lambda item: item[0].start)
        for (prev, prev_pos), (nxt, nxt_pos) in zip(occupants, occupants[1:]):
            if not prev.is_temporary:
                raise PlanCheckError(
                    f"shared slot {slot} hands the storage of observable base "
                    f"{prev.base.name!r} (position {prev_pos}; synced or not "
                    f"freed) on to {nxt.base.name!r} (position {nxt_pos}): an "
                    f"observable base may only be a slot's last occupant"
                )
            # The planner releases a slot after its occupant's last *use*
            # (the trailing deferred BH_FREE does not extend occupancy), so
            # disjointness means the next lifetime starts strictly later.
            if nxt.start <= prev.last_use:
                raise PlanCheckError(
                    f"shared slot {slot} aliases overlapping lifetimes: "
                    f"{prev.base.name!r} (position {prev_pos}) is live "
                    f"through instruction {prev.last_use} but "
                    f"{nxt.base.name!r} (position {nxt_pos}) starts at "
                    f"instruction {nxt.start}"
                )


# --------------------------------------------------------------------------- #
# Fusion schedule
# --------------------------------------------------------------------------- #


def check_schedule(program: Program, schedule) -> None:
    """Cross-check a fusion schedule against the program's dependency DAG."""
    from repro.core.schedule import dependency_graph

    order = schedule.order
    n = len(program)
    if sorted(order) != list(range(n)):
        raise PlanCheckError(
            f"fusion schedule is not a permutation of the {n} byte-code(s): "
            f"scheduled order {order}"
        )
    position = {index: pos for pos, index in enumerate(order)}
    successors, _ = dependency_graph(program)
    for earlier, later_set in enumerate(successors):
        for later in later_set:
            if position[later] <= position[earlier]:
                raise PlanCheckError(
                    f"fusion schedule violates the dependency edge "
                    f"{earlier} -> {later}: instruction {later} is "
                    f"scheduled at position {position[later]}, before "
                    f"instruction {earlier} at position {position[earlier]}"
                )
    for item in schedule.items:
        if len(item) < 2:
            continue
        for index in item:
            # One reduction may end a cluster; nothing else joins one.
            if not program[index].is_elementwise() and not (
                index == item[-1] and program[index].is_reduction()
            ):
                raise PlanCheckError(
                    f"fusion schedule clusters instruction {index} "
                    f"({program[index].opcode}) into a kernel, but only "
                    f"element-wise byte-codes and one closing reduction may fuse"
                )


# --------------------------------------------------------------------------- #
# Tiling
# --------------------------------------------------------------------------- #


def _check_spans(spans, rows: int, what: str) -> None:
    """``spans`` must exactly partition ``rows`` contiguous rows."""
    expected_start = 0
    for span in spans:
        if span.count <= 0:
            raise PlanCheckError(f"{what}: tile span {span} is empty")
        if span.start != expected_start:
            raise PlanCheckError(
                f"{what}: tile spans do not partition the axis — expected "
                f"a span starting at row {expected_start}, got {span}"
            )
        expected_start += span.count
    if expected_start != rows:
        raise PlanCheckError(
            f"{what}: tile spans cover {expected_start} row(s) of {rows}"
        )


def _check_row_independent(inner, what: str) -> Tuple[int, ...]:
    """The shared shape of a hazard-free element-wise byte-code list."""
    shape = next((i.out.shape for i in inner if i.out is not None), None)
    if shape is None or len(shape) == 0:
        raise PlanCheckError(f"{what}: no output iteration space")
    views = [operand for i in inner for operand in i.operands if is_view(operand)]
    for view in views:
        if view.shape != shape:
            raise PlanCheckError(
                f"{what}: operand view of {view.base.name!r} has "
                f"shape {tuple(view.shape)}, kernel iterates "
                f"{tuple(shape)} — rows would not be independent"
            )
    for i in inner:
        for write in i.writes():
            for other in views:
                if other is write or other.same_view(write):
                    continue
                if write.overlaps(other):
                    raise PlanCheckError(
                        f"{what}: written view of "
                        f"{write.base.name!r} overlaps a shifted "
                        f"window of the same base — tiles would "
                        f"leak across rows"
                    )
    return shape


def check_tiling(program: Program, tiling) -> None:
    """Cross-check a tile decomposition against recomputed overlap hazards."""
    from repro.runtime.tiling import SerialStep, TiledMapStep, TiledReduceStep

    for step in tiling.steps:
        if isinstance(step, SerialStep):
            continue  # running whole on one thread is always sound
        if step.index < 0 or step.index >= len(program):
            raise PlanCheckError(
                f"tiling addresses instruction {step.index} but the program "
                f"only has {len(program)} byte-code(s)"
            )
        instruction = program[step.index]
        what = f"tiled step at instruction {step.index} ({instruction.opcode})"
        if isinstance(step, TiledMapStep):
            if not (instruction.is_elementwise() or instruction.is_fused()):
                raise PlanCheckError(
                    f"{what}: row-tiled as a map but it is not element-wise"
                )
            inner = (
                instruction.kernel if instruction.is_fused() else (instruction,)
            )
            shape = _check_row_independent(inner, what)
            _check_spans(step.spans, shape[0], what)
        elif isinstance(step, TiledReduceStep):
            members = instruction.kernel[:-1] if instruction.is_fused() else ()
            if instruction.is_fused():
                instruction = instruction.kernel[-1]
            if not instruction.is_reduction():
                raise PlanCheckError(
                    f"{what}: tiled as a reduction but it is not (and does "
                    f"not end in) one"
                )
            source = instruction.inputs[0]
            out = instruction.out
            if members:
                # A kernel ending in the reduction: its members run span by
                # span before it, so they must be a hazard-free map over the
                # very view the reduction reads.
                _check_row_independent(members, what)
                if not any(
                    is_view(source) and view.same_view(source)
                    for member in members
                    for view in member.writes()
                ):
                    raise PlanCheckError(
                        f"{what}: the closing reduction reads a view no "
                        f"member of its kernel stores"
                    )
            if not is_view(source) or out is None:
                raise PlanCheckError(f"{what}: malformed reduction operands")
            axis = int(instruction.constants[0].value)
            if out.base is source.base and out.overlaps(source):
                raise PlanCheckError(
                    f"{what}: output aliases the reduction input"
                )
            if step.combine:
                if source.ndim != 1 or out.nelem != 1:
                    raise PlanCheckError(
                        f"{what}: partial-combine tiling requires a full 1-D "
                        f"reduction (source rank {source.ndim}, output "
                        f"{out.nelem} element(s))"
                    )
                _check_spans(step.spans, source.shape[0], what)
            else:
                if step.tile_axis == axis:
                    raise PlanCheckError(
                        f"{what}: tiled along the reduced axis {axis} "
                        f"without combining — tiles would not own disjoint "
                        f"output slices"
                    )
                if step.tile_axis < 0 or step.tile_axis >= source.ndim:
                    raise PlanCheckError(
                        f"{what}: tile axis {step.tile_axis} out of range "
                        f"for rank {source.ndim}"
                    )
                rows = source.shape[step.tile_axis]
                if len(out.shape) == 0 or out.shape[0] != rows:
                    raise PlanCheckError(
                        f"{what}: output has {out.shape} but the tiled axis "
                        f"holds {rows} row(s) — output is not sliceable"
                    )
                _check_spans(step.spans, rows, what)
        else:
            raise PlanCheckError(f"{what}: unknown tiling step {type(step)!r}")


# --------------------------------------------------------------------------- #
# Dist adoption
# --------------------------------------------------------------------------- #


def check_dist_adoption(program: Program, dist_plan) -> None:
    """Cross-check the bases a shard plan keeps out of shared memory.

    A *private* base gets no segment and no entry in a flush's ``map``
    frame; each worker keeps its slots in the uninitialised block scratch
    of the template launch.  That is sound only if nothing outside the one kernel
    ever addresses the base and the kernel never reads what it did not
    just store.
    """
    from repro.bytecode.opcodes import OpCode
    from repro.runtime.plan import program_base_order

    order = program_base_order(program)
    for step in dist_plan.steps:
        if not step.private:
            continue
        halo_positions = {halo.base_position for halo in getattr(step, "halos", ())}
        for position, _ in step.private:
            if position < 0 or position >= len(order):
                raise PlanCheckError(
                    f"shard plan keeps base position {position} private but "
                    f"the program only has {len(order)} base(s)"
                )
            base = order[position]
            what = (
                f"shard plan keeps base {base.name!r} (position {position}) "
                f"out of shared memory for step {step.index}"
            )
            if position in halo_positions:
                raise PlanCheckError(f"{what}, but a halo fetch reads it")
            freed = False
            for index, instruction in enumerate(program):
                touches = any(view.base is base for view in instruction.views())
                if not touches:
                    continue
                if instruction.opcode is OpCode.BH_FREE:
                    freed = True
                elif instruction.opcode is OpCode.BH_SYNC:
                    raise PlanCheckError(f"{what}, but instruction {index} syncs it")
                elif index != step.index:
                    raise PlanCheckError(
                        f"{what}, but instruction {index} "
                        f"({instruction.opcode}) also accesses it"
                    )
            if not freed:
                raise PlanCheckError(f"{what}, but the program never frees it")
            instruction = program[step.index]
            inner = instruction.kernel if instruction.is_fused() else (instruction,)
            stored: List = []
            for payload in inner:
                for view in payload.reads():
                    if view.base is base and not any(
                        view.same_view(earlier) for earlier in stored
                    ):
                        raise PlanCheckError(
                            f"{what}, but the kernel loads {view!r} before "
                            f"storing it"
                        )
                stored.extend(view for view in payload.writes() if view.base is base)
    only_freed = {id(order[position]): position for position in dist_plan.free_only}
    for index, instruction in enumerate(program):
        if instruction.opcode is OpCode.BH_FREE:
            continue
        for view in instruction.views():
            if id(view.base) in only_freed:
                raise PlanCheckError(
                    f"shard plan keeps base position {only_freed[id(view.base)]} "
                    f"out of shared memory as only freed, but instruction {index} "
                    f"({instruction.opcode}) accesses it"
                )


# --------------------------------------------------------------------------- #
# Plan-level entry points
# --------------------------------------------------------------------------- #


def check_plan(plan) -> int:
    """Check every artifact attached to ``plan``; returns artifacts checked.

    Raises :class:`PlanCheckError` on the first violation.
    """
    checked = 0
    try:
        memory_plan = getattr(plan, "memory_plan", None)
        if memory_plan is not None:
            COUNTERS.note_plan_check()
            checked += 1
            check_memory_plan(plan.optimized, memory_plan)
        tiling = getattr(plan, "tiling", None)
        if tiling is not None:
            COUNTERS.note_plan_check()
            checked += 1
            check_tiling(plan.optimized, tiling)
        dist_plan = getattr(plan, "dist_plan", None)
        if dist_plan is not None:
            COUNTERS.note_plan_check()
            checked += 1
            check_dist_adoption(plan.optimized, dist_plan)
    except PlanCheckError:
        COUNTERS.note_plan_failure()
        raise
    return checked


def maybe_check_plan(plan, config: Config) -> None:
    """Run :func:`check_plan` when ``config``'s ``check_ir`` knob is on.

    The per-plan ``plan_checks_run`` counter feeds the engine's per-flush
    statistics; it is bumped under the plan lock because cached plans are
    shared across sessions.
    """
    if not config.check_ir:
        return
    checked = check_plan(plan)
    if checked:
        with plan.lock:
            plan.plan_checks_run += checked


def maybe_check_schedule(program: Program, schedule, config: Config) -> None:
    """Run :func:`check_schedule` when ``config``'s ``check_ir`` knob is on.

    Called from :func:`~repro.core.schedule.compute_schedule` — the one seam
    every schedule consumer (fusion pass, plan-less parallel backend) goes
    through, and the only place the schedule's indices still refer to the
    program they were computed from.
    """
    if not config.check_ir:
        return
    COUNTERS.note_plan_check()
    try:
        check_schedule(program, schedule)
    except PlanCheckError:
        COUNTERS.note_plan_failure()
        raise
