"""Plan-time memory planning: liveness-driven buffer aliasing.

The optimizer's context-aware rewrites already lean on in-place storage
semantics (the power-expansion rewrite reuses the result tensor as scratch
space); this module extends the same idea to *every* temporary the runtime
materializes.  At plan-compilation time — once per plan-cache miss — the
optimized program's per-base lifetime intervals
(:func:`repro.core.analysis.live_intervals`) feed a linear-scan interval
allocator that:

* assigns temporaries with provably disjoint lifetimes to shared storage
  **slots** (one buffer, several bases over time), and lets a base the
  program defines but that outlives it (the flush's result) take a released
  slot of its own size class as its **final occupant**,
* records **zero-fill waivers** for bases whose every element is written
  before it can be read (a recycled buffer can be handed over unzeroed),
* computes the **planned peak bytes** of the execution alongside the
  unplanned baseline, so benchmarks can assert the footprint reduction.

The result is a :class:`MemoryPlan`, cached inside the
:class:`~repro.runtime.plan.ExecutionPlan` exactly like the parallel
backend's tile decomposition: everything it stores is structural (canonical
base positions, byte sizes, boolean flags — never base identities), so a
warm plan-cache hit rebinds it onto the new flush's fresh bases in one
linear walk (:meth:`MemoryPlan.bind`) and replays the planning work for
free.

Safety invariants, mirroring the paper's "only if we do not use the
inverse for anything else" caveat:

* **an observable base is never followed in a slot** — anything synced or
  not freed within the program may take a released slot only as its last
  occupant (the slot is closed and its buffer becomes the base's own), and
  a base read before its first in-program write (its value arrives from a
  previous flush or ``set_data``) keeps dedicated storage;
* a slot is handed to its next occupant only after the previous occupant's
  *last use* — the trailing ``BH_FREE`` the front-end emits at the end of
  a batch does not delay reuse, because liveness already proves no access
  in between;
* a zero fill is waived only when a base-covering write precedes every
  read, so the differential harness stays bitwise-identical with planning
  on and off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bytecode.program import Program
from repro.core.analysis import BaseInterval, live_intervals
from repro.runtime.memory import BufferDirective, MemoryManager, size_class
from repro.runtime.plan import program_base_order
from repro.utils.config import Config


@dataclass
class MemoryPlan:
    """The replayable storage layout of one optimized program.

    Directives are keyed by *canonical base position* (first-use order, see
    :func:`~repro.runtime.plan.program_base_order`), never by base
    identity: the plan cache rebinds the optimized program onto fresh base
    arrays every flush, and the layout follows along positionally.
    """

    #: Canonical base position -> directive (slot assignment / zero waiver).
    directives: Dict[int, BufferDirective] = field(default_factory=dict)
    num_bases: int = 0
    num_slots: int = 0
    #: How many temporaries were folded onto shared slots.
    aliased_bases: int = 0
    #: How many observable bases took a released slot as its final occupant.
    adopted_bases: int = 0
    #: Simulated peak bytes with slot sharing and last-use reclamation.
    planned_peak_bytes: int = 0
    #: Simulated peak bytes of the naive allocator (dedicated storage,
    #: reclaimed only at the ``BH_FREE``).
    unplanned_peak_bytes: int = 0
    #: Zero fills the plan waives per execution.
    zero_fills_waived: int = 0

    @classmethod
    def plan(cls, program: Program, config: Config) -> "MemoryPlan":
        """Compute the storage layout for ``program`` (one linear scan)."""
        order = program_base_order(program)
        position_of = {id(base): position for position, base in enumerate(order)}
        intervals = live_intervals(program)
        waive_zero = config.memory_zero_policy == "auto"

        directives: Dict[int, BufferDirective] = {}
        slots: List[_Slot] = []
        slotted = set()  # id(base) of every slot occupant
        aliased = 0
        adopted = 0
        waived = 0
        for interval in intervals:  # already sorted by first access
            position = position_of[id(interval.base)]
            zero_fill = not (waive_zero and interval.fully_defined_before_read)
            if not zero_fill:
                waived += 1
            slot = None
            nbytes = interval.base.nbytes
            if interval.is_temporary:
                slot = _claim_slot(slots, interval)
                slot.capacity = max(slot.capacity, nbytes)
                slot.release_index = interval.last_use
                slot.last_end = max(slot.last_end, interval.last_use)
                if len(slot.occupants) > 0:
                    aliased += 1
            elif interval.defined_in_program:
                # Observable, but born here: it may be a released slot's
                # final occupant.  The slot is closed — never handed on —
                # and held until the base's own free (or past the program),
                # so only a buffer of the size class the base would be given
                # anyway: a scalar result must not pin a grid.
                released = _released_slot(slots, interval)
                if released is not None and (
                    size_class(released.capacity) == size_class(nbytes)
                ):
                    slot = released
                    slot.release_index = len(program)
                    slot.last_end = interval.end if interval.freed else len(program)
                    adopted += 1
            if slot is not None:
                slot.occupants.append(position)
                slotted.add(id(interval.base))
            elif zero_fill:
                continue  # dedicated zeroed storage is the default anyway
            directives[position] = BufferDirective(
                slot=None if slot is None else slot.slot_id,
                slot_nbytes=nbytes,  # a slot's capacity is patched below
                zero_fill=zero_fill,
                adopts=slot is not None and not interval.is_temporary,
            )
        # Slot capacities are only final after the scan: patch them in.
        for slot in slots:
            for position in slot.occupants:
                directives[position] = replace(
                    directives[position], slot_nbytes=slot.capacity
                )

        planned, unplanned = _simulate_peaks(intervals, slotted, slots, len(program))
        return cls(
            directives=directives,
            num_bases=len(order),
            num_slots=len(slots),
            aliased_bases=aliased,
            adopted_bases=adopted,
            planned_peak_bytes=planned,
            unplanned_peak_bytes=unplanned,
            zero_fills_waived=waived,
        )

    def bind(self, program: Program) -> Dict[int, BufferDirective]:
        """Map the layout onto ``program``'s concrete bases.

        ``program`` must be (a rebinding of) the program the plan was
        computed from; the walk is the same canonical enumeration, so
        position *i* of the bound program is position *i* of the planned
        one.  Returns ``id(base) -> directive`` ready for
        :meth:`~repro.runtime.memory.MemoryManager.apply_plan`.
        """
        bound: Dict[int, BufferDirective] = {}
        for position, base in enumerate(program_base_order(program)):
            directive = self.directives.get(position)
            if directive is not None:
                bound[id(base)] = directive
        return bound

    def stats(self) -> Dict[str, int]:
        """Planner counters for reporting."""
        return {
            "memory_plan_bases": self.num_bases,
            "memory_plan_slots": self.num_slots,
            "memory_plan_aliased_bases": self.aliased_bases,
            "memory_plan_adopted_bases": self.adopted_bases,
            "memory_plan_planned_peak_bytes": self.planned_peak_bytes,
            "memory_plan_unplanned_peak_bytes": self.unplanned_peak_bytes,
            "memory_plan_zero_fills_waived": self.zero_fills_waived,
        }


@dataclass
class _Slot:
    """Linear-scan bookkeeping for one shared storage slot."""

    slot_id: int
    capacity: int
    #: Instruction index after which the current occupant is provably dead.
    release_index: int
    first_start: int
    last_end: int
    occupants: List[int] = field(default_factory=list)


def _released_slot(slots: List[_Slot], interval: BaseInterval) -> Optional[_Slot]:
    """The best-fitting released slot big enough for ``interval``, if any.

    Best fit is the smallest adequate capacity.  A closed slot (one an
    observable base took as its final occupant) is never released again.
    """
    adequate = [
        slot
        for slot in slots
        if slot.release_index < interval.start
        and slot.capacity >= interval.base.nbytes
    ]
    if not adequate:
        return None
    return min(adequate, key=lambda slot: (slot.capacity, slot.slot_id))


def _claim_slot(slots: List[_Slot], interval: BaseInterval) -> _Slot:
    """The slot the temporary ``interval`` will occupy.

    A released slot that fits first; otherwise the largest released slot
    is grown — its earlier occupants simply carve a prefix of the bigger
    buffer.  A fresh slot is opened only when every slot is still occupied
    at ``interval.start``.
    """
    slot = _released_slot(slots, interval)
    if slot is not None:
        return slot
    released = [slot for slot in slots if slot.release_index < interval.start]
    if released:
        return max(released, key=lambda slot: (slot.capacity, -slot.slot_id))
    slot = _Slot(
        slot_id=len(slots),
        capacity=interval.base.nbytes,
        release_index=interval.last_use,
        first_start=interval.start,
        last_end=interval.last_use,
    )
    slots.append(slot)
    return slot


def _simulate_peaks(
    intervals: List[BaseInterval], slotted: set, slots: List[_Slot], program_length: int
) -> Tuple[int, int]:
    """Planned vs. unplanned peak bytes over the program's timeline.

    Unplanned models the naive allocator: every base gets dedicated
    storage at its first access and releases it at its ``BH_FREE`` (or
    never).  Planned counts each shared slot once over the union of its
    occupants' lifetimes — a final occupant holds it until its own release
    — and every base not in ``slotted`` as-is.
    """
    horizon = program_length + 1
    planned_deltas: Dict[int, int] = {}
    unplanned_deltas: Dict[int, int] = {}

    def add(deltas: Dict[int, int], start: int, stop: int, nbytes: int) -> None:
        deltas[start] = deltas.get(start, 0) + nbytes
        deltas[stop] = deltas.get(stop, 0) - nbytes

    for interval in intervals:
        nbytes = interval.base.nbytes
        release = interval.end + 1 if interval.freed else horizon
        add(unplanned_deltas, interval.start, release, nbytes)
        if id(interval.base) not in slotted:
            add(planned_deltas, interval.start, release, nbytes)
    for slot in slots:
        add(planned_deltas, slot.first_start, slot.last_end + 1, slot.capacity)

    def peak(deltas: Dict[int, int]) -> int:
        level = 0
        highest = 0
        for _, delta in sorted(deltas.items()):
            level += delta
            highest = max(highest, level)
        return highest

    return peak(planned_deltas), peak(unplanned_deltas)


# --------------------------------------------------------------------------- #
# Plan attachment / binding (shared by every backend)
# --------------------------------------------------------------------------- #


def attach_memory_plan(plan) -> None:
    """Compute the memory plan of ``plan`` under ``plan.config`` and store it.

    Called from :meth:`~repro.runtime.backend.Backend.prepare_plan` on
    every plan-cache miss, before the plan is published; replays of the
    plan skip straight to :func:`bind_memory_plan`.
    """
    config = plan.config
    plan.memory_plan = (
        MemoryPlan.plan(plan.optimized, config) if config.memory_plan_enabled else None
    )


def bind_memory_plan(plan, program: Program, memory: MemoryManager, source=None) -> None:
    """Install ``plan``'s storage directives on ``memory`` for one execution.

    When the plan carries no memory plan the manager's directives are
    cleared instead — stale directives must never survive into an
    execution they were not bound for.  ``source`` is where the execution's
    fresh storage comes from when not the pool (see
    :meth:`~repro.runtime.memory.MemoryManager.apply_plan`).
    """
    memory_plan = getattr(plan, "memory_plan", None)
    directives = memory_plan.bind(program) if memory_plan is not None else None
    memory.apply_plan(directives, source)
