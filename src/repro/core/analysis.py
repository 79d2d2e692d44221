"""Dataflow analysis over byte-code programs.

The context-aware transformations of the paper are only sound under
conditions like "the inverse tensor is not used for anything else" or "no
other byte-code observes the intermediate sum".  This module provides the
queries the passes use to establish those conditions:

* def-use indexing (which instructions read / write which base arrays),
* "is this value dead after instruction *i*" liveness queries,
* "does anything touch base *b* between *i* and *j*" interference queries.

All queries are expressed at base-array granularity with view-overlap
refinement: two accesses interfere only if their views may overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bytecode.base import BaseArray
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View


@dataclass
class Access:
    """One read or write of a view by an instruction."""

    index: int
    instruction: Instruction
    view: View
    is_write: bool


@dataclass
class DefUse:
    """Def-use index for a program.

    Maps every base array to the ordered list of accesses (reads and writes)
    made to it, and records which bases are synced (observable program
    outputs) and which are freed.
    """

    program: Program
    accesses: Dict[int, List[Access]] = field(default_factory=dict)
    bases: Dict[int, BaseArray] = field(default_factory=dict)
    synced: Dict[int, List[int]] = field(default_factory=dict)
    freed: Dict[int, List[int]] = field(default_factory=dict)

    @classmethod
    def analyze(cls, program: Program) -> "DefUse":
        """Build the def-use index for ``program``."""
        info = cls(program=program)
        for index, instruction in enumerate(program):
            if instruction.opcode is OpCode.BH_SYNC:
                for view in instruction.views():
                    info._note_base(view.base)
                    info.synced.setdefault(id(view.base), []).append(index)
                    info._add(Access(index, instruction, view, is_write=False))
                continue
            if instruction.opcode is OpCode.BH_FREE:
                for view in instruction.views():
                    info._note_base(view.base)
                    info.freed.setdefault(id(view.base), []).append(index)
                continue
            for view in instruction.reads():
                info._note_base(view.base)
                info._add(Access(index, instruction, view, is_write=False))
            for view in instruction.writes():
                info._note_base(view.base)
                info._add(Access(index, instruction, view, is_write=True))
        return info

    def _note_base(self, base: BaseArray) -> None:
        self.bases.setdefault(id(base), base)

    def _add(self, access: Access) -> None:
        self.accesses.setdefault(id(access.view.base), []).append(access)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def accesses_of(self, base: BaseArray) -> Tuple[Access, ...]:
        """All accesses of ``base`` in program order."""
        return tuple(self.accesses.get(id(base), ()))

    def reads_of(self, base: BaseArray) -> Tuple[Access, ...]:
        """All read accesses of ``base``."""
        return tuple(a for a in self.accesses_of(base) if not a.is_write)

    def writes_of(self, base: BaseArray) -> Tuple[Access, ...]:
        """All write accesses of ``base``."""
        return tuple(a for a in self.accesses_of(base) if a.is_write)

    def is_synced(self, base: BaseArray) -> bool:
        """True when ``base`` is the target of any ``BH_SYNC``."""
        return id(base) in self.synced

    def is_freed(self, base: BaseArray) -> bool:
        """True when ``base`` is explicitly freed."""
        return id(base) in self.freed

    # ------------------------------------------------------------------ #
    # Interference / liveness queries
    #
    # Answered against the prebuilt access index: a pass that asks many
    # queries per run builds one DefUse and pays O(accesses of base) per
    # query instead of rescanning the whole program every time.
    # ------------------------------------------------------------------ #

    def written_between(
        self, base: BaseArray, start: int, stop: int, within: Optional[View] = None
    ) -> bool:
        """Is ``base`` written in the open index range (start, stop)?

        When ``within`` is given only writes whose view may overlap it count.
        """
        for access in self.accesses.get(id(base), ()):
            if not access.is_write or not start < access.index < stop:
                continue
            if within is None or access.view.overlaps(within):
                return True
        return False

    def value_dead_after(
        self, index: int, view: View, observable_at_end: bool = True
    ) -> bool:
        """Is the value held by ``view`` unobservable after instruction ``index``?

        The value is dead when no later instruction can observe it: every
        later event on the view's base, in program order, is either a
        complete overwrite or a free before any overlapping read or sync.
        This is the safety condition behind both the paper's Equation 2
        rewrite ("only faster if we do not use the inverse for anything
        else") and dead-code elimination.

        ``observable_at_end`` says how to treat a value that survives to
        the end of the program without being freed.  The front-end may
        still hold a handle to such a base and observe it in a *later*
        flush, so the default is the conservative answer ("still live").
        Bohrium frees a base when the owning Python object is garbage
        collected, and our front-end does the same, so truly temporary
        values do end in ``BH_FREE`` and are correctly recognised as dead.
        Pass ``False`` only for whole-program (closed-world) analyses.
        """
        base = view.base
        events = []
        for access in self.accesses.get(id(base), ()):
            if access.index > index:
                # Reads sort before writes at the same instruction: inputs
                # are consumed before the output is produced.
                events.append((access.index, 1 if access.is_write else 0, access))
        for free_index in self.freed.get(id(base), ()):
            if free_index > index:
                events.append((free_index, 0, None))
        events.sort(key=lambda item: (item[0], item[1]))
        for _, _, access in events:
            if access is None:
                return True  # freed before any observing read
            if not access.is_write:
                if access.instruction.opcode is OpCode.BH_SYNC:
                    # A sync observes the base conservatively (whatever the
                    # synced window): the value is live, unless a complete
                    # overwrite already replaced it earlier in the walk.
                    return False
                if access.view.overlaps(view):
                    return False
                continue
            if _covers(access.view, view):
                return True
        return not observable_at_end


# ---------------------------------------------------------------------- #
# Interval liveness (consumed by the plan-time memory planner)
# ---------------------------------------------------------------------- #


@dataclass
class BaseInterval:
    """The lifetime of one base array within one program.

    ``start`` is the index of the first access (read, write or sync);
    ``last_use`` the index of the last access; ``end`` additionally covers
    any ``BH_FREE``.  The flags are what the memory planner needs to decide
    whether the base's storage may be aliased onto a shared slot and whether
    a recycled (non-zeroed) buffer can be handed to it safely.
    """

    base: BaseArray
    start: int
    last_use: int
    end: int
    #: First access is a write: the base's prior contents are never read, so
    #: its storage need not survive from before this program.
    defined_in_program: bool
    #: A base-covering write precedes every read: no element can ever be
    #: read uninitialised, so a recycled buffer needs no zero fill.
    fully_defined_before_read: bool
    synced: bool
    freed: bool

    @property
    def is_temporary(self) -> bool:
        """Storage may be aliased: defined here, freed here, never observable.

        ``BH_FREE`` placement does not matter — liveness already proves no
        access after ``last_use``, so the slot can be recycled from then on
        even when the free byte-code trails at the end of the batch (where
        the front-end's deferred garbage-collection frees land).
        """
        return self.defined_in_program and self.freed and not self.synced


def live_intervals(program: Program, defuse: Optional[DefUse] = None) -> List[BaseInterval]:
    """Per-base lifetime intervals for ``program``, in first-access order.

    Bases that are only freed (their values were produced by an earlier
    flush) get a degenerate interval whose ``defined_in_program`` is false.
    """
    defuse = defuse if defuse is not None else DefUse.analyze(program)
    intervals: List[BaseInterval] = []
    for base_id, base in defuse.bases.items():
        accesses = defuse.accesses.get(base_id, ())
        frees = defuse.freed.get(base_id, ())
        indices = [a.index for a in accesses] + list(frees)
        if not indices:
            continue
        start = min(indices)
        last_use = max((a.index for a in accesses), default=start)
        end = max(indices)
        first_access_index = min((a.index for a in accesses), default=None)
        defined = (
            first_access_index is not None
            and all(
                a.is_write for a in accesses if a.index == first_access_index
            )
        )
        fully_defined = defined and _covered_before_reads(base, accesses)
        intervals.append(
            BaseInterval(
                base=base,
                start=start,
                last_use=last_use,
                end=end,
                defined_in_program=defined,
                fully_defined_before_read=fully_defined,
                synced=base_id in defuse.synced,
                freed=base_id in defuse.freed,
            )
        )
    intervals.sort(key=lambda interval: interval.start)
    return intervals


def _covered_before_reads(base: BaseArray, accesses: Sequence[Access]) -> bool:
    """Does a base-covering write precede every read of ``base``?

    Within one instruction inputs are consumed before the output is
    produced, so a read at the same index as the first covering write does
    not count as covered.
    """
    covered_from: Optional[int] = None
    for access in accesses:
        if access.is_write and access.view.covers_base():
            covered_from = access.index
            break
    if covered_from is None:
        return False
    for access in accesses:
        if not access.is_write and access.index <= covered_from:
            return False
    return True


def _covers(writer: View, target: View) -> bool:
    """Does writing ``writer`` definitely overwrite every element of ``target``?"""
    if writer.base is not target.base:
        return False
    if writer.same_view(target):
        return True
    if writer.covers_base():
        return True
    small_limit = 4096
    if writer.nelem <= small_limit and target.nelem <= small_limit:
        return set(target.element_indices()) <= set(writer.element_indices())
    return False


def observable_views(program: Program) -> Tuple[View, ...]:
    """Views whose final contents are observable program outputs.

    A view is observable when it is synced, or when its base is written and
    never freed (the front-end may still hold a reference to it).  This is
    the set the semantic verifier compares between the original and the
    optimized program.
    """
    defuse = DefUse.analyze(program)
    result: List[View] = []
    seen = set()
    for base_id, base in defuse.bases.items():
        if defuse.is_freed(base) and not defuse.is_synced(base):
            continue
        writes = defuse.writes_of(base)
        if not writes and not defuse.is_synced(base):
            continue
        key = base_id
        if key in seen:
            continue
        seen.add(key)
        # Prefer the full view of the base so all written regions compare.
        result.append(View.full(base))
    return tuple(result)
