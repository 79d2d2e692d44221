"""Tests for the dataflow analysis used by the context-aware rewrites."""

import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.analysis import DefUse, observable_views


def sample_program():
    builder = ProgramBuilder()
    a = builder.new_vector(8)
    b = builder.new_vector(8)
    c = builder.new_vector(8)
    builder.identity(a, 1)          # 0: write a
    builder.identity(b, 2)          # 1: write b
    builder.add(c, a, b)            # 2: read a, b; write c
    builder.multiply(c, c, 2)       # 3: read c; write c
    builder.sync(c)                 # 4: sync c
    builder.free(a)                 # 5: free a
    return builder.build(), a, b, c


class TestDefUse:
    def test_reads_and_writes_indexed(self):
        program, a, b, c = sample_program()
        defuse = DefUse.analyze(program)
        assert [acc.index for acc in defuse.writes_of(a.base)] == [0]
        assert [acc.index for acc in defuse.reads_of(a.base)] == [2]
        assert [acc.index for acc in defuse.writes_of(c.base)] == [2, 3]
        assert [acc.index for acc in defuse.reads_of(c.base)] == [3, 4]

    def test_sync_and_free_tracking(self):
        program, a, b, c = sample_program()
        defuse = DefUse.analyze(program)
        assert defuse.is_synced(c.base)
        assert not defuse.is_synced(a.base)
        assert defuse.is_freed(a.base)
        assert not defuse.is_freed(c.base)
        assert defuse.synced[id(c.base)] == [4]


class TestInterference:
    def test_written_between(self):
        program, a, b, c = sample_program()
        defuse = DefUse.analyze(program)
        assert defuse.written_between(c.base, 2, 4)
        assert not defuse.written_between(a.base, 0, 5)

    def test_within_view_restriction(self):
        base = BaseArray(10)
        left = View(base, 0, (5,))
        right = View(base, 5, (5,))
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (left, 1.0)),
                Instruction(OpCode.BH_IDENTITY, (right, 2.0)),
                Instruction(OpCode.BH_ADD, (left, left, 1.0)),
            ]
        )
        # Between 0 and 2 the base is written (index 1) but only in the
        # right half, so a query restricted to the left half sees nothing.
        defuse = DefUse.analyze(program)
        assert defuse.written_between(base, 0, 2)
        assert not defuse.written_between(base, 0, 2, within=left)


def _dead_after(program, index, view):
    return DefUse.analyze(program).value_dead_after(index, view)


class TestLiveness:
    def test_value_read_later_is_live(self):
        program, a, b, c = sample_program()
        assert not _dead_after(program, 0, a)  # a is read at 2

    def test_value_freed_without_read_is_dead(self):
        program, a, b, c = sample_program()
        assert _dead_after(program, 2, a)  # after the add, a is only freed

    def test_synced_value_is_live(self):
        program, a, b, c = sample_program()
        assert not _dead_after(program, 3, c)

    def test_unfreed_value_at_end_is_conservatively_live(self):
        program, a, b, c = sample_program()
        # After the add (index 2) nothing reads b again, but b is never
        # freed either: the front-end may still observe it in a later flush.
        assert not _dead_after(program, 2, b)

    def test_complete_overwrite_kills_value(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)
        builder.identity(v, 2)
        builder.sync(v)
        program = builder.build()
        assert _dead_after(program, 0, v)

    def test_partial_overwrite_does_not_kill_value(self):
        base = BaseArray(8)
        full = View.full(base)
        half = View(base, 0, (4,))
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (full, 1.0)),
                Instruction(OpCode.BH_IDENTITY, (half, 2.0)),
                Instruction(OpCode.BH_SYNC, (full,)),
            ]
        )
        assert not _dead_after(program, 0, full)


class TestObservableViews:
    def test_synced_and_surviving_bases_are_observable(self):
        program, a, b, c = sample_program()
        observable_bases = {view.base for view in observable_views(program)}
        assert c.base in observable_bases     # synced
        assert b.base in observable_bases     # written, never freed
        assert a.base not in observable_bases  # freed and not synced

    def test_untouched_bases_are_not_observable(self):
        builder = ProgramBuilder()
        used = builder.new_vector(4)
        builder.new_vector(4)  # never referenced by any instruction
        builder.identity(used, 1)
        program = builder.build()
        assert {view.base for view in observable_views(program)} == {used.base}


# Independent scan-based reference implementations: they rescan the
# program per query instead of walking DefUse's access index.


def _scan_written_between(program, base, start, stop, within=None):
    for index in range(start + 1, stop):
        if index < 0 or index >= len(program):
            continue
        for view in program[index].writes():
            if view.base is base and (within is None or view.overlaps(within)):
                return True
    return False


def _scan_is_dead_after(program, index, view):
    base = view.base
    for later in range(index + 1, len(program)):
        instruction = program[later]
        if instruction.opcode is OpCode.BH_SYNC:
            if any(v.base is base for v in instruction.views()):
                return False
            continue
        if instruction.opcode is OpCode.BH_FREE:
            if any(v.base is base for v in instruction.views()):
                return True
            continue
        for read_view in instruction.reads():
            if read_view.base is base and read_view.overlaps(view):
                return False
        for write_view in instruction.writes():
            if write_view.base is base and (
                write_view.same_view(view) or write_view.covers_base()
            ):
                return True
    return False


class TestIndexedQueries:
    """DefUse's indexed queries must agree with independent scans."""

    def test_written_between_matches_scan(self):
        program, a, b, c = sample_program()
        defuse = DefUse.analyze(program)
        for base in (a.base, b.base, c.base):
            for start in range(-1, len(program)):
                for stop in range(start, len(program) + 1):
                    expected = _scan_written_between(program, base, start, stop)
                    assert defuse.written_between(base, start, stop) == expected

    def test_written_between_respects_window(self):
        builder = ProgramBuilder()
        base = BaseArray(8)
        left = View(base, 0, (4,), (1,))
        right = View(base, 4, (4,), (1,))
        builder.identity(right, 1)
        builder.identity(builder.new_vector(4), 2)
        program = builder.build(validate=False)
        defuse = DefUse.analyze(program)
        assert defuse.written_between(base, -1, 2)
        assert not defuse.written_between(base, -1, 2, within=left)

    def test_value_dead_after_matches_scan(self):
        program, a, b, c = sample_program()
        defuse = DefUse.analyze(program)
        for view in (a, b, c):
            for index in range(len(program)):
                expected = _scan_is_dead_after(program, index, view)
                assert defuse.value_dead_after(index, view) == expected

    def test_value_dead_after_overwrite_then_sync(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)
        builder.identity(v, 2)
        builder.sync(v)
        program = builder.build()
        defuse = DefUse.analyze(program)
        # The complete overwrite at 1 kills the value written at 0 even
        # though the base is synced later (the sync observes the new value).
        assert defuse.value_dead_after(0, v)
        assert not defuse.value_dead_after(1, v)
