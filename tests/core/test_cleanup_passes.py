"""Tests for the clean-up passes: identity simplification, copy propagation, DCE."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.core.copy_propagation import CopyPropagationPass
from repro.core.dce import DeadCodeEliminationPass
from repro.core.identity_simplify import IdentitySimplifyPass
from repro.core.verifier import SemanticVerifier
from repro.runtime.interpreter import NumPyInterpreter


class TestIdentitySimplify:
    def test_add_zero_in_place_is_dropped(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 5)
        builder.add(v, v, 0)
        builder.sync(v)
        result = IdentitySimplifyPass().run(builder.build())
        assert result.changed
        assert result.program.count(OpCode.BH_ADD) == 0

    def test_add_zero_to_other_view_becomes_copy(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 5)
        builder.add(y, x, 0)
        builder.sync(y)
        result = IdentitySimplifyPass().run(builder.build())
        kept = [i for i in result.program if i.opcode is OpCode.BH_IDENTITY]
        assert len(kept) == 2
        assert result.program.count(OpCode.BH_ADD) == 0

    @pytest.mark.parametrize(
        "method, constant",
        [("multiply", 1), ("divide", 1), ("subtract", 0), ("power", 1)],
    )
    def test_neutral_element_in_place_dropped(self, method, constant):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 3)
        getattr(builder, method)(v, v, constant)
        builder.sync(v)
        result = IdentitySimplifyPass().run(builder.build())
        assert len(result.program) == 2

    def test_multiply_by_zero_becomes_fill(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 3)
        builder.multiply(v, v, 0)
        builder.sync(v)
        result = IdentitySimplifyPass().run(builder.build())
        fills = [i for i in result.program if i.opcode is OpCode.BH_IDENTITY]
        assert len(fills) == 2
        assert fills[1].constant.value == 0

    def test_power_zero_becomes_ones(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.power(y, x, 0)
        builder.sync(y)
        result = IdentitySimplifyPass().run(builder.build())
        assert result.program.count(OpCode.BH_POWER) == 0
        values = NumPyInterpreter().execute(result.program).value(y)
        assert np.all(values == 1.0)

    def test_self_copy_dropped(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, v)
        builder.sync(v)
        result = IdentitySimplifyPass().run(builder.build())
        assert len(result.program) == 1

    def test_commutative_constant_on_left_recognised(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 2)
        builder.multiply(v, 1, v)
        builder.sync(v)
        result = IdentitySimplifyPass().run(builder.build())
        assert result.program.count(OpCode.BH_MULTIPLY) == 0

    def test_meaningful_operations_untouched(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 2)
        builder.add(v, v, 3)
        builder.multiply(v, v, 2)
        builder.sync(v)
        program = builder.build()
        result = IdentitySimplifyPass().run(program)
        assert not result.changed
        assert result.program == program

    def test_semantics_preserved(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 2)
        builder.add(v, v, 0)
        builder.multiply(v, v, 1)
        builder.add(v, v, 5)
        builder.sync(v)
        program = builder.build()
        result = IdentitySimplifyPass().run(program)
        assert SemanticVerifier().equivalent(program, result.program)


class TestCopyPropagation:
    def test_reader_redirected_to_source(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, x)       # temp = x
        builder.add(y, temp, 1)         # reads temp
        builder.sync(y)
        result = CopyPropagationPass().run(builder.build())
        assert result.changed
        add = [i for i in result.program if i.opcode is OpCode.BH_ADD][0]
        assert add.input_views[0].base is x.base

    def test_propagation_stops_at_source_overwrite(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, x)
        builder.identity(x, 99)         # source changes value
        builder.add(y, temp, 1)         # must keep reading temp
        builder.sync(y)
        program = builder.build()
        result = CopyPropagationPass().run(program)
        add = [i for i in result.program if i.opcode is OpCode.BH_ADD][0]
        assert add.input_views[0].base is temp.base
        assert SemanticVerifier().equivalent(program, result.program)

    def test_propagation_stops_at_destination_overwrite(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, x)
        builder.identity(temp, 50)      # temp now holds something else
        builder.add(y, temp, 1)
        builder.sync(y)
        program = builder.build()
        result = CopyPropagationPass().run(program)
        add = [i for i in result.program if i.opcode is OpCode.BH_ADD][0]
        assert add.input_views[0].base is temp.base

    def test_propagation_stops_at_free_of_source(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, x)
        builder.free(x)
        builder.add(y, temp, 1)
        builder.sync(y)
        program = builder.build()
        result = CopyPropagationPass().run(program)
        add = [i for i in result.program if i.opcode is OpCode.BH_ADD][0]
        assert add.input_views[0].base is temp.base

    def test_copy_then_dce_removes_temporary(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, x)
        builder.add(y, temp, 1)
        builder.free(temp)
        builder.sync(y)
        program = builder.build()
        propagated = CopyPropagationPass().run(program).program
        cleaned = DeadCodeEliminationPass().run(propagated).program
        # the temp copy disappears entirely
        assert all(
            temp.base not in instr.bases_written() for instr in cleaned
        )
        assert SemanticVerifier().equivalent(program, cleaned)

    def test_different_shapes_not_propagated(self):
        builder = ProgramBuilder()
        x = builder.new_vector(8)
        from repro.bytecode.view import View

        half = View(x.base, 0, (4,))
        temp = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(temp, half)
        builder.add(y, temp, 1)
        builder.sync(y)
        result = CopyPropagationPass().run(builder.build())
        add = [i for i in result.program if i.opcode is OpCode.BH_ADD][0]
        # propagation happened (same shape, different base is fine) or not,
        # but semantics must hold either way
        assert SemanticVerifier().equivalent(builder.build(), result.program)


class TestDeadCodeElimination:
    def test_freed_unread_value_removed(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        w = builder.new_vector(4)
        builder.identity(v, 1)
        builder.identity(w, 2)   # dead: freed without ever being read
        builder.sync(v)
        builder.free(w)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.changed
        assert all(w.base not in instr.bases_written() for instr in result.program)

    def test_overwritten_value_removed(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)   # dead: completely overwritten below
        builder.identity(v, 2)
        builder.sync(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.changed
        identities = [i for i in result.program if i.opcode is OpCode.BH_IDENTITY]
        assert len(identities) == 1
        assert identities[0].constant.value == 2

    def test_synced_value_kept(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)
        builder.sync(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert not result.changed

    def test_unfreed_value_conservatively_kept(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        w = builder.new_vector(4)
        builder.identity(v, 1)
        builder.identity(w, 2)   # never read, never freed, never synced
        builder.sync(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert not result.changed

    def test_chain_of_dead_values_removed_iteratively(self):
        builder = ProgramBuilder()
        a = builder.new_vector(4)
        b = builder.new_vector(4)
        c = builder.new_vector(4)
        builder.identity(a, 1)
        builder.add(b, a, 1)     # b depends on a
        builder.add(c, b, 1)     # c depends on b
        builder.free(c)
        builder.free(b)
        builder.free(a)
        result = DeadCodeEliminationPass().run(builder.build())
        # everything is dead, and each free goes with its base's last definition
        assert len(result.program) == 0

    def test_sweeps_are_bounded(self, monkeypatch):
        # The chain above needs three sweeps; one removes only its tail.
        monkeypatch.setattr("repro.core.dce.MAX_SWEEPS", 1)
        builder = ProgramBuilder()
        a = builder.new_vector(4)
        b = builder.new_vector(4)
        c = builder.new_vector(4)
        builder.identity(a, 1)
        builder.add(b, a, 1)
        builder.add(c, b, 1)
        builder.free(c)
        builder.free(b)
        builder.free(a)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.stats.rewrites_applied == 1
        assert [i.opcode for i in result.program] == [
            OpCode.BH_IDENTITY, OpCode.BH_ADD, OpCode.BH_FREE, OpCode.BH_FREE,
        ]

    def test_a_free_with_no_definition_in_the_program_stays(self):
        # ``earlier`` was defined by a previous flush: this program only
        # reads it (in dead code) and frees it, and the free must release it.
        builder = ProgramBuilder()
        earlier = builder.new_vector(4)
        dead = builder.new_vector(4)
        v = builder.new_vector(4)
        builder.identity(v, 1)
        builder.add(dead, earlier, 1)
        builder.sync(v)
        builder.free(dead)
        builder.free(earlier)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.stats.rewrites_applied == 1
        (free,) = [i for i in result.program if i.opcode is OpCode.BH_FREE]
        assert free.operands[0].base is earlier.base

    def test_a_free_stays_while_any_access_of_its_base_does(self):
        from repro.bytecode.view import View

        builder = ProgramBuilder()
        v = builder.new_vector(8)
        out = builder.new_vector(4)
        builder.identity(v, 1)                          # dead: overwritten below
        builder.identity(v, 2)
        builder.add(out, View(v.base, 0, (4,)), 1)
        builder.sync(out)
        builder.free(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.stats.rewrites_applied == 1
        assert result.program.count(OpCode.BH_FREE) == 1

    def test_system_instructions_never_removed(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)
        builder.sync(v)
        builder.free(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert result.program.count(OpCode.BH_SYNC) == 1
        assert result.program.count(OpCode.BH_FREE) == 1

    def test_partial_overwrite_keeps_producer(self):
        from repro.bytecode.view import View

        builder = ProgramBuilder()
        v = builder.new_vector(8)
        half = View(v.base, 0, (4,))
        builder.identity(v, 1)
        builder.identity(half, 2)
        builder.sync(v)
        result = DeadCodeEliminationPass().run(builder.build())
        assert not result.changed
