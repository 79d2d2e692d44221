"""Tests for the power-expansion pass (paper Equation 1, Listings 4-5)."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.core.power_expansion import EXPANSION_LIMIT, PowerExpansionPass, expand_power
from repro.core.verifier import SemanticVerifier
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.workloads import power_program


def power_instruction(size=8, exponent=10, in_place=False):
    builder = ProgramBuilder()
    x = builder.new_vector(size)
    y = x if in_place else builder.new_vector(size)
    builder.power(y, x, exponent)
    program = builder.build()
    return program[0], x, y


class TestExpandPower:
    def test_listing_5_shape_for_ten(self):
        instruction, x, y = power_instruction(exponent=10)
        replacement = expand_power(instruction, strategy="power_of_two")
        assert len(replacement) == 5
        assert all(instr.opcode is OpCode.BH_MULTIPLY for instr in replacement)
        # first multiply squares the origin tensor into the result tensor
        assert replacement[0].input_views == (x, x)
        # and the last two multiply the result tensor by the origin again
        assert replacement[-1].input_views[0].same_view(y)
        assert replacement[-1].input_views[1].same_view(x)

    def test_listing_4_shape_for_ten(self):
        instruction, x, y = power_instruction(exponent=10)
        replacement = expand_power(instruction, strategy="naive")
        assert len(replacement) == 9
        assert all(instr.opcode is OpCode.BH_MULTIPLY for instr in replacement)

    def test_only_origin_and_result_registers_are_used(self):
        instruction, x, y = power_instruction(exponent=27)
        replacement = expand_power(instruction, strategy="binary")
        bases = {view.base for instr in replacement for view in instr.views()}
        assert bases == {x.base, y.base}

    @pytest.mark.parametrize("strategy", ["naive", "power_of_two", "binary"])
    @pytest.mark.parametrize("exponent", [2, 3, 5, 8, 10, 13, 31])
    def test_numerical_equivalence(self, strategy, exponent):
        program, out, memory = power_program(32, exponent)
        expanded = Program(
            expand_power(program[0], strategy=strategy) + [program[1]]
        )
        expected = NumPyInterpreter().execute(program, memory.clone()).value(out)
        actual = NumPyInterpreter().execute(expanded, memory.clone()).value(out)
        assert np.allclose(expected, actual, rtol=1e-10)

    def test_exponent_zero_becomes_one(self):
        instruction, x, y = power_instruction(exponent=0)
        replacement = expand_power(instruction)
        assert len(replacement) == 1
        assert replacement[0].opcode is OpCode.BH_IDENTITY
        assert replacement[0].constant.value == 1

    def test_exponent_one_becomes_copy(self):
        instruction, x, y = power_instruction(exponent=1)
        replacement = expand_power(instruction)
        assert len(replacement) == 1
        assert replacement[0].opcode is OpCode.BH_IDENTITY

    def test_in_place_power_of_two_is_expandable(self):
        instruction, x, y = power_instruction(exponent=8, in_place=True)
        replacement = expand_power(instruction)
        assert replacement is not None
        assert len(replacement) == 3

    def test_in_place_non_power_of_two_is_refused(self):
        instruction, x, y = power_instruction(exponent=10, in_place=True)
        assert expand_power(instruction) is None

    def test_non_constant_exponent_is_refused(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        e = builder.new_vector(4)
        y = builder.new_vector(4)
        builder.power(y, x, e)
        assert expand_power(builder.build()[0]) is None

    def test_fractional_and_negative_exponents_refused(self):
        for exponent in (2.5, -3):
            instruction, _, _ = power_instruction(exponent=exponent)
            assert expand_power(instruction) is None

    def test_integer_valued_float_exponent_is_expanded(self):
        instruction, _, _ = power_instruction(exponent=4.0)
        assert len(expand_power(instruction)) == 2

    def test_non_power_instruction_returns_none(self):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.add(v, v, 1)
        assert expand_power(builder.build()[0]) is None

    def test_optimal_chain_with_temporaries(self):
        instruction, x, y = power_instruction(exponent=15)
        replacement = expand_power(instruction, strategy="optimal", allow_temporaries=True)
        multiplies = [i for i in replacement if i.opcode is OpCode.BH_MULTIPLY]
        frees = [i for i in replacement if i.opcode is OpCode.BH_FREE]
        assert len(multiplies) == 5  # optimal chain for 15
        assert frees, "temporaries must be freed"
        # numerically correct as well
        program, out, memory = power_program(16, 15)
        expanded = Program(
            expand_power(program[0], strategy="optimal", allow_temporaries=True) + [program[1]]
        )
        expected = NumPyInterpreter().execute(program, memory.clone()).value(out)
        actual = NumPyInterpreter().execute(expanded, memory.clone()).value(out)
        assert np.allclose(expected, actual, rtol=1e-10)

    def test_optimal_chain_without_temporaries_falls_back_to_refusal(self):
        instruction, _, _ = power_instruction(exponent=15)
        assert expand_power(instruction, strategy="optimal", allow_temporaries=False) is None

    def test_constant_base_is_folded(self):
        builder = ProgramBuilder()
        y = builder.new_vector(4)
        builder.power(y, 2, 10)
        replacement = expand_power(builder.build()[0])
        assert len(replacement) == 1
        assert replacement[0].opcode is OpCode.BH_IDENTITY
        assert replacement[0].constant.value == 1024


class TestPowerExpansionPass:
    def test_pass_replaces_power(self):
        program, out, memory = power_program(16, 10)
        result = PowerExpansionPass(strategy="power_of_two").run(program)
        assert result.changed
        assert result.program.count(OpCode.BH_POWER) == 0
        assert result.program.count(OpCode.BH_MULTIPLY) == 5

    def test_limit_gates_expansion(self):
        program, _, _ = power_program(16, 40)
        result = PowerExpansionPass(limit=32).run(program)
        assert not result.changed
        assert result.program.count(OpCode.BH_POWER) == 1

    def test_default_limit_is_the_expansion_limit(self):
        program, _, _ = power_program(16, 40)
        assert PowerExpansionPass().limit == EXPANSION_LIMIT
        assert PowerExpansionPass().run(program).changed
        result = PowerExpansionPass(limit=8).run(program)
        assert not result.changed

    def test_semantics_preserved_through_full_pass(self):
        program, out, memory = power_program(64, 13)
        result = PowerExpansionPass(strategy="binary").run(program)
        verifier = SemanticVerifier(
            initial_values={program.bases()[0]: memory.read_view(program[0].input_views[0])}
        )
        assert verifier.equivalent(program, result.program)

    def test_multiple_powers_all_expanded(self):
        builder = ProgramBuilder()
        x = builder.new_vector(8)
        y = builder.new_vector(8)
        z = builder.new_vector(8)
        builder.power(y, x, 4)
        builder.power(z, x, 6)
        builder.sync(y)
        builder.sync(z)
        result = PowerExpansionPass().run(builder.build())
        assert result.stats.rewrites_applied == 2
        assert result.program.count(OpCode.BH_POWER) == 0
