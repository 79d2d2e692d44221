"""Tests for the context-aware linear-solve rewrite (paper Equation 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.dce import DeadCodeEliminationPass
from repro.core.linear_solve import LinearSolveRewritePass, _idiom_pairs
from repro.core.pipeline import optimize
from repro.linalg.util import random_well_conditioned
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.workloads import linear_solve_program


def run_pass(program):
    return LinearSolveRewritePass().run(program)


class TestRewriteFires:
    def test_idiom_rewritten_to_lu_solve(self):
        program, solution, memory = linear_solve_program(16)
        result = run_pass(program)
        assert result.changed
        assert result.program.count(OpCode.BH_MATRIX_INVERSE) == 0
        assert result.program.count(OpCode.BH_MATMUL) == 0
        assert result.program.count(OpCode.BH_LU_SOLVE) == 1

    def test_solution_matches_numpy(self):
        program, solution, memory = linear_solve_program(24, seed=5)
        result = run_pass(program)
        matrix_view = program[0].input_views[0]
        rhs_view = program[1].input_views[1]
        matrix = memory.read_view(matrix_view)
        rhs = memory.read_view(rhs_view)
        values = NumPyInterpreter().execute(result.program, memory).value(solution)
        assert np.allclose(values, np.linalg.solve(matrix, rhs))

    def test_rewritten_and_original_agree(self):
        program, solution, memory = linear_solve_program(20, seed=9)
        result = run_pass(program)
        original = NumPyInterpreter().execute(program, memory.clone()).value(solution)
        optimized = NumPyInterpreter().execute(result.program, memory.clone()).value(solution)
        assert np.allclose(original, optimized)

    def test_unrelated_instructions_between_idiom_are_kept(self):
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        other = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.identity(other, 42)      # unrelated, sits inside the idiom
        builder.matmul(x, inv, b)
        builder.sync(x)
        builder.sync(other)
        builder.free(inv)
        result = run_pass(builder.build())
        assert result.changed
        assert result.program.count(OpCode.BH_LU_SOLVE) == 1
        assert result.program.count(OpCode.BH_IDENTITY) == 1

    def test_two_independent_idioms_both_rewritten(self):
        builder = ProgramBuilder()
        n = 6
        for _ in range(2):
            a = builder.new_matrix(n, n)
            b = builder.new_vector(n)
            inv = builder.new_matrix(n, n)
            x = builder.new_vector(n)
            builder.matrix_inverse(inv, a)
            builder.matmul(x, inv, b)
            builder.sync(x)
            builder.free(inv)
        result = run_pass(builder.build())
        assert result.stats.rewrites_applied == 2
        assert result.program.count(OpCode.BH_LU_SOLVE) == 2

    def test_matrix_right_hand_side_supported(self):
        builder = ProgramBuilder()
        n, k = 8, 3
        a = builder.new_matrix(n, n)
        b = builder.new_matrix(n, k)
        inv = builder.new_matrix(n, n)
        x = builder.new_matrix(n, k)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, inv, b)
        builder.sync(x)
        builder.free(inv)
        program = builder.build()
        result = run_pass(program)
        assert result.changed
        memory = MemoryManager()
        memory.set_data(a.base, random_well_conditioned(n, seed=2))
        memory.set_data(b.base, np.random.default_rng(2).standard_normal((n, k)))
        original = NumPyInterpreter().execute(program, memory.clone()).value(x)
        optimized = NumPyInterpreter().execute(result.program, memory.clone()).value(x)
        assert np.allclose(original, optimized)


def idiom_operands(n=4):
    """A builder plus ``A``, ``b``, two inverse registers and two solutions."""
    builder = ProgramBuilder()
    a = builder.new_matrix(n, n)
    b = builder.new_vector(n)
    inverses = (builder.new_matrix(n, n), builder.new_matrix(n, n))
    solutions = (builder.new_vector(n), builder.new_vector(n))
    return builder, a, b, inverses, solutions


class TestPairing:
    """Which ``(inverse, matmul)`` index pairs the pass considers at all."""

    def test_gaps_of_any_byte_code_are_skipped(self):
        builder, a, b, (inv, other), (x, y) = idiom_operands()
        builder.matrix_inverse(inv, a)
        builder.add(y, b, 1)
        builder.matmul(y, other, b)      # a matmul of another matrix is a gap too
        builder.multiply(y, y, 2)
        builder.matmul(x, inv, b)
        builder.sync(x)
        builder.sync(y)
        builder.free(inv)
        program = builder.build(validate=False)
        assert _idiom_pairs(program) == [(0, 4)]
        result = run_pass(program)
        assert result.stats.rewrites_applied == 1
        assert [i.opcode for i in result.program][:4] == [
            OpCode.BH_ADD, OpCode.BH_MATMUL, OpCode.BH_MULTIPLY, OpCode.BH_LU_SOLVE,
        ]

    def test_two_inverses_one_matmul_pairs_the_one_it_reads(self):
        builder, a, b, (first, second), (x, _) = idiom_operands()
        builder.matrix_inverse(first, a)
        builder.matrix_inverse(second, a)
        builder.matmul(x, second, b)
        builder.sync(x)
        builder.free(first)
        builder.free(second)
        program = builder.build()
        assert _idiom_pairs(program) == [(1, 2)]
        result = run_pass(program)
        assert result.stats.rewrites_applied == 1
        assert result.program[0].opcode is OpCode.BH_MATRIX_INVERSE
        assert result.program[0].out.base is first.base

    def test_a_taken_matmul_drops_the_later_inverse(self):
        # Both inverses write the same register, so both would pair with the
        # matmul at 2; the first takes it and the second is dropped, not
        # sent on to the matmul at 3.
        builder, a, b, (inv, _), (x, y) = idiom_operands()
        builder.matrix_inverse(inv, a)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, inv, b)
        builder.matmul(y, inv, b)
        builder.sync(x)
        builder.sync(y)
        builder.free(inv)
        assert _idiom_pairs(builder.build()) == [(0, 2)]

    def test_pairs_never_overlap(self):
        builder, a, b, (first, second), (x, y) = idiom_operands()
        builder.matrix_inverse(first, a)
        builder.matrix_inverse(second, a)
        builder.matmul(x, first, b)
        builder.matmul(y, second, b)
        builder.sync(x)
        builder.sync(y)
        builder.free(first)
        builder.free(second)
        program = builder.build()
        assert _idiom_pairs(program) == [(0, 2), (1, 3)]
        result = run_pass(program)
        assert result.stats.rewrites_applied == 2
        assert result.program.count(OpCode.BH_MATRIX_INVERSE) == 0

    def test_one_inverse_two_matmuls_pairs_the_first_and_is_refused(self):
        builder, a, b, (inv, _), (x, y) = idiom_operands()
        builder.matrix_inverse(inv, a)
        builder.matmul(x, inv, b)
        builder.matmul(y, inv, b)
        builder.sync(x)
        builder.sync(y)
        builder.free(inv)
        program = builder.build()
        assert _idiom_pairs(program) == [(0, 1)]
        assert not run_pass(program).changed   # the second matmul reuses the inverse

    def test_matmul_must_read_the_same_view_of_the_inverse(self):
        n = 4
        builder, a, b, (inv, _), (x, y) = idiom_operands(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, View(inv.base, 0, (n, n), (1, n)), b)   # inv(A).T @ b
        builder.sync(x)
        builder.free(inv)
        assert _idiom_pairs(builder.build()) == []

        builder, a, b, (inv, _), (x, y) = idiom_operands(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, View(inv.base, 0, (n, n)), b)   # equal, not identical
        builder.sync(x)
        builder.free(inv)
        assert _idiom_pairs(builder.build()) == [(0, 1)]

    def test_reused_inverse_is_paired_then_refused(self):
        program, solution, memory = linear_solve_program(8, reuse_inverse=True)
        assert _idiom_pairs(program) == [(0, 1)]
        assert not run_pass(program).changed

    def test_a_constant_operand_is_not_an_idiom(self):
        builder, a, b, (inv, _), (x, _) = idiom_operands()
        builder.matrix_inverse(inv, a)
        program = builder.build()
        program.append(Instruction(OpCode.BH_MATMUL, (x, inv, Constant(2.0))))
        program.append(Instruction(OpCode.BH_MATMUL, (x, Constant(2.0), b)))
        assert _idiom_pairs(program) == []

    def test_each_solve_takes_the_operands_of_its_own_pair(self):
        builder = ProgramBuilder()
        n = 4
        a1, a2 = builder.new_matrix(n, n), builder.new_matrix(n, n)
        b1, b2 = builder.new_vector(n), builder.new_vector(n)
        t1, t2 = builder.new_matrix(n, n), builder.new_matrix(n, n)
        x1, x2 = builder.new_vector(n), builder.new_vector(n)
        builder.matrix_inverse(t1, a1)
        builder.matrix_inverse(t2, a2)
        builder.matmul(x2, t2, b2)
        builder.matmul(x1, t1, b1)
        for view in (x1, x2):
            builder.sync(view)
        builder.free(t1)
        builder.free(t2)
        result = run_pass(builder.build())
        solves = [i for i in result.program if i.opcode is OpCode.BH_LU_SOLVE]
        assert [tuple(op.base for op in i.operands) for i in solves] == [
            (x2.base, a2.base, b2.base),
            (x1.base, a1.base, b1.base),
        ]

    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(("inv", "matmul", "add")), st.integers(0, 1),
                      st.integers(0, 1), st.booleans()),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_pairs_follow_the_rule_on_random_programs(self, steps):
        n = 3
        bases = [BaseArray(n * n) for _ in range(2)]

        def view(index, transposed=False):
            return View(bases[index], 0, (n, n), (1, n) if transposed else (n, 1))

        program = Program()
        for kind, first, second, transposed in steps:
            if kind == "inv":
                program.append(Instruction(OpCode.BH_MATRIX_INVERSE, (view(first), view(second))))
            elif kind == "matmul":
                program.append(Instruction(
                    OpCode.BH_MATMUL, (view(second), view(first, transposed), view(second)),
                ))
            else:
                program.append(Instruction(OpCode.BH_ADD, (view(first), view(first), 1.0)))

        def reads(index, inverse):
            instruction = program[index]
            return (
                instruction.opcode is OpCode.BH_MATMUL
                and instruction.inputs[0].same_view(inverse.out)
            )

        pairs = _idiom_pairs(program)
        paired = dict(pairs)
        assert sorted(pairs) == pairs
        assert len(set(paired.values())) == len(pairs)      # no shared matmul
        taken = set()
        for index, instruction in enumerate(program):
            if instruction.opcode is not OpCode.BH_MATRIX_INVERSE:
                assert index not in paired
                continue
            first = next(
                (later for later in range(index + 1, len(program)) if reads(later, instruction)),
                None,
            )
            if first is None or first in taken:
                assert index not in paired                  # dropped, never retried
            else:
                assert paired[index] == first
                taken.add(first)


class TestRewriteRefused:
    def test_reused_inverse_blocks_rewrite(self):
        program, solution, memory = linear_solve_program(16, reuse_inverse=True)
        result = run_pass(program)
        assert not result.changed
        assert result.program.count(OpCode.BH_MATRIX_INVERSE) == 1

    def test_synced_inverse_blocks_rewrite(self):
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, inv, b)
        builder.sync(inv)                # the inverse itself is an output
        builder.sync(x)
        result = run_pass(builder.build())
        assert not result.changed

    def test_unfreed_inverse_blocks_rewrite(self):
        # Without a BH_FREE (or later overwrite) the front-end may still
        # observe the inverse in a later flush, so the rewrite must not fire.
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, inv, b)
        builder.sync(x)
        result = run_pass(builder.build())
        assert not result.changed

    def test_matrix_modified_between_inverse_and_matmul_blocks_rewrite(self):
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.identity(a, 0)           # A changes after being inverted
        builder.matmul(x, inv, b)
        builder.sync(x)
        builder.free(inv)
        result = run_pass(builder.build())
        assert not result.changed

    def test_rhs_modified_between_inverse_and_matmul_blocks_rewrite(self):
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.add(b, b, 1)             # b changes before the product
        builder.matmul(x, inv, b)
        builder.sync(x)
        builder.free(inv)
        # NOTE: changing b *before* the product is actually fine for the
        # naive path, but the fused LU_SOLVE reads b at the same point the
        # matmul did, so the rewrite is still legal; what must block it is a
        # change to A.  The pass is conservative and refuses both.
        result = run_pass(builder.build())
        assert not result.changed

    def test_matmul_with_unrelated_matrix_not_rewritten(self):
        builder = ProgramBuilder()
        n = 8
        a = builder.new_matrix(n, n)
        c = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x, c, b)          # multiplies a *different* matrix
        builder.sync(x)
        builder.free(inv)
        result = run_pass(builder.build())
        assert not result.changed


class TestWithinFullPipeline:
    def test_full_pipeline_applies_rewrite_and_removes_inverse(self):
        program, solution, memory = linear_solve_program(12)
        report = optimize(program)
        assert report.optimized.count(OpCode.BH_LU_SOLVE) == 1
        assert report.optimized.count(OpCode.BH_MATRIX_INVERSE) == 0

    def test_full_pipeline_respects_reuse(self):
        program, solution, memory = linear_solve_program(12, reuse_inverse=True)
        report = optimize(program)
        assert report.optimized.count(OpCode.BH_LU_SOLVE) == 0
        assert report.optimized.count(OpCode.BH_MATRIX_INVERSE) == 1
