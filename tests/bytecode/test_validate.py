"""Tests for static program validation."""

import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.validate import broadcast_shapes, validate_instruction, validate_program
from repro.bytecode.view import View
from repro.utils.errors import ValidationError


def vec(n, name=None):
    return View.full(BaseArray(n, name=name))


class TestBroadcastShapes:
    def test_equal_shapes(self):
        assert broadcast_shapes((3, 4), (3, 4)) == (3, 4)

    def test_scalar_like(self):
        assert broadcast_shapes((3, 4), ()) == (3, 4)

    def test_ones_broadcast(self):
        assert broadcast_shapes((3, 1), (1, 4)) == (3, 4)

    def test_incompatible(self):
        with pytest.raises(ValidationError):
            broadcast_shapes((3,), (4,))

    def test_zero_dim_stretches_the_one_side(self):
        # NumPy semantics: 1 broadcasts *to* 0, so the result is empty —
        # a naive max() would silently grow the empty side to 1 element.
        assert broadcast_shapes((0,), (1,)) == (0,)
        assert broadcast_shapes((1,), (0,)) == (0,)
        assert broadcast_shapes((3, 0), (3, 1)) == (3, 0)

    def test_equal_zero_dims(self):
        assert broadcast_shapes((0,), (0,)) == (0,)

    def test_zero_against_other_size_rejected(self):
        with pytest.raises(ValidationError, match="not broadcast-compatible"):
            broadcast_shapes((0,), (3,))

    def test_negative_dims_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            broadcast_shapes((-1,), (4,))
        with pytest.raises(ValidationError, match="negative"):
            broadcast_shapes((4,), (2, -3))


class TestInstructionValidation:
    def test_valid_elementwise(self):
        out = vec(8)
        validate_instruction(Instruction(OpCode.BH_ADD, (out, out, 1)))

    def test_output_must_be_view(self):
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD, (1, vec(4), 1)))

    def test_wrong_arity(self):
        out = vec(4)
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD, (out, out)))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_NEGATIVE, (out, out, out)))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD, (vec(4), vec(5), 1)))

    def test_broadcast_to_larger_output_than_out_rejected(self):
        small = vec(1)
        large = vec(6)
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD, (small, large, 1)))

    def test_reduction_axis_must_be_integer_constant(self):
        matrix = View.full(BaseArray(12), (3, 4))
        out = vec(4)
        validate_instruction(Instruction(OpCode.BH_ADD_REDUCE, (out, matrix, 0)))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD_REDUCE, (out, matrix, 0.5)))

    def test_reduction_axis_out_of_range(self):
        matrix = View.full(BaseArray(12), (3, 4))
        out = vec(4)
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD_REDUCE, (out, matrix, 2)))

    def test_reduction_output_shape_checked(self):
        matrix = View.full(BaseArray(12), (3, 4))
        wrong = vec(3)
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_ADD_REDUCE, (wrong, matrix, 0)))

    def test_full_reduction_to_single_element(self):
        source = vec(6)
        out = vec(1)
        validate_instruction(Instruction(OpCode.BH_ADD_REDUCE, (out, source, 0)))

    def test_matmul_shapes(self):
        a = View.full(BaseArray(6), (2, 3))
        b = View.full(BaseArray(3), (3,))
        out = vec(2)
        validate_instruction(Instruction(OpCode.BH_MATMUL, (out, a, b)))
        bad_b = vec(4)
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_MATMUL, (out, a, bad_b)))

    def test_matrix_inverse_requires_square(self):
        rect = View.full(BaseArray(6), (2, 3))
        out = View.full(BaseArray(6), (2, 3))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_MATRIX_INVERSE, (out, rect)))

    def test_lu_solve_shapes(self):
        a = View.full(BaseArray(9), (3, 3))
        b = vec(3)
        x = vec(3)
        validate_instruction(Instruction(OpCode.BH_LU_SOLVE, (x, a, b)))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_LU_SOLVE, (x, a, vec(4))))

    def test_random_requires_seed(self):
        out = vec(4)
        validate_instruction(Instruction(OpCode.BH_RANDOM, (out, 7)))

    def test_fused_requires_payload(self):
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_FUSED, ()))

    def test_fused_payload_must_be_elementwise(self):
        out = vec(4)
        reduction = Instruction(OpCode.BH_ADD_REDUCE, (vec(1), out, 0))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_FUSED, (), kernel=[reduction]))

    def test_a_reduction_may_only_close_a_fused_payload(self):
        out = vec(4)
        store = Instruction(OpCode.BH_ADD, (out, vec(4), 1))
        reduction = Instruction(OpCode.BH_ADD_REDUCE, (vec(1), out, 0))
        validate_instruction(Instruction(OpCode.BH_FUSED, (), kernel=[store, reduction]))
        for payload in ([reduction, store], [store, reduction, store], [store, reduction, reduction]):
            with pytest.raises(ValidationError, match="one closing reduction"):
                validate_instruction(Instruction(OpCode.BH_FUSED, (), kernel=payload))

    def test_system_arity(self):
        out = vec(4)
        validate_instruction(Instruction(OpCode.BH_SYNC, (out,)))
        with pytest.raises(ValidationError):
            validate_instruction(Instruction(OpCode.BH_SYNC, (out, out)))


class TestProgramValidation:
    def test_use_after_free_rejected(self):
        view = vec(4)
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (view, 1)),
                Instruction(OpCode.BH_FREE, (view,)),
                Instruction(OpCode.BH_ADD, (view, view, 1)),
            ]
        )
        with pytest.raises(ValidationError, match="after BH_FREE"):
            validate_program(program)

    def test_use_after_free_names_the_base(self):
        view = vec(4, name="victim")
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (view, 1)),
                Instruction(OpCode.BH_FREE, (view,)),
                Instruction(OpCode.BH_ADD, (view, view, 1)),
            ]
        )
        with pytest.raises(ValidationError, match="'victim'"):
            validate_program(program)

    def test_error_mentions_instruction_position(self):
        view = vec(4)
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (view, 1)),
                Instruction(OpCode.BH_ADD, (view, view)),
            ]
        )
        with pytest.raises(ValidationError, match="instruction 1"):
            validate_program(program)

    def test_valid_program_passes(self):
        view = vec(4)
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (view, 1)),
                Instruction(OpCode.BH_ADD, (view, view, 1)),
                Instruction(OpCode.BH_SYNC, (view,)),
                Instruction(OpCode.BH_FREE, (view,)),
            ]
        )
        validate_program(program)
