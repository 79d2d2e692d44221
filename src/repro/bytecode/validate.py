"""Structural validation of instructions and programs.

Validation is purely static: it checks operand counts, operand kinds and
shape compatibility, not runtime values.  The optimizer validates the
program it is given and the program it produces, so a broken rewrite fails
fast with a :class:`~repro.utils.errors.ValidationError` instead of
producing silently wrong results.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_constant, is_view
from repro.bytecode.program import Program
from repro.utils.errors import ValidationError


def broadcast_shapes(left: Sequence[int], right: Sequence[int]) -> Tuple[int, ...]:
    """NumPy-style broadcast of two shapes.

    Raises :class:`ValidationError` when the shapes are incompatible.
    """
    result = []
    left_rev = list(reversed(tuple(left)))
    right_rev = list(reversed(tuple(right)))
    for dims in (left_rev, right_rev):
        if any(dim < 0 for dim in dims):
            raise ValidationError(
                f"shapes {tuple(left)} and {tuple(right)} contain a negative dimension"
            )
    for axis in range(max(len(left_rev), len(right_rev))):
        dim_left = left_rev[axis] if axis < len(left_rev) else 1
        dim_right = right_rev[axis] if axis < len(right_rev) else 1
        # NumPy semantics: a dimension of 1 stretches to the other side's
        # size — including 0.  ``max(dim_left, dim_right)`` would turn
        # (0,) broadcast (1,) into 1 and silently grow an empty array.
        if dim_left == dim_right:
            result.append(dim_left)
        elif dim_left == 1:
            result.append(dim_right)
        elif dim_right == 1:
            result.append(dim_left)
        else:
            raise ValidationError(
                f"shapes {tuple(left)} and {tuple(right)} are not broadcast-compatible"
            )
    return tuple(reversed(result))


def _validate_elementwise(instruction: Instruction) -> None:
    out = instruction.out
    if out is None:
        raise ValidationError(f"{instruction.opcode} requires a view output")
    broadcast = out.shape
    for operand in instruction.inputs:
        if is_view(operand):
            broadcast = broadcast_shapes(broadcast, operand.shape)
    if tuple(broadcast) != tuple(out.shape):
        raise ValidationError(
            f"{instruction.opcode}: inputs broadcast to {broadcast} "
            f"but output shape is {out.shape}"
        )


def _validate_reduction(instruction: Instruction) -> None:
    out = instruction.out
    if out is None:
        raise ValidationError(f"{instruction.opcode} requires a view output")
    inputs = instruction.inputs
    if len(inputs) != 2:
        raise ValidationError(f"{instruction.opcode} expects an input view and an axis constant")
    source, axis = inputs
    if not is_view(source):
        raise ValidationError(f"{instruction.opcode}: first input must be a view")
    if not is_constant(axis) or not axis.dtype.is_integer:
        raise ValidationError(f"{instruction.opcode}: axis must be an integer constant")
    axis_value = int(axis.value)
    if axis_value < 0 or axis_value >= source.ndim:
        raise ValidationError(
            f"{instruction.opcode}: axis {axis_value} out of range for rank {source.ndim}"
        )
    expected = tuple(dim for index, dim in enumerate(source.shape) if index != axis_value)
    if expected == ():
        expected = (1,)
    if tuple(out.shape) != expected:
        raise ValidationError(
            f"{instruction.opcode}: reducing axis {axis_value} of {source.shape} "
            f"yields {expected}, output has {out.shape}"
        )


def _validate_extension(instruction: Instruction) -> None:
    out = instruction.out
    if out is None:
        raise ValidationError(f"{instruction.opcode} requires a view output")
    views = instruction.input_views
    if instruction.opcode is OpCode.BH_MATMUL:
        if len(views) != 2:
            raise ValidationError("BH_MATMUL requires two view inputs")
        a, b = views
        if a.ndim != 2 or b.ndim not in (1, 2):
            raise ValidationError("BH_MATMUL expects a matrix and a matrix/vector")
        if a.shape[1] != b.shape[0]:
            raise ValidationError(
                f"BH_MATMUL inner dimensions disagree: {a.shape} @ {b.shape}"
            )
    elif instruction.opcode is OpCode.BH_MATRIX_INVERSE:
        if len(views) != 1 or views[0].ndim != 2 or views[0].shape[0] != views[0].shape[1]:
            raise ValidationError("BH_MATRIX_INVERSE expects one square matrix view")
    elif instruction.opcode is OpCode.BH_LU:
        if len(views) != 1 or views[0].ndim != 2 or views[0].shape[0] != views[0].shape[1]:
            raise ValidationError("BH_LU expects one square matrix view")
    elif instruction.opcode is OpCode.BH_LU_SOLVE:
        if len(views) != 2:
            raise ValidationError("BH_LU_SOLVE requires a matrix view and a right-hand side view")
        a, b = views
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("BH_LU_SOLVE expects a square matrix as first input")
        if b.shape[0] != a.shape[0]:
            raise ValidationError(
                f"BH_LU_SOLVE right-hand side has {b.shape[0]} rows, matrix has {a.shape[0]}"
            )
    elif instruction.opcode is OpCode.BH_TRANSPOSE:
        if len(views) != 1 or views[0].ndim != 2:
            raise ValidationError("BH_TRANSPOSE expects one matrix view")


def validate_instruction(instruction: Instruction) -> None:
    """Validate one instruction; raises :class:`ValidationError` on problems."""
    info = instruction.info
    if info.has_output:
        if not instruction.operands:
            raise ValidationError(f"{instruction.opcode} is missing its output operand")
        if not is_view(instruction.operands[0]):
            raise ValidationError(
                f"{instruction.opcode}: output operand must be a view, "
                f"got {type(instruction.operands[0]).__name__}"
            )
    if instruction.opcode is OpCode.BH_FUSED:
        if instruction.kernel is None or len(instruction.kernel) == 0:
            raise ValidationError("BH_FUSED requires a non-empty kernel payload")
        last = len(instruction.kernel) - 1
        for position, inner in enumerate(instruction.kernel):
            # One reduction may end a kernel that has element-wise members.
            if not inner.is_elementwise() and not (
                inner.is_reduction() and 0 < position == last
            ):
                raise ValidationError(
                    f"BH_FUSED payload may only contain element-wise instructions "
                    f"and one closing reduction, found {inner.opcode} at "
                    f"position {position} of {last + 1}"
                )
            validate_instruction(inner)
        return
    if info.system:
        if info.has_output and len(instruction.operands) != 1:
            raise ValidationError(f"{instruction.opcode} takes exactly one view operand")
        return
    expected = info.num_operands
    if len(instruction.operands) != expected:
        raise ValidationError(
            f"{instruction.opcode} expects {expected} operands, got {len(instruction.operands)}"
        )
    if info.elementwise:
        _validate_elementwise(instruction)
    elif info.reduction:
        _validate_reduction(instruction)
    elif info.extension:
        _validate_extension(instruction)
    elif instruction.opcode is OpCode.BH_RANDOM:
        if not instruction.constants:
            raise ValidationError("BH_RANDOM requires a seed constant")


def validate_program(program: Program) -> None:
    """Validate every instruction of ``program`` plus cross-instruction rules.

    Cross-instruction checks: no instruction may read or write a base after
    it has been freed with ``BH_FREE``.
    """
    freed = set()
    for position, instruction in enumerate(program):
        try:
            validate_instruction(instruction)
        except ValidationError as exc:
            raise ValidationError(f"instruction {position}: {exc}") from None
        touched = {id(view.base): view.base for view in instruction.views()}
        used_after_free = sorted(
            base.name for base_id, base in touched.items() if base_id in freed
        )
        if used_after_free:
            raise ValidationError(
                f"instruction {position} ({instruction.opcode}) uses base "
                f"array(s) {', '.join(repr(name) for name in used_after_free)} "
                f"after BH_FREE"
            )
        if instruction.opcode is OpCode.BH_FREE:
            for operand in instruction.operands:
                if is_view(operand):
                    freed.add(id(operand.base))
