"""Scalar constant folding across whole-view initialisations.

An *extension pass* (not part of the paper's listings, but the natural next
step of its Section 2 "transformations are rewritings" view): when a view is
initialised from a scalar constant and then updated in place with further
constant operands, the whole prefix is pure scalar arithmetic and can be
folded into a single initialisation::

    BH_IDENTITY a0, 2
    BH_ADD      a0, a0, 3        ->   BH_IDENTITY a0, 10
    BH_MULTIPLY a0, a0, 2

This subsumes part of what constant merging does, but is deliberately kept
out of the default pipeline so the default behaviour matches the paper's
Listing 3 exactly (an ``BH_IDENTITY 0`` followed by ``BH_ADD 3``); enable it
via ``default_pipeline(extended=True)`` or by name (``"constant_fold"``).

Safety mirrors the constant-merge pass: the fold only extends across
byte-codes that accumulate into the *same full view* with constant operands,
and stops at anything that reads or writes an overlapping view in between.
"""

from __future__ import annotations

import math
from typing import List

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.rules import Pass, PassResult

#: Element-wise op-codes the folder can evaluate on scalars.
_FOLDABLE_BINARY = {
    OpCode.BH_ADD: lambda a, b: a + b,
    OpCode.BH_SUBTRACT: lambda a, b: a - b,
    OpCode.BH_MULTIPLY: lambda a, b: a * b,
    OpCode.BH_DIVIDE: lambda a, b: a / b,
    OpCode.BH_POWER: lambda a, b: a ** b,
    OpCode.BH_MAXIMUM: max,
    OpCode.BH_MINIMUM: min,
    OpCode.BH_MOD: lambda a, b: math.fmod(a, b) if isinstance(a, float) or isinstance(b, float) else a % b,
}

_FOLDABLE_UNARY = {
    OpCode.BH_NEGATIVE: lambda a: -a,
    OpCode.BH_ABSOLUTE: abs,
    OpCode.BH_SQRT: math.sqrt,
    OpCode.BH_EXP: math.exp,
    OpCode.BH_LOG: math.log,
    OpCode.BH_SIN: math.sin,
    OpCode.BH_COS: math.cos,
    OpCode.BH_TAN: math.tan,
}


class ScalarConstantFoldingPass(Pass):
    """Fold constant-initialised, constant-updated views into one byte-code."""

    name = "constant_fold"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        instructions = list(program)
        consumed = [False] * len(instructions)
        replacements = {}

        index = 0
        while index < len(instructions):
            if consumed[index]:
                index += 1
                continue
            seed = self._as_seed(instructions[index])
            if seed is None:
                index += 1
                continue
            view, value = seed
            run_indices, folded_value = self._extend(instructions, index, view, value)
            if len(run_indices) >= 2:
                for position in run_indices:
                    consumed[position] = True
                replacements[index] = Instruction(
                    OpCode.BH_IDENTITY, (view, Constant(folded_value)), tag=self.name
                )
                stats.rewrites_applied += 1
                stats.note(
                    f"folded {len(run_indices)} byte-codes on {view.base.name} "
                    f"into BH_IDENTITY {folded_value!r}"
                )
                index = run_indices[-1] + 1
            else:
                index += 1

        result: List[Instruction] = []
        for position, instruction in enumerate(instructions):
            if position in replacements:
                result.append(replacements[position])
            elif not consumed[position]:
                result.append(instruction)
        return self._finish(Program(result), stats)

    # ------------------------------------------------------------------ #
    # Folding machinery
    # ------------------------------------------------------------------ #

    def _as_seed(self, instruction: Instruction):
        """A fold starts at ``BH_IDENTITY view, constant`` over a full view."""
        if instruction.opcode is not OpCode.BH_IDENTITY:
            return None
        out = instruction.out
        inputs = instruction.inputs
        if out is None or len(inputs) != 1 or not is_constant(inputs[0]):
            return None
        return out, inputs[0].value

    def _extend(self, instructions, start, view: View, value):
        """Extend the fold forward as far as safely possible."""
        run = [start]
        current = value
        for index in range(start + 1, len(instructions)):
            instruction = instructions[index]
            folded = self._fold_step(instruction, view, current)
            if folded is not None:
                run.append(index)
                current = folded
                continue
            if self._interferes(instruction, view):
                break
        return run, current

    def _fold_step(self, instruction: Instruction, view: View, current):
        """Fold one in-place update of ``view``; return the new scalar or ``None``."""
        out = instruction.out
        if out is None or not out.same_view(view):
            return None
        inputs = instruction.inputs
        if instruction.opcode in _FOLDABLE_UNARY and len(inputs) == 1:
            source = inputs[0]
            if is_view(source) and source.same_view(view):
                try:
                    return _FOLDABLE_UNARY[instruction.opcode](current)
                except ValueError:
                    return None
            return None
        if instruction.opcode not in _FOLDABLE_BINARY or len(inputs) != 2:
            return None
        left, right = inputs
        info = instruction.info
        if is_view(left) and left.same_view(view) and is_constant(right):
            operands = (current, right.value)
        elif is_view(right) and right.same_view(view) and is_constant(left):
            if not info.commutative and instruction.opcode not in (
                OpCode.BH_SUBTRACT,
                OpCode.BH_DIVIDE,
                OpCode.BH_POWER,
                OpCode.BH_MOD,
            ):
                return None
            operands = (left.value, current)
        else:
            return None
        try:
            return _FOLDABLE_BINARY[instruction.opcode](*operands)
        except (ZeroDivisionError, OverflowError, ValueError):
            return None

    def _interferes(self, instruction: Instruction, view: View) -> bool:
        if instruction.opcode in (OpCode.BH_SYNC, OpCode.BH_FREE):
            return any(v.base is view.base for v in instruction.views())
        for read in instruction.reads():
            if read.base is view.base and read.overlaps(view):
                return True
        for write in instruction.writes():
            if write.base is view.base and write.overlaps(view):
                return True
        return False
