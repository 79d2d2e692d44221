"""Identity simplification: remove algebraically trivial byte-codes.

Small local rewrites that frequently appear after the front-end has recorded
a program and after other passes have run:

* ``x + 0``, ``x - 0``, ``x * 1``, ``x / 1``, ``x ** 1`` where the output is
  the same view as the input — the byte-code is a no-op and is dropped.
* the same patterns writing to a *different* view become a plain
  ``BH_IDENTITY`` copy.
* ``x * 0`` becomes ``BH_IDENTITY out, 0``.
* ``x ** 0`` becomes ``BH_IDENTITY out, 1``.
* ``BH_IDENTITY v, v`` (copying a view onto itself) is dropped.

These rewrites feed the constant-merge and DCE passes; they are the "small
loop-fusion-like contractions" end of the paper's transformation spectrum.
"""

from __future__ import annotations

from typing import List

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.core.rules import Pass, PassResult

_DROP = "drop"


class IdentitySimplifyPass(Pass):
    """Remove or simplify algebraically trivial byte-codes."""

    name = "identity_simplify"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        result: List[Instruction] = []
        for instruction in program:
            simplified = self._simplify(instruction)
            if simplified is _DROP:
                stats.rewrites_applied += 1
                stats.note(f"dropped no-op {instruction.opcode.value}")
                continue
            if simplified is None:
                result.append(instruction)
                continue
            stats.rewrites_applied += 1
            stats.note(
                f"replaced {instruction.opcode.value} with {simplified.opcode.value}"
            )
            result.append(simplified)
        return self._finish(Program(result), stats)

    def _simplify(self, instruction: Instruction):
        """Return ``_DROP``, a replacement instruction, or ``None`` (keep)."""
        opcode = instruction.opcode
        out = instruction.out
        if out is None:
            return None
        inputs = instruction.inputs

        if opcode is OpCode.BH_IDENTITY and len(inputs) == 1:
            source = inputs[0]
            if is_view(source) and source.same_view(out):
                return _DROP
            return None

        if len(inputs) != 2:
            return None
        first, second = inputs

        # Normalise "constant op view" for commutative op-codes so the
        # checks below only need to consider the constant on the right.
        if instruction.info.commutative and is_constant(first) and is_view(second):
            first, second = second, first

        if not (is_view(first) and is_constant(second)):
            return None
        value = second.value
        in_place = first.same_view(out)

        if opcode in (OpCode.BH_ADD, OpCode.BH_SUBTRACT) and value == 0:
            return _DROP if in_place else Instruction(
                OpCode.BH_IDENTITY, (out, first), tag=self.name
            )
        if opcode in (OpCode.BH_MULTIPLY, OpCode.BH_DIVIDE) and value == 1:
            return _DROP if in_place else Instruction(
                OpCode.BH_IDENTITY, (out, first), tag=self.name
            )
        if opcode is OpCode.BH_MULTIPLY and value == 0:
            return Instruction(
                OpCode.BH_IDENTITY, (out, Constant(0, out.dtype)), tag=self.name
            )
        if opcode is OpCode.BH_POWER and value == 1:
            return _DROP if in_place else Instruction(
                OpCode.BH_IDENTITY, (out, first), tag=self.name
            )
        if opcode is OpCode.BH_POWER and value == 0:
            return Instruction(
                OpCode.BH_IDENTITY, (out, Constant(1, out.dtype)), tag=self.name
            )
        return None
