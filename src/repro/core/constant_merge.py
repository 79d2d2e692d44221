"""Constant-merge transformation (paper Listings 1-3).

The motivating example of the paper: three ``BH_ADD a0, a0, 1`` byte-codes
traverse the (potentially huge) tensor three times, but because addition of
constants is associative the three constants can be summed up front and the
tensor traversed once::

    BH_ADD a0 a0 1          BH_ADD a0 a0 3
    BH_ADD a0 a0 1    =>
    BH_ADD a0 a0 1

The pass generalises the idea to any run of accumulating byte-codes of the
same *algebraic family* on the same view:

* additive family: ``BH_ADD`` / ``BH_SUBTRACT`` with a constant operand —
  merged by summing signed constants;
* multiplicative family: ``BH_MULTIPLY`` / ``BH_DIVIDE`` with a constant
  operand — merged by multiplying/dividing factors.

Safety: between two merged byte-codes nothing may read the accumulated view
(the intermediate value would become observable) and nothing may write to it
(the merge would reorder writes).  Runs therefore tolerate *unrelated*
intervening instructions, not interfering ones.  If the merged constant is
the operation's identity element the whole run disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bytecode.dtypes import promote
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.rules import Pass, PassResult

_ADDITIVE = (OpCode.BH_ADD, OpCode.BH_SUBTRACT)
_MULTIPLICATIVE = (OpCode.BH_MULTIPLY, OpCode.BH_DIVIDE)

#: Most consecutive constant operations one merge contracts.
MAX_MERGE_WINDOW = 1024


@dataclass
class _Candidate:
    """One accumulating byte-code eligible for merging."""

    index: int
    instruction: Instruction
    view: View
    constant: Constant
    opcode: OpCode


def _family(opcode: OpCode) -> Optional[str]:
    if opcode in _ADDITIVE:
        return "additive"
    if opcode in _MULTIPLICATIVE:
        return "multiplicative"
    return None


def _as_candidate(index: int, instruction: Instruction) -> Optional[_Candidate]:
    """Recognise ``OP view, view, constant`` accumulating onto the same view."""
    family = _family(instruction.opcode)
    if family is None:
        return None
    out = instruction.out
    if out is None:
        return None
    inputs = instruction.inputs
    if len(inputs) != 2:
        return None
    first, second = inputs
    info = instruction.info
    # Accept "view op constant"; for commutative op-codes also "constant op view".
    if is_view(first) and is_constant(second):
        accumulator, constant = first, second
    elif info.commutative and is_constant(first) and is_view(second):
        accumulator, constant = second, first
    else:
        return None
    if not accumulator.same_view(out):
        return None
    return _Candidate(index, instruction, out, constant, instruction.opcode)


class ConstantMergePass(Pass):
    """Merge runs of constant accumulations into a single byte-code."""

    name = "constant_merge"

    def __init__(self, max_window: int = MAX_MERGE_WINDOW) -> None:
        self.max_window = max_window

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        instructions = list(program)
        consumed = [False] * len(instructions)
        replacements: dict = {}

        index = 0
        while index < len(instructions):
            if consumed[index]:
                index += 1
                continue
            leader = _as_candidate(index, instructions[index])
            if leader is None:
                index += 1
                continue
            run = self._collect_run(program, instructions, leader)
            if len(run) >= 2:
                merged = self._merge(run)
                for member in run:
                    consumed[member.index] = True
                replacements[leader.index] = merged
                stats.rewrites_applied += 1
                stats.note(
                    f"merged {len(run)} {leader.opcode.value} byte-codes on "
                    f"{leader.view.base.name} into "
                    f"{merged.opcode.value if merged is not None else 'nothing'}"
                )
                index = run[-1].index + 1
            else:
                index += 1

        result: List[Instruction] = []
        for position, instruction in enumerate(instructions):
            if position in replacements:
                merged = replacements[position]
                if merged is not None:
                    result.append(merged)
            elif not consumed[position]:
                result.append(instruction)
        return self._finish(Program(result), stats)

    # ------------------------------------------------------------------ #
    # Run collection and merging
    # ------------------------------------------------------------------ #

    def _collect_run(
        self, program: Program, instructions: List[Instruction], leader: _Candidate
    ) -> List[_Candidate]:
        """Extend the run starting at ``leader`` as far as safely possible."""
        family = _family(leader.opcode)
        run = [leader]
        target_view = leader.view
        integer_target = target_view.dtype.is_integer
        for index in range(leader.index + 1, len(instructions)):
            if len(run) >= self.max_window:
                break
            instruction = instructions[index]
            candidate = _as_candidate(index, instruction)
            if (
                candidate is not None
                and _family(candidate.opcode) == family
                and candidate.view.same_view(target_view)
                and not (integer_target and candidate.opcode is OpCode.BH_DIVIDE)
            ):
                run.append(candidate)
                continue
            if self._interferes(instruction, target_view):
                break
        return run

    def _interferes(self, instruction: Instruction, view: View) -> bool:
        """Would hoisting the accumulation past ``instruction`` be unsafe?"""
        if instruction.opcode is OpCode.BH_SYNC:
            return any(v.base is view.base for v in instruction.views())
        if instruction.opcode is OpCode.BH_FREE:
            return any(v.base is view.base for v in instruction.views())
        for read in instruction.reads():
            if read.base is view.base and read.overlaps(view):
                return True
        for write in instruction.writes():
            if write.base is view.base and write.overlaps(view):
                return True
        return False

    def _merge(self, run: List[_Candidate]) -> Optional[Instruction]:
        """Build the single byte-code replacing ``run`` (or ``None`` to drop it)."""
        family = _family(run[0].opcode)
        view = run[0].view
        dtype = run[0].constant.dtype
        for member in run[1:]:
            dtype = promote(dtype, member.constant.dtype)

        if family == "additive":
            total = 0
            for member in run:
                value = member.constant.value
                total = total + value if member.opcode is OpCode.BH_ADD else total - value
            if total == 0:
                return None
            if total < 0 and not dtype.is_float:
                # Keep integer semantics explicit: subtract the magnitude.
                return Instruction(
                    OpCode.BH_SUBTRACT,
                    (view, view, Constant(-total, dtype)),
                    tag="constant_merge",
                )
            return Instruction(
                OpCode.BH_ADD, (view, view, Constant(total, dtype)), tag="constant_merge"
            )

        # Multiplicative family: accumulate an exact numerator / denominator.
        numerator = 1.0 if dtype.is_float else 1
        denominator = 1.0 if dtype.is_float else 1
        for member in run:
            value = member.constant.value
            if member.opcode is OpCode.BH_MULTIPLY:
                numerator = numerator * value
            else:
                denominator = denominator * value
        if numerator == denominator:
            return None
        if denominator == 1:
            return Instruction(
                OpCode.BH_MULTIPLY,
                (view, view, Constant(numerator, dtype)),
                tag="constant_merge",
            )
        if numerator == 1:
            return Instruction(
                OpCode.BH_DIVIDE,
                (view, view, Constant(denominator, dtype)),
                tag="constant_merge",
            )
        return Instruction(
            OpCode.BH_MULTIPLY,
            (view, view, Constant(numerator / denominator, dtype)),
            tag="constant_merge",
        )
