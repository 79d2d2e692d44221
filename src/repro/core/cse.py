"""Common-subexpression elimination over byte-code sequences.

An extension pass: when two byte-codes apply the same operation to the same
inputs and nothing has modified those inputs (or the first result) in
between, the second computation is redundant — it can be replaced by a copy
of the first result, which copy propagation and DCE then usually dissolve
entirely.

Typical front-end source of such redundancy::

    d1 = (log(s / k) + a) / b
    d2 = (log(s / k) + c) / b      # log(s / k) recorded twice

Safety conditions for treating instruction *j* as a repeat of instruction
*i* (i < j):

* same op-code and operand list (views compared structurally, constants by
  value), and the op-code is element-wise and deterministic (``BH_RANDOM``
  is excluded);
* no write to any input base's overlapping region between *i* and *j*;
* no write to *i*'s output region between *i* and *j* (the cached value must
  still be intact), and *i*'s output does not alias its inputs (an in-place
  update changes its own input, so the "same inputs" argument breaks).
"""

from __future__ import annotations

from typing import List

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.core.analysis import DefUse
from repro.core.rules import Pass, PassResult


def _is_candidate(instruction: Instruction) -> bool:
    if not instruction.is_elementwise():
        return False
    if instruction.opcode is OpCode.BH_IDENTITY:
        # plain copies are copy-propagation's job
        return False
    out = instruction.out
    if out is None:
        return False
    # in-place updates consume their own previous value; skip them
    return not any(out.overlaps(view) for view in instruction.input_views)


def _same_computation(first: Instruction, second: Instruction) -> bool:
    if first.opcode is not second.opcode:
        return False
    return first.inputs == second.inputs


class CommonSubexpressionEliminationPass(Pass):
    """Replace repeated identical element-wise byte-codes with copies."""

    name = "cse"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        # One def-use index answers every "was this written in between?"
        # query below; the pass never rescans the program per candidate.
        defuse = DefUse.analyze(program)
        instructions = list(program)
        result: List[Instruction] = []
        for index, instruction in enumerate(instructions):
            replacement = self._find_replacement(defuse, instructions, index, instruction)
            if replacement is None:
                result.append(instruction)
            else:
                stats.rewrites_applied += 1
                stats.note(
                    f"instruction {index} ({instruction.opcode.value}) reuses the "
                    f"result computed at {replacement[0]}"
                )
                result.append(replacement[1])
        return self._finish(Program(result), stats)

    def _find_replacement(
        self, defuse: DefUse, instructions, index: int, instruction: Instruction
    ):
        if not _is_candidate(instruction):
            return None
        for earlier_index in range(index - 1, -1, -1):
            earlier = instructions[earlier_index]
            if not _is_candidate(earlier):
                continue
            if not _same_computation(earlier, instruction):
                continue
            if not self._still_valid(defuse, earlier, earlier_index, index):
                continue
            source = earlier.out
            target = instruction.out
            if source.same_view(target):
                # identical instruction writing the same place: it is a pure
                # no-op repeat and can be dropped by returning a self-copy,
                # which identity-simplify/DCE remove.
                return earlier_index, Instruction(
                    OpCode.BH_IDENTITY, (target, source), tag=self.name
                )
            if source.shape != target.shape:
                continue
            return earlier_index, Instruction(
                OpCode.BH_IDENTITY, (target, source), tag=self.name
            )
        return None

    def _still_valid(
        self, defuse: DefUse, earlier: Instruction, earlier_index: int, index: int
    ) -> bool:
        # inputs unchanged since the earlier computation
        for view in earlier.input_views:
            if defuse.written_between(view.base, earlier_index, index, within=view):
                return False
        # the cached result itself unchanged
        out = earlier.out
        if defuse.written_between(out.base, earlier_index, index, within=out):
            return False
        return True
