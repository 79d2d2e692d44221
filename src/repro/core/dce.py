"""Dead-code elimination.

A byte-code is dead when the value it writes can never be observed: no later
instruction reads the written view before it is completely overwritten or
freed, and the view's base is never synced afterwards.  Such byte-codes
commonly appear after copy propagation and after the linear-solve rewrite
(the now-unused ``BH_MATRIX_INVERSE``).

The pass iterates to a local fixed point because removing one dead
instruction can make its producers dead as well.
"""

from __future__ import annotations

from typing import List

from repro.bytecode.instruction import Instruction
from repro.bytecode.program import Program
from repro.core.analysis import DefUse
from repro.core.rules import Pass, PassResult


#: Bound on removal sweeps per run.
MAX_SWEEPS = 8


class DeadCodeEliminationPass(Pass):
    """Remove byte-codes whose results are never observed."""

    name = "dce"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        current = program
        for _ in range(MAX_SWEEPS):
            removed, current = self._sweep(current, stats)
            if removed == 0:
                break
        return self._finish(current, stats)

    def _sweep(self, program: Program, stats) -> tuple:
        """One removal sweep; returns (number removed, new program)."""
        # One def-use index per sweep serves every deadness query; removals
        # invalidate it, which is why the fixed-point loop re-sweeps.
        defuse = DefUse.analyze(program)
        removed = {
            index
            for index, instruction in enumerate(program)
            if self._is_removable(defuse, index, instruction)
        }
        # A base whose every access just went is no longer allocated by the
        # program, so its BH_FREE goes too (a backend that binds storage per
        # referenced base would otherwise allocate it only to free it).  A
        # free that had no definition here to begin with stays: it releases
        # what an earlier flush defined.
        orphaned = set()
        for index in sorted(removed):
            instruction = program[index]
            stats.rewrites_applied += 1
            stats.note(f"removed dead {instruction.opcode.value} at {index}")
            for base in instruction.bases_written():
                if all(access.index in removed for access in defuse.accesses_of(base)):
                    orphaned.update(defuse.freed.get(id(base), ()))
        keep: List[Instruction] = [
            instruction
            for index, instruction in enumerate(program)
            if index not in removed and index not in orphaned
        ]
        return len(removed), Program(keep)

    def _is_removable(self, defuse: DefUse, index: int, instruction: Instruction) -> bool:
        # System byte-codes, frees and syncs are control/observability points
        # and are never removed here.
        if instruction.is_system():
            return False
        writes = instruction.writes()
        if not writes:
            return False
        return all(defuse.value_dead_after(index, view) for view in writes)
