"""Context-aware linear-solve rewrite (paper Equation 2).

The byte-code idiom for ``x = inv(A) @ b``::

    BH_MATRIX_INVERSE t, A
    ...                        # unrelated byte-codes
    BH_MATMUL x, t, b

costs about ``2 n^3`` flops for the inversion plus ``2 n^2`` for the product.
Solving the same system through an LU factorisation costs about
``2/3 n^3 + 2 n^2`` — roughly three times cheaper — so the pass rewrites the
idiom to::

    BH_LU_SOLVE x, A, b

**but only when** the inverse tensor ``t`` is not used for anything else,
which is exactly the caveat the paper attaches to the transformation ("this
is of course only faster, if we do not use the inverse for anything else in
our computations").  The safety conditions are established with the liveness
analysis from :mod:`repro.core.analysis`:

* ``t`` is read only by the matched ``BH_MATMUL`` (and possibly freed);
* ``t`` is never synced (it is not a program output);
* neither ``A`` nor ``b`` is modified between the inversion and the product.

When the inverse *is* reused the rewrite is refused — benchmark E5 includes
this negative case.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.core.analysis import DefUse
from repro.core.rules import Pass, PassResult


def _is_inverse(instruction: Instruction) -> bool:
    """``BH_MATRIX_INVERSE t, A`` with a view output and a view input."""
    inputs = instruction.inputs
    return (
        instruction.opcode is OpCode.BH_MATRIX_INVERSE
        and instruction.out is not None
        and len(inputs) == 1
        and is_view(inputs[0])
    )


def _multiplies_inverse(instruction: Instruction, inverse: Instruction) -> bool:
    """``BH_MATMUL x, t, b`` where ``t`` is exactly ``inverse``'s output view."""
    inputs = instruction.inputs
    return (
        instruction.opcode is OpCode.BH_MATMUL
        and instruction.out is not None
        and len(inputs) == 2
        and is_view(inputs[0])
        and inputs[0].same_view(inverse.out)
        and is_view(inputs[1])
    )


def _idiom_pairs(program: Program) -> List[Tuple[int, int]]:
    """``(inverse index, matmul index)`` of every idiom, left to right.

    Each inverse pairs with the first later matmul of its output, whatever
    sits in between; a matmul an earlier inverse already took drops the
    later inverse instead of sending it on to the next matmul.
    """
    pairs = []
    taken = set()
    for inverse_index, inverse in enumerate(program):
        if not _is_inverse(inverse):
            continue
        matmul_index = next(
            (
                index
                for index in range(inverse_index + 1, len(program))
                if _multiplies_inverse(program[index], inverse)
            ),
            None,
        )
        if matmul_index is None or matmul_index in taken:
            continue
        taken.add(matmul_index)
        pairs.append((inverse_index, matmul_index))
    return pairs


class LinearSolveRewritePass(Pass):
    """Rewrite ``inv(A) @ b`` byte-code idioms into ``BH_LU_SOLVE``."""

    name = "linear_solve"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        pairs = _idiom_pairs(program)
        if not pairs:
            return self._finish(program.copy(), stats)

        defuse = DefUse.analyze(program)
        to_remove = set()
        replacements = {}
        for inverse_index, matmul_index in pairs:
            inverse, matmul = program[inverse_index], program[matmul_index]
            if not self._is_safe(defuse, inverse, matmul, inverse_index, matmul_index):
                continue
            matrix = inverse.inputs[0]
            solution, rhs = matmul.out, matmul.inputs[1]
            replacements[matmul_index] = Instruction(
                OpCode.BH_LU_SOLVE, (solution, matrix, rhs), tag=self.name
            )
            to_remove.add(inverse_index)
            stats.rewrites_applied += 1
            stats.note(
                f"rewrote inverse({matrix.base.name}) @ {rhs.base.name} "
                f"into BH_LU_SOLVE"
            )

        if not replacements:
            return self._finish(program.copy(), stats)

        result: List[Instruction] = []
        for index, instruction in enumerate(program):
            if index in to_remove:
                continue
            if index in replacements:
                result.append(replacements[index])
                continue
            result.append(instruction)
        return self._finish(Program(result), stats)

    def _is_safe(
        self,
        defuse: DefUse,
        inverse: Instruction,
        matmul: Instruction,
        inverse_index: int,
        matmul_index: int,
    ) -> bool:
        inverse_view = inverse.out
        matrix_view = inverse.inputs[0]
        rhs_view = matmul.inputs[1]
        inverse_base = inverse_view.base

        # The inverse must not be a program output.
        if defuse.is_synced(inverse_base):
            return False

        # The only read of the inverse may be the matched matmul.
        reads = [access.index for access in defuse.reads_of(inverse_base)]
        if any(index != matmul_index for index in reads):
            return False

        # The inverse value must be dead after the matmul (nothing reads it
        # later before it is overwritten or freed).
        if not defuse.value_dead_after(matmul_index, inverse_view):
            return False

        # A and b must still hold the same values at the matmul as they did
        # at the inversion, otherwise A used by LU_SOLVE differs from the A
        # that was inverted.
        if defuse.written_between(
            matrix_view.base, inverse_index, matmul_index, within=matrix_view
        ):
            return False
        if defuse.written_between(
            rhs_view.base, inverse_index, matmul_index, within=rhs_view
        ):
            return False

        # The solution must not alias A or b in a way the combined solve
        # could corrupt (the fused LU_SOLVE reads both of them fully).
        solution = matmul.out
        if solution.overlaps(matrix_view) or solution.overlaps(rhs_view):
            return False
        return True
