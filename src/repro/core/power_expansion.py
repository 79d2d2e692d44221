"""Power-expansion transformation (paper Equation 1, Listings 4-5).

``BH_POWER`` with a natural exponent is rewritten into a sequence of
``BH_MULTIPLY`` byte-codes following an addition chain.  The paper's point
is twofold:

* the *naive* expansion (Listing 4) needs ``n - 1`` multiplies, but
* because the runtime owns the result tensor it can be reused as scratch,
  giving a square-and-multiply chain (Listing 5) with only
  ``O(log n)`` multiplies — and no temporary tensors, which matters because
  "copying data to create temporary tensors would be time consuming for
  large tensors".

Bohrium enables this rewrite by default because a chain of cheap multiplies
beats the transcendental ``pow`` kernel for exponents near a power of two —
our cost model (and benchmark E4) reproduces that crossover.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.base import BaseArray
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.addition_chains import AdditionChain, chain_for
from repro.core.rules import Pass, PassResult

#: Largest integer exponent expanded into multiplications; above it the
#: ``BH_POWER`` op-code is kept.
EXPANSION_LIMIT = 64


def _natural_exponent(constant: Constant) -> Optional[int]:
    """Return the exponent as a natural number, or ``None`` when not eligible."""
    value = constant.value
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        exponent = value
    elif isinstance(value, float) and float(value).is_integer():
        exponent = int(value)
    else:
        return None
    if exponent < 0:
        return None
    return exponent


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def expand_power(
    instruction: Instruction,
    strategy: str = "power_of_two",
    allow_temporaries: bool = False,
    tag: str = "power_expansion",
) -> Optional[List[Instruction]]:
    """Expand one ``BH_POWER`` byte-code into multiplies.

    Returns the replacement instruction list, or ``None`` when the
    instruction is not an expandable power (non-constant exponent, negative
    or fractional exponent, aliasing that would make the chain unsafe, or a
    chain that needs temporaries while ``allow_temporaries`` is false).
    """
    if instruction.opcode is not OpCode.BH_POWER:
        return None
    out = instruction.out
    inputs = instruction.inputs
    if out is None or len(inputs) != 2:
        return None
    base_operand, exponent_operand = inputs
    if not is_constant(exponent_operand):
        return None
    exponent = _natural_exponent(exponent_operand)
    if exponent is None:
        return None

    if exponent == 0:
        return [Instruction(OpCode.BH_IDENTITY, (out, Constant(1, out.dtype)), tag=tag)]
    if exponent == 1:
        if is_view(base_operand) and base_operand.same_view(out):
            return []
        return [Instruction(OpCode.BH_IDENTITY, (out, base_operand), tag=tag)]

    # A constant base is pure scalar arithmetic: fold it completely.
    if is_constant(base_operand):
        folded = base_operand.value ** exponent
        return [Instruction(OpCode.BH_IDENTITY, (out, Constant(folded)), tag=tag)]

    chain = chain_for(exponent, strategy)

    aliases_input = is_view(base_operand) and out.overlaps(base_operand)
    if aliases_input and not _is_power_of_two(exponent):
        # After the first write to the result view the original x is gone;
        # only pure-doubling chains never re-read x, so anything else is
        # unsafe without a copy.  Keep the BH_POWER.
        return None

    if chain.fits_two_registers():
        return _emit_two_register_chain(chain, out, base_operand, tag)
    if not allow_temporaries:
        return None
    return _emit_chain_with_temporaries(chain, out, base_operand, tag)


def _emit_two_register_chain(
    chain: AdditionChain, out: View, origin, tag: str
) -> List[Instruction]:
    """Emit a chain that only ever reads the origin tensor and the result tensor."""
    result: List[Instruction] = []
    for position, (i, j) in enumerate(chain.steps):
        left = origin if i == 0 else out
        right = origin if j == 0 else out
        if position == 0:
            # The first step must read the origin only (the result tensor is
            # still uninitialised).
            left, right = origin, origin
        result.append(Instruction(OpCode.BH_MULTIPLY, (out, left, right), tag=tag))
    return result


def _emit_chain_with_temporaries(
    chain: AdditionChain, out: View, origin, tag: str
) -> List[Instruction]:
    """Emit an arbitrary addition chain, allocating temporaries as needed.

    This relaxes the paper's two-register constraint (it is the "optimal
    chain" extension): intermediate chain values that are re-read later get
    their own scratch base arrays, which are freed at the end.
    """
    # view_of[k] is the view holding chain value with index k.
    view_of = {0: origin}
    temporaries: List[BaseArray] = []
    instructions: List[Instruction] = []
    last_index = len(chain.values) - 1
    for position, (i, j) in enumerate(chain.steps):
        value_index = position + 1
        if value_index == last_index:
            target = out
        else:
            scratch = BaseArray(out.nelem, out.dtype)
            temporaries.append(scratch)
            target = View.full(scratch, out.shape)
        instructions.append(
            Instruction(OpCode.BH_MULTIPLY, (target, view_of[i], view_of[j]), tag=tag)
        )
        view_of[value_index] = target
    for scratch in temporaries:
        instructions.append(Instruction(OpCode.BH_FREE, (View.full(scratch),), tag=tag))
    return instructions


class PowerExpansionPass(Pass):
    """Rewrite ``BH_POWER`` byte-codes into multiplication chains."""

    name = "power_expansion"

    def __init__(
        self,
        strategy: str = "power_of_two",
        limit: int = EXPANSION_LIMIT,
        allow_temporaries: bool = False,
        cost_model=None,
    ) -> None:
        """
        Parameters
        ----------
        strategy:
            Addition-chain strategy: ``"naive"`` (Listing 4),
            ``"power_of_two"`` (Listing 5, the default — it is what the
            paper describes Bohrium doing), ``"binary"`` or ``"optimal"``.
        limit:
            Largest exponent to expand (default :data:`EXPANSION_LIMIT`).
        allow_temporaries:
            Permit chains that need scratch tensors (only relevant for the
            ``"optimal"`` strategy).
        cost_model:
            Optional :class:`repro.core.cost.CostModel`; when given, a power
            is only expanded if the model prices the expansion cheaper than
            the original ``BH_POWER``.
        """
        self.strategy = strategy
        self.limit = limit
        self.allow_temporaries = allow_temporaries
        self.cost_model = cost_model

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        result: List[Instruction] = []
        for instruction in program:
            replacement = self._try_expand(instruction)
            if replacement is None:
                result.append(instruction)
                continue
            stats.rewrites_applied += 1
            exponent = instruction.constants[0].value if instruction.constants else "?"
            stats.note(
                f"expanded BH_POWER^{exponent} into {len(replacement)} byte-codes "
                f"({self.strategy} chain)"
            )
            result.extend(replacement)
        return self._finish(Program(result), stats)

    def _try_expand(self, instruction: Instruction) -> Optional[List[Instruction]]:
        if instruction.opcode is not OpCode.BH_POWER:
            return None
        inputs = instruction.inputs
        if len(inputs) != 2 or not is_constant(inputs[1]):
            return None
        exponent = _natural_exponent(inputs[1])
        if exponent is None or exponent > self.limit:
            return None
        replacement = expand_power(
            instruction, strategy=self.strategy, allow_temporaries=self.allow_temporaries
        )
        if replacement is None:
            return None
        if self.cost_model is not None:
            before = self.cost_model.instruction_cost(instruction)
            after = sum(self.cost_model.instruction_cost(instr) for instr in replacement)
            if after >= before:
                return None
        return replacement
