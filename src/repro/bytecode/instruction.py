"""Instructions: a single byte-code.

An instruction is an op-code plus its operands.  For op-codes with an output
the first operand is the result view; the remaining operands are inputs
(views or constants).  System op-codes (``BH_SYNC``, ``BH_FREE``) take a
single view which we also store in the output slot, matching Bohrium's
convention that the "result" of a sync/free is the array being synced/freed.

Fused kernels (``BH_FUSED``) additionally carry the list of element-wise
instructions they replace — the last of which may be one reduction of what
the others store — so backends can either execute them as one kernel or
fall back to interpreting the payload.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bytecode.opcodes import OpCode, OpCodeInfo, opcode_info
from repro.bytecode.operand import Constant, Operand, as_operand, is_constant, is_view
from repro.bytecode.view import View


class Instruction:
    """One byte-code: an op-code, a result operand and input operands.

    Parameters
    ----------
    opcode:
        The operation to perform.
    operands:
        Output view first (when the op-code has an output), then inputs.
        Python scalars are coerced to :class:`Constant`.
    kernel:
        For ``BH_FUSED`` only: the element-wise instructions this kernel
        fuses, in execution order, optionally closed by one reduction.
    tag:
        Optional free-form provenance string (which pass created the
        instruction); useful when inspecting optimized programs.
    """

    __slots__ = ("opcode", "operands", "kernel", "tag")

    def __init__(
        self,
        opcode: OpCode,
        operands: Sequence = (),
        kernel: Optional[Sequence["Instruction"]] = None,
        tag: Optional[str] = None,
    ) -> None:
        if not isinstance(opcode, OpCode):
            raise TypeError(f"opcode must be an OpCode, got {type(opcode)!r}")
        self.opcode = opcode
        self.operands: Tuple[Operand, ...] = tuple(as_operand(op) for op in operands)
        self.kernel: Optional[Tuple[Instruction, ...]] = (
            tuple(kernel) if kernel is not None else None
        )
        self.tag = tag
        if self.kernel is not None and opcode is not OpCode.BH_FUSED:
            raise ValueError("only BH_FUSED instructions may carry a kernel payload")

    # ------------------------------------------------------------------ #
    # Metadata accessors
    # ------------------------------------------------------------------ #

    @property
    def info(self) -> OpCodeInfo:
        """The static metadata record for this instruction's op-code."""
        return opcode_info(self.opcode)

    @property
    def out(self) -> Optional[View]:
        """The result view, or ``None`` for op-codes without an output."""
        if not self.info.has_output or not self.operands:
            return None
        result = self.operands[0]
        return result if is_view(result) else None

    @property
    def inputs(self) -> Tuple[Operand, ...]:
        """The input operands (everything after the output slot)."""
        if self.info.has_output:
            return self.operands[1:]
        return self.operands

    @property
    def input_views(self) -> Tuple[View, ...]:
        """Only the view-typed inputs."""
        return tuple(op for op in self.inputs if is_view(op))

    @property
    def constants(self) -> Tuple[Constant, ...]:
        """Only the constant-typed inputs."""
        return tuple(op for op in self.inputs if is_constant(op))

    @property
    def constant(self) -> Optional[Constant]:
        """The single constant input if there is exactly one, else ``None``."""
        consts = self.constants
        return consts[0] if len(consts) == 1 else None

    # ------------------------------------------------------------------ #
    # Classification helpers used by the passes
    # ------------------------------------------------------------------ #

    def is_elementwise(self) -> bool:
        """True for map-style instructions (fusable)."""
        return self.info.elementwise

    def is_reduction(self) -> bool:
        """True for axis reductions."""
        return self.info.reduction

    def is_system(self) -> bool:
        """True for runtime directives (SYNC/FREE/NONE)."""
        return self.info.system

    def is_extension(self) -> bool:
        """True for compound extension methods (dense linear algebra)."""
        return self.info.extension

    def is_fused(self) -> bool:
        """True for fused-kernel instructions."""
        return self.opcode is OpCode.BH_FUSED

    def views(self) -> Tuple[View, ...]:
        """Every view operand (output and inputs), in operand order."""
        own = tuple(op for op in self.operands if is_view(op))
        if self.kernel is not None:
            nested = tuple(v for instr in self.kernel for v in instr.views())
            return own + nested
        return own

    def reads(self) -> Tuple[View, ...]:
        """Views this instruction reads from."""
        if self.kernel is not None:
            return tuple(v for instr in self.kernel for v in instr.reads())
        if self.opcode is OpCode.BH_SYNC:
            # SYNC reads (forces materialization of) its operand.
            return tuple(op for op in self.operands if is_view(op))
        return self.input_views

    def writes(self) -> Tuple[View, ...]:
        """Views this instruction writes to."""
        if self.kernel is not None:
            return tuple(v for instr in self.kernel for v in instr.writes())
        if self.is_system():
            # SYNC observes and FREE releases; neither modifies element data.
            return ()
        out = self.out
        return (out,) if out is not None else ()

    def bases_written(self):
        """Base arrays written by this instruction."""
        return tuple(view.base for view in self.writes())

    # ------------------------------------------------------------------ #
    # Rewriting helpers
    # ------------------------------------------------------------------ #

    def replace(
        self,
        opcode: Optional[OpCode] = None,
        operands: Optional[Sequence] = None,
        kernel: Optional[Sequence["Instruction"]] = None,
        tag: Optional[str] = None,
    ) -> "Instruction":
        """Return a copy of this instruction with selected fields replaced."""
        return Instruction(
            opcode if opcode is not None else self.opcode,
            operands if operands is not None else self.operands,
            kernel=kernel if kernel is not None else self.kernel,
            tag=tag if tag is not None else self.tag,
        )

    def with_constant(self, value) -> "Instruction":
        """Return a copy with its (single) constant input replaced by ``value``.

        Raises ``ValueError`` when the instruction does not have exactly one
        constant input.
        """
        consts = self.constants
        if len(consts) != 1:
            raise ValueError(f"instruction has {len(consts)} constants, expected exactly 1")
        new_constant = Constant(value, consts[0].dtype)
        operands: List[Operand] = []
        replaced = False
        for op in self.operands:
            if is_constant(op) and not replaced:
                operands.append(new_constant)
                replaced = True
            else:
                operands.append(op)
        return self.replace(operands=operands)

    # ------------------------------------------------------------------ #
    # Equality and representation
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.opcode is other.opcode
            and self.operands == other.operands
            and self.kernel == other.kernel
        )

    def __hash__(self) -> int:
        return hash((self.opcode, self.operands, self.kernel))

    def __repr__(self) -> str:
        from repro.bytecode.printer import format_instruction

        return f"Instruction({format_instruction(self)!r})"
