"""The byte-code op-code set and its static metadata.

Op-codes follow Bohrium's ``BH_*`` naming.  Each op-code carries metadata
(:class:`OpCodeInfo`) that the validator, the interpreter, the cost model
and — most importantly — the transformation passes consult:

* ``num_inputs`` / ``has_output`` — operand arity.
* ``elementwise`` — the instruction maps each output element from the
  corresponding input elements; element-wise instructions are what the
  fusion pass may contract into a single kernel.
* ``commutative`` / ``associative`` — the algebraic properties that justify
  the constant-merge rewrite (Listing 2 -> Listing 3 in the paper).
* ``reduction`` — folds one axis of the input.
* ``system`` — runtime directives (``BH_SYNC``, ``BH_FREE``, ``BH_NONE``)
  that move no data.
* ``extension`` — compound operations registered as extension methods in
  Bohrium (``BH_MATMUL``, ``BH_MATRIX_INVERSE``, ...); these are the
  op-codes the context-aware linear-solve rewrite (Equation 2) targets.
* ``data_operands`` — which constant operands are *data*: read only when
  the byte-code executes, never by a pass, planner or lowering, so a plan
  takes them as arguments instead of carrying them in its identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class OpCode(enum.Enum):
    """Enumeration of every byte-code op-code understood by the runtime."""

    # Data movement / initialisation
    BH_IDENTITY = "BH_IDENTITY"

    # Element-wise arithmetic
    BH_ADD = "BH_ADD"
    BH_SUBTRACT = "BH_SUBTRACT"
    BH_MULTIPLY = "BH_MULTIPLY"
    BH_DIVIDE = "BH_DIVIDE"
    BH_POWER = "BH_POWER"
    BH_MOD = "BH_MOD"
    BH_NEGATIVE = "BH_NEGATIVE"
    BH_ABSOLUTE = "BH_ABSOLUTE"
    BH_RECIPROCAL = "BH_RECIPROCAL"

    # Element-wise transcendental
    BH_SQRT = "BH_SQRT"
    BH_EXP = "BH_EXP"
    BH_LOG = "BH_LOG"
    BH_SIN = "BH_SIN"
    BH_COS = "BH_COS"
    BH_TAN = "BH_TAN"
    BH_ARCSIN = "BH_ARCSIN"
    BH_ARCCOS = "BH_ARCCOS"
    BH_ARCTAN = "BH_ARCTAN"
    BH_ERF = "BH_ERF"

    # Element-wise extrema / comparison / logical
    BH_MAXIMUM = "BH_MAXIMUM"
    BH_MINIMUM = "BH_MINIMUM"
    BH_GREATER = "BH_GREATER"
    BH_GREATER_EQUAL = "BH_GREATER_EQUAL"
    BH_LESS = "BH_LESS"
    BH_LESS_EQUAL = "BH_LESS_EQUAL"
    BH_EQUAL = "BH_EQUAL"
    BH_NOT_EQUAL = "BH_NOT_EQUAL"
    BH_LOGICAL_AND = "BH_LOGICAL_AND"
    BH_LOGICAL_OR = "BH_LOGICAL_OR"
    BH_LOGICAL_NOT = "BH_LOGICAL_NOT"

    # Reductions (input view, axis constant)
    BH_ADD_REDUCE = "BH_ADD_REDUCE"
    BH_MULTIPLY_REDUCE = "BH_MULTIPLY_REDUCE"
    BH_MAXIMUM_REDUCE = "BH_MAXIMUM_REDUCE"
    BH_MINIMUM_REDUCE = "BH_MINIMUM_REDUCE"

    # Generators
    BH_RANGE = "BH_RANGE"
    BH_RANDOM = "BH_RANDOM"

    # Extension methods (compound linear-algebra operations)
    BH_MATMUL = "BH_MATMUL"
    BH_MATRIX_INVERSE = "BH_MATRIX_INVERSE"
    BH_LU = "BH_LU"
    BH_LU_SOLVE = "BH_LU_SOLVE"
    BH_TRANSPOSE = "BH_TRANSPOSE"

    # Fused kernel produced by the fusion pass (carries a sub-program)
    BH_FUSED = "BH_FUSED"

    # System op-codes
    BH_SYNC = "BH_SYNC"
    BH_FREE = "BH_FREE"
    BH_NONE = "BH_NONE"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class OpCodeInfo:
    """Static metadata describing one op-code.

    Attributes
    ----------
    opcode:
        The op-code this record describes.
    num_inputs:
        Number of input operands (views or constants) the instruction takes.
    has_output:
        Whether the first operand is a result view.
    elementwise:
        True for map-style operations (one output element per input element).
    commutative / associative:
        Algebraic properties of the binary operation, used by the
        constant-merge and reassociation rewrites.
    reduction:
        True for axis reductions.
    system:
        True for runtime directives that move no data.
    extension:
        True for compound extension methods (dense linear algebra).
    numpy_name:
        Name of the NumPy callable implementing the op, if any.  Used by the
        reference interpreter.
    identity_value:
        The algebraic identity element for binary ops (0 for add, 1 for
        multiply); ``None`` when not applicable.  Used by the
        identity-simplification pass.
    data_operands:
        Positions (in ``Instruction.operands``) of the constant operands
        that are pure data — the ``BH_RANDOM`` seed.  Nothing but the code
        that executes the byte-code reads their value, so the plan
        fingerprint encodes them by dtype only and
        :meth:`~repro.runtime.plan.ExecutionPlan.bind` fills them in per
        flush.  A constant a rewrite decides on (an arithmetic constant, a
        reduction axis, an exponent) is structure and is not listed.
    """

    opcode: OpCode
    num_inputs: int
    has_output: bool = True
    elementwise: bool = False
    commutative: bool = False
    associative: bool = False
    reduction: bool = False
    system: bool = False
    extension: bool = False
    numpy_name: Optional[str] = None
    identity_value: Optional[float] = None
    data_operands: Tuple[int, ...] = ()

    @property
    def num_operands(self) -> int:
        """Total operand count (output slot plus inputs)."""
        return self.num_inputs + (1 if self.has_output else 0)


def _info(**kwargs) -> OpCodeInfo:
    return OpCodeInfo(**kwargs)


OPCODE_INFO: Dict[OpCode, OpCodeInfo] = {
    OpCode.BH_IDENTITY: _info(
        opcode=OpCode.BH_IDENTITY, num_inputs=1, elementwise=True, numpy_name="copyto"
    ),
    # Binary arithmetic
    OpCode.BH_ADD: _info(
        opcode=OpCode.BH_ADD,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="add",
        identity_value=0,
    ),
    OpCode.BH_SUBTRACT: _info(
        opcode=OpCode.BH_SUBTRACT,
        num_inputs=2,
        elementwise=True,
        numpy_name="subtract",
        identity_value=0,
    ),
    OpCode.BH_MULTIPLY: _info(
        opcode=OpCode.BH_MULTIPLY,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="multiply",
        identity_value=1,
    ),
    OpCode.BH_DIVIDE: _info(
        opcode=OpCode.BH_DIVIDE,
        num_inputs=2,
        elementwise=True,
        numpy_name="divide",
        identity_value=1,
    ),
    OpCode.BH_POWER: _info(
        opcode=OpCode.BH_POWER, num_inputs=2, elementwise=True, numpy_name="power"
    ),
    OpCode.BH_MOD: _info(opcode=OpCode.BH_MOD, num_inputs=2, elementwise=True, numpy_name="mod"),
    OpCode.BH_NEGATIVE: _info(
        opcode=OpCode.BH_NEGATIVE, num_inputs=1, elementwise=True, numpy_name="negative"
    ),
    OpCode.BH_ABSOLUTE: _info(
        opcode=OpCode.BH_ABSOLUTE, num_inputs=1, elementwise=True, numpy_name="absolute"
    ),
    OpCode.BH_RECIPROCAL: _info(
        opcode=OpCode.BH_RECIPROCAL, num_inputs=1, elementwise=True, numpy_name="reciprocal"
    ),
    # Transcendental
    OpCode.BH_SQRT: _info(
        opcode=OpCode.BH_SQRT, num_inputs=1, elementwise=True, numpy_name="sqrt"
    ),
    OpCode.BH_EXP: _info(opcode=OpCode.BH_EXP, num_inputs=1, elementwise=True, numpy_name="exp"),
    OpCode.BH_LOG: _info(opcode=OpCode.BH_LOG, num_inputs=1, elementwise=True, numpy_name="log"),
    OpCode.BH_SIN: _info(opcode=OpCode.BH_SIN, num_inputs=1, elementwise=True, numpy_name="sin"),
    OpCode.BH_COS: _info(opcode=OpCode.BH_COS, num_inputs=1, elementwise=True, numpy_name="cos"),
    OpCode.BH_TAN: _info(opcode=OpCode.BH_TAN, num_inputs=1, elementwise=True, numpy_name="tan"),
    OpCode.BH_ARCSIN: _info(
        opcode=OpCode.BH_ARCSIN, num_inputs=1, elementwise=True, numpy_name="arcsin"
    ),
    OpCode.BH_ARCCOS: _info(
        opcode=OpCode.BH_ARCCOS, num_inputs=1, elementwise=True, numpy_name="arccos"
    ),
    OpCode.BH_ARCTAN: _info(
        opcode=OpCode.BH_ARCTAN, num_inputs=1, elementwise=True, numpy_name="arctan"
    ),
    OpCode.BH_ERF: _info(opcode=OpCode.BH_ERF, num_inputs=1, elementwise=True, numpy_name=None),
    # Extrema / comparison / logical
    OpCode.BH_MAXIMUM: _info(
        opcode=OpCode.BH_MAXIMUM,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="maximum",
    ),
    OpCode.BH_MINIMUM: _info(
        opcode=OpCode.BH_MINIMUM,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="minimum",
    ),
    OpCode.BH_GREATER: _info(
        opcode=OpCode.BH_GREATER, num_inputs=2, elementwise=True, numpy_name="greater"
    ),
    OpCode.BH_GREATER_EQUAL: _info(
        opcode=OpCode.BH_GREATER_EQUAL,
        num_inputs=2,
        elementwise=True,
        numpy_name="greater_equal",
    ),
    OpCode.BH_LESS: _info(
        opcode=OpCode.BH_LESS, num_inputs=2, elementwise=True, numpy_name="less"
    ),
    OpCode.BH_LESS_EQUAL: _info(
        opcode=OpCode.BH_LESS_EQUAL, num_inputs=2, elementwise=True, numpy_name="less_equal"
    ),
    OpCode.BH_EQUAL: _info(
        opcode=OpCode.BH_EQUAL, num_inputs=2, elementwise=True, commutative=True, numpy_name="equal"
    ),
    OpCode.BH_NOT_EQUAL: _info(
        opcode=OpCode.BH_NOT_EQUAL,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        numpy_name="not_equal",
    ),
    OpCode.BH_LOGICAL_AND: _info(
        opcode=OpCode.BH_LOGICAL_AND,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="logical_and",
    ),
    OpCode.BH_LOGICAL_OR: _info(
        opcode=OpCode.BH_LOGICAL_OR,
        num_inputs=2,
        elementwise=True,
        commutative=True,
        associative=True,
        numpy_name="logical_or",
    ),
    OpCode.BH_LOGICAL_NOT: _info(
        opcode=OpCode.BH_LOGICAL_NOT, num_inputs=1, elementwise=True, numpy_name="logical_not"
    ),
    # Reductions
    OpCode.BH_ADD_REDUCE: _info(
        opcode=OpCode.BH_ADD_REDUCE, num_inputs=2, reduction=True, numpy_name="add"
    ),
    OpCode.BH_MULTIPLY_REDUCE: _info(
        opcode=OpCode.BH_MULTIPLY_REDUCE, num_inputs=2, reduction=True, numpy_name="multiply"
    ),
    OpCode.BH_MAXIMUM_REDUCE: _info(
        opcode=OpCode.BH_MAXIMUM_REDUCE, num_inputs=2, reduction=True, numpy_name="maximum"
    ),
    OpCode.BH_MINIMUM_REDUCE: _info(
        opcode=OpCode.BH_MINIMUM_REDUCE, num_inputs=2, reduction=True, numpy_name="minimum"
    ),
    # Generators
    OpCode.BH_RANGE: _info(opcode=OpCode.BH_RANGE, num_inputs=0, elementwise=False),
    OpCode.BH_RANDOM: _info(
        opcode=OpCode.BH_RANDOM, num_inputs=1, elementwise=False, data_operands=(1,)
    ),
    # Extension methods
    OpCode.BH_MATMUL: _info(opcode=OpCode.BH_MATMUL, num_inputs=2, extension=True),
    OpCode.BH_MATRIX_INVERSE: _info(
        opcode=OpCode.BH_MATRIX_INVERSE, num_inputs=1, extension=True
    ),
    OpCode.BH_LU: _info(opcode=OpCode.BH_LU, num_inputs=1, extension=True),
    OpCode.BH_LU_SOLVE: _info(opcode=OpCode.BH_LU_SOLVE, num_inputs=2, extension=True),
    OpCode.BH_TRANSPOSE: _info(opcode=OpCode.BH_TRANSPOSE, num_inputs=1, extension=True),
    # Fused kernel
    OpCode.BH_FUSED: _info(opcode=OpCode.BH_FUSED, num_inputs=0, has_output=False),
    # System
    OpCode.BH_SYNC: _info(
        opcode=OpCode.BH_SYNC, num_inputs=0, has_output=True, system=True
    ),
    OpCode.BH_FREE: _info(
        opcode=OpCode.BH_FREE, num_inputs=0, has_output=True, system=True
    ),
    OpCode.BH_NONE: _info(
        opcode=OpCode.BH_NONE, num_inputs=0, has_output=False, system=True
    ),
}


def opcode_info(opcode: OpCode) -> OpCodeInfo:
    """Return the :class:`OpCodeInfo` metadata record for ``opcode``."""
    return OPCODE_INFO[opcode]


def opcode_from_name(name: str) -> OpCode:
    """Look up an op-code from its ``BH_*`` string name."""
    try:
        return OpCode(name)
    except ValueError:
        raise KeyError(f"unknown op-code name: {name!r}") from None


# Binary element-wise op-codes with an algebraic identity; these are the
# candidates for constant merging and identity simplification.
MERGEABLE_OPCODES = (
    OpCode.BH_ADD,
    OpCode.BH_SUBTRACT,
    OpCode.BH_MULTIPLY,
    OpCode.BH_DIVIDE,
)

# Reduction op-code -> the element-wise op-code it folds with.
REDUCE_TO_ELEMENTWISE = {
    OpCode.BH_ADD_REDUCE: OpCode.BH_ADD,
    OpCode.BH_MULTIPLY_REDUCE: OpCode.BH_MULTIPLY,
    OpCode.BH_MAXIMUM_REDUCE: OpCode.BH_MAXIMUM,
    OpCode.BH_MINIMUM_REDUCE: OpCode.BH_MINIMUM,
}
