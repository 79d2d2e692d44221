"""The reference backend: a straightforward NumPy interpreter.

Each byte-code is executed in program order as one NumPy operation over its
operand views — i.e. one full traversal of the data per byte-code, which is
exactly the cost structure the paper's transformations reduce (fewer
byte-codes over the same views means fewer traversals).
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode, REDUCE_TO_ELEMENTWISE
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.runtime.backend import Backend
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.memory import MemoryManager
from repro.utils.errors import ExecutionError


def _scipy_erf():
    """Resolve scipy's vectorised erf, or ``None`` when scipy is absent.

    Kept as a separate seam so tests can monkeypatch it (returning
    ``None``) and exercise the pure-``math.erf`` fallback without having to
    uninstall scipy.
    """
    try:
        from scipy.special import erf as scipy_erf
    except ImportError:
        return None
    return scipy_erf


def _erf_fallback(values: np.ndarray) -> np.ndarray:
    """Element-by-element ``math.erf`` for hosts without scipy."""
    vectorised = np.vectorize(math.erf)
    return vectorised(values)


def _erf(values: np.ndarray) -> np.ndarray:
    """Vectorised error function (scipy when available, math.erf otherwise)."""
    implementation = _scipy_erf()
    if implementation is None:
        return _erf_fallback(values)
    return implementation(values)


class NumPyInterpreter(Backend):
    """Executes one byte-code at a time on NumPy storage."""

    name = "interpreter"

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        memory = memory if memory is not None else MemoryManager()
        stats = ExecutionStats(backend_name=self.name)
        start = time.perf_counter()
        for instruction in program:
            self._execute_instruction(instruction, memory, stats)
        stats.wall_time_seconds = time.perf_counter() - start
        return ExecutionResult(memory=memory, stats=stats)

    # ------------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------------ #

    def _execute_instruction(
        self, instruction: Instruction, memory: MemoryManager, stats: ExecutionStats
    ) -> None:
        """Execute one top-level byte-code; a fused one is a single launch."""
        if instruction.is_system():
            stats.record_instruction(instruction.opcode)
            self._execute_system(instruction, memory)
            return
        fused = instruction if instruction.is_fused() else None
        payload = (instruction.kernel or ()) if fused else (instruction,)
        stats.record_launch(payload, fused)
        for inner in payload:
            try:
                self._dispatch(inner, memory)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"failed executing {inner.opcode.value}: {exc}"
                ) from exc

    def _execute_system(self, instruction: Instruction, memory: MemoryManager) -> None:
        if instruction.opcode is OpCode.BH_FREE:
            for operand in instruction.operands:
                if is_view(operand):
                    memory.free(operand.base)
        elif instruction.opcode is OpCode.BH_SYNC:
            # SYNC forces materialization; in this eager interpreter the data
            # is already materialized, so just touch the allocation.
            for operand in instruction.operands:
                if is_view(operand):
                    memory.allocate(operand.base)
        # BH_NONE: nothing to do.

    def _operand_value(self, operand, memory: MemoryManager):
        if is_view(operand):
            return memory.view_array(operand)
        if is_constant(operand):
            return operand.as_numpy()
        raise ExecutionError(f"unsupported operand {operand!r}")

    def _dispatch(self, instruction: Instruction, memory: MemoryManager) -> None:
        opcode = instruction.opcode
        info = instruction.info
        out_view = instruction.out
        out = memory.view_array(out_view) if out_view is not None else None

        if opcode is OpCode.BH_IDENTITY:
            source = self._operand_value(instruction.inputs[0], memory)
            np.copyto(out, source, casting="unsafe")
            return

        if info.elementwise:
            inputs = [self._operand_value(op, memory) for op in instruction.inputs]
            self._elementwise(opcode, info.numpy_name, inputs, out)
            return

        if info.reduction:
            self._reduction(instruction, memory, out)
            return

        if opcode is OpCode.BH_RANGE:
            np.copyto(out, np.arange(out_view.nelem, dtype=out.dtype).reshape(out_view.shape))
            return

        if opcode is OpCode.BH_RANDOM:
            seed = int(instruction.constants[0].value)
            rng = np.random.default_rng(seed)
            np.copyto(out, rng.random(out_view.shape), casting="unsafe")
            return

        if info.extension:
            self._extension(instruction, memory, out)
            return

        raise ExecutionError(f"op-code {opcode.value} is not implemented by the interpreter")

    def _elementwise(self, opcode: OpCode, numpy_name, inputs, out) -> None:
        if opcode is OpCode.BH_ERF:
            np.copyto(out, _erf(inputs[0]), casting="unsafe")
            return
        if numpy_name is None:
            raise ExecutionError(f"no NumPy implementation registered for {opcode.value}")
        func = getattr(np, numpy_name)
        # Compute into a temporary then copy: using ufunc ``out=`` directly is
        # slightly faster but fails when input and output dtypes differ (for
        # example a comparison writing into a float view).
        result = func(*inputs)
        np.copyto(out, result, casting="unsafe")

    def _reduction(self, instruction: Instruction, memory: MemoryManager, out) -> None:
        elementwise_op = REDUCE_TO_ELEMENTWISE[instruction.opcode]
        numpy_name = {
            OpCode.BH_ADD: "add",
            OpCode.BH_MULTIPLY: "multiply",
            OpCode.BH_MAXIMUM: "maximum",
            OpCode.BH_MINIMUM: "minimum",
        }[elementwise_op]
        ufunc = getattr(np, numpy_name)
        source_view, axis_constant = instruction.inputs
        source = memory.view_array(source_view)
        axis = int(axis_constant.value)
        reduced = ufunc.reduce(source, axis=axis)
        np.copyto(out, np.asarray(reduced).reshape(out.shape), casting="unsafe")

    def _extension(self, instruction: Instruction, memory: MemoryManager, out) -> None:
        # Imported lazily to keep the byte-code/runtime layers importable
        # without the linear-algebra substrate (and to avoid import cycles).
        from repro import linalg

        opcode = instruction.opcode
        views = instruction.input_views
        if opcode is OpCode.BH_MATMUL:
            left = memory.view_array(views[0])
            right = memory.view_array(views[1])
            np.copyto(out, np.matmul(left, right), casting="unsafe")
        elif opcode is OpCode.BH_MATRIX_INVERSE:
            matrix = memory.read_view(views[0])
            np.copyto(out, linalg.inverse(matrix), casting="unsafe")
        elif opcode is OpCode.BH_LU:
            matrix = memory.read_view(views[0])
            packed, _pivots = linalg.lu_factor(matrix)
            np.copyto(out, packed, casting="unsafe")
        elif opcode is OpCode.BH_LU_SOLVE:
            matrix = memory.read_view(views[0])
            rhs = memory.read_view(views[1])
            np.copyto(out, linalg.solve(matrix, rhs), casting="unsafe")
        elif opcode is OpCode.BH_TRANSPOSE:
            source = memory.read_view(views[0])
            np.copyto(out, source.T, casting="unsafe")
        else:
            raise ExecutionError(f"extension op-code {opcode.value} is not implemented")
