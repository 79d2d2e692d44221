"""The reference backend: a straightforward NumPy interpreter.

Each byte-code is executed in program order as one NumPy operation over its
operand views — i.e. one full traversal of the data per byte-code, which is
exactly the cost structure the paper's transformations reduce (fewer
byte-codes over the same views means fewer traversals).

It is also where the one op-code NumPy has no loop for is defined:
``BH_ERF`` is :func:`_erf` — the host libm's ``erf``, in double — for this
backend, for the kernel templates of every tiled tier and for the dist
workers; the native tier emits the same call into its loop nests.
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
from repro.runtime.backend import Backend, fresh_memory
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.memory import MemoryManager
from repro.utils.config import Config
from repro.utils.errors import ExecutionError


def erf_helper(config: Config):
    """``(vector erf, None)``, or ``(None, why BH_ERF runs the math.erf loop)``,
    for a ``BH_ERF`` launched under ``config``.

    The vector erf is ``repro_vec_erf`` of the kernel runtime artifact
    (:func:`repro.codegen.cache.resolve_runtime`) in ``config``'s artifact
    directory: resolved once per process and directory, served from disk
    without a compiler run, never a compile in anybody's counters.  Whoever
    records the launch notes the reason on the flush's statistics.  Callers
    look it up on this module, so tests can patch it and exercise the
    fallback on a host that has a compiler.  Imported here: only an erf
    launch needs the artifact cache.
    """
    from repro.codegen.cache import resolve_runtime, runtime_failure

    where = (config.codegen_cache_dir, config.codegen_disk_cache_enabled)
    runtime = resolve_runtime(*where)[0]
    if runtime is None:
        return None, f"erf: no compiled helper ({runtime_failure(*where)})"
    return runtime.vec_erf, None


#: The no-artifact path: the same function (CPython's ``math.erf`` is the
#: libm's), one Python call per element.  ``otypes`` keeps zero-size
#: operands working.
_erf_fallback = np.vectorize(math.erf, otypes=[np.float64])


def _erf(values, out: np.ndarray, helper=None) -> None:
    """``out[...] = erf(values)`` — what ``BH_ERF`` means on every tier.

    The operand converts to double, the host libm's ``erf`` runs on it, and
    the result is stored with the interpreter's ``casting="unsafe"`` cast,
    for every operand dtype.  ``helper`` is the vector erf of
    :func:`erf_helper`; without one the ``math.erf`` loop runs.
    Contiguous float64 source and destination of one shape are computed in
    place; anything else (other dtypes, strided or broadcast operands) goes
    through one contiguous double copy.
    """
    if helper is None:
        np.copyto(out, _erf_fallback(values), casting="unsafe")
        return
    if (
        values.dtype == out.dtype == np.float64
        and values.shape == out.shape
        and values.flags.c_contiguous
        and out.flags.c_contiguous
        # The same elements or disjoint ones: a shifted window would read
        # what the loop has already overwritten.
        and (values.ctypes.data == out.ctypes.data or not np.may_share_memory(values, out))
    ):
        helper(out.size, values.ctypes.data, out.ctypes.data)
        return
    lane = np.array(values, dtype=np.float64, order="C")
    helper(lane.size, lane.ctypes.data, lane.ctypes.data)
    np.copyto(out, lane, casting="unsafe")


class NumPyInterpreter(Backend):
    """Executes one byte-code at a time on NumPy storage."""

    name = "interpreter"

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        return self._run(program, memory, self.flush_config())

    def execute_plan(
        self, plan, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Bind the plan's memory directives and run under ``plan.config``."""
        from repro.runtime.memplan import bind_memory_plan

        memory = memory if memory is not None else fresh_memory(plan.config)
        bind_memory_plan(plan, program, memory)
        return self._run(program, memory, plan.config)

    def _run(
        self, program: Program, memory: Optional[MemoryManager], config: Config
    ) -> ExecutionResult:
        memory = memory if memory is not None else fresh_memory(config)
        stats = ExecutionStats(backend_name=self.name)
        start = time.perf_counter()
        for instruction in program:
            self._execute_instruction(instruction, memory, stats, config)
        stats.wall_time_seconds = time.perf_counter() - start
        return ExecutionResult(memory=memory, stats=stats)

    # ------------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------------ #

    def _execute_instruction(
        self,
        instruction: Instruction,
        memory: MemoryManager,
        stats: ExecutionStats,
        config: Config,
    ) -> None:
        """Execute one top-level byte-code under ``config``; a fused one is
        a single launch."""
        if instruction.is_system():
            stats.record_instruction(instruction.opcode)
            self._execute_system(instruction, memory)
            return
        fused = instruction if instruction.is_fused() else None
        payload = (instruction.kernel or ()) if fused else (instruction,)
        stats.record_launch(payload, fused)
        erf = None
        if any(inner.opcode is OpCode.BH_ERF for inner in payload):
            erf, reason = erf_helper(config)
            stats.note_fallback(reason)
        for inner in payload:
            try:
                self._dispatch(inner, memory, erf)
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

    def _dispatch(self, instruction: Instruction, memory: MemoryManager, erf=None) -> None:
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
            self._elementwise(opcode, info.numpy_name, inputs, out, erf)
            return

        if info.reduction:
            self._reduction(instruction, memory, out)
            return

        if opcode is OpCode.BH_RANGE:
            np.copyto(out, np.arange(out_view.nelem, dtype=out.dtype).reshape(out_view.shape))
            return

        if opcode is OpCode.BH_RANDOM:
            rng = np.random.default_rng(int(instruction.constants[0].value))
            if out.dtype == np.float64 and out.flags.c_contiguous and out.size:
                # The generator's native form: the same stream, drawn
                # straight into the destination instead of a temporary.
                rng.random(out=out)
            else:
                np.copyto(out, rng.random(out_view.shape), casting="unsafe")
            return

        if info.extension:
            self._extension(instruction, memory, out)
            return

        raise ExecutionError(f"op-code {opcode.value} is not implemented by the interpreter")

    def _elementwise(self, opcode: OpCode, numpy_name, inputs, out, erf=None) -> None:
        if opcode is OpCode.BH_ERF:  # the one op-code NumPy has no ufunc for
            _erf(inputs[0], out, erf)
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
