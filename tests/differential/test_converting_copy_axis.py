"""A converting ``BH_IDENTITY`` computes — no pass may read through it.

ROADMAP's open wrong answer: forward copy propagation compared shapes and
not dtypes, so ``i32 = identity(f64); sum(i32)`` summed the untruncated
floats under ``optimize=True`` on every backend.  Every executing tier,
optimizer on and off, must answer what the unoptimized interpreter
answers, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.dtypes import bool_, float32, float64, int32, int64
from repro.bytecode.opcodes import OpCode
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override
from tests.tiers import on_tier

#: Every tier that executes for real (``parallel4``: see ``tests/tiers.py``).
EXECUTING_BACKENDS = ("interpreter", "parallel", "parallel4", "native", "dist")
LENGTH = 1000
SEED = 42


def _program(origin_dtype, converted_dtype, reduce_it):
    """``origin = f(random); converted = identity(origin); out = g(converted)``.

    ``g`` is a sum where sums are exact in any order (integers, 0.0 / 1.0),
    else an element-wise scaling, so tiled tiers stay bitwise comparable.
    """
    builder = ProgramBuilder()
    draw = builder.new_vector(LENGTH, float64, name="draw")
    origin = builder.new_vector(LENGTH, origin_dtype, name="origin")
    converted = builder.new_vector(LENGTH, converted_dtype, name="converted")
    builder.random(draw, SEED)
    if origin_dtype is bool_:
        builder.emit_binary(OpCode.BH_GREATER, origin, draw, 0.5)
    elif origin_dtype is int64:
        scaled = builder.new_vector(LENGTH, float64, name="scaled")
        builder.multiply(scaled, draw, 3e10)  # past 2**31: the int32 copy wraps
        builder.identity(origin, scaled)
        builder.free(scaled)
    else:
        builder.multiply(origin, draw, 2e6)
    builder.identity(converted, origin)
    if reduce_it:
        out = builder.new_vector(1, int64 if converted_dtype is int32 else float64, name="out")
        builder.add_reduce(out, converted)
    else:
        out = builder.new_vector(LENGTH, float64, name="out")
        builder.multiply(out, converted, 3.0)
    for view in (draw, origin, converted):
        builder.free(view)
    builder.sync(out)
    return builder.build(), out


CONVERSIONS = {
    "float64_to_int32_sum": (float64, int32, True),  # the reported program
    "int64_to_int32_sum": (int64, int32, True),
    "float64_to_float32_scaled": (float64, float32, False),
    "bool_to_float64_sum": (bool_, float64, True),
}


def _run(program, out, tier, optimize):
    with on_tier(tier) as backend:
        return ExecutionEngine(backend=backend, optimize=optimize).execute(program).value(out)


def test_the_reported_program_sums_the_truncated_values():
    program, out = _program(*CONVERSIONS["float64_to_int32_sum"])
    oracle = _run(program, out, "interpreter", optimize=False)
    builder = ProgramBuilder()
    draw = builder.new_vector(LENGTH, float64)
    builder.random(draw, SEED)
    builder.sync(draw)
    floats = _run(builder.build(), draw, "interpreter", optimize=False) * 2e6
    # The truncation is observable: the sum of the floats is another number.
    assert int(oracle[0]) == int(floats.astype(np.int32).sum(dtype=np.int64))
    assert int(oracle[0]) != int(floats.sum())
    optimized = _run(program, out, "interpreter", optimize=True)
    assert optimized.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
@pytest.mark.parametrize("name", sorted(CONVERSIONS))
def test_no_tier_reads_through_a_converting_identity(name, backend, optimize):
    program, out = _program(*CONVERSIONS[name])
    oracle = _run(program, out, "interpreter", optimize=False)
    # Tiles of 64 shard the 1000 elements on the tiled tiers.
    with config_override(parallel_tile_elements=64, parallel_serial_threshold=4):
        actual = _run(program, out, backend, optimize)
    assert actual.dtype == oracle.dtype
    assert actual.tobytes() == oracle.tobytes(), (actual, oracle)


#: PR 21's class on the map-reduce axis: the converting copy is the last
#: member of the kernel and the reduction that closes it reads the
#: *converted* values — ``(stored dtype, converted dtype)``.
CONVERTING_PRODUCERS = {
    "float64_to_int32": (float64, int32),
    "int64_to_int32": (int64, int32),
    "bool_to_float64": (bool_, float64),
    "float64_to_float32": (float64, float32),
    "int32_to_bool": (int32, bool_),
}


@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
@pytest.mark.parametrize("reduction", ("add", "multiply", "maximum", "minimum"))
@pytest.mark.parametrize("name", sorted(CONVERTING_PRODUCERS))
def test_a_reduction_closing_the_kernel_reads_the_converted_values(
    name, reduction, backend, map_reduce_program
):
    """Every reduction, every tier: bitwise the tail-free schedule of the
    same tier; the oracle's bits where the arithmetic is exact."""
    stored, converted = CONVERTING_PRODUCERS[name]
    program, out = map_reduce_program(stored, reduction, (LENGTH,), convert=converted)
    oracle = _run(program, out, "interpreter", optimize=False)
    values = {}
    for scheduler in ("dag", "consecutive"):
        with config_override(
            parallel_tile_elements=64, parallel_serial_threshold=4, fusion_scheduler=scheduler
        ), on_tier(backend) as tier:
            engine = ExecutionEngine(backend=tier, optimize=True)
            values[scheduler] = engine.execute(program).value(out)
            if scheduler == "dag":
                assert engine.last_plan.fusion_schedule.reduction_tails == 1
    assert values["dag"].dtype == oracle.dtype
    assert values["dag"].tobytes() == values["consecutive"].tobytes()
    if converted is float32:  # the one inexact fold here: float32 rounding per element
        np.testing.assert_allclose(values["dag"], oracle, rtol=LENGTH * 6e-8)
    else:  # integers, bools, and the floats 0.0 / 1.0
        assert values["dag"].tobytes() == oracle.tobytes(), (values["dag"], oracle)
