"""Differential testing: the erf axis.

``BH_ERF`` is the one op-code whose meaning no NumPy loop supplies: it is
the host libm's ``erf`` in double, stored with the interpreter's unsafe
cast, on every tier — the interpreter and the kernel templates call the
kernel runtime artifact's vector ``erf`` (or ``math.erf``, the same
function, where no artifact resolves), dist workers load that artifact
from the master's cache directory, and the native tier lowers the op-code
into its compiled loop nests.  So erf-bearing programs must be **bitwise**
the unoptimized interpreter's on all five executing tiers — including the
kernels that reach ``erf`` through constants, which a C compiler folds at
compile time, correctly rounded, unless told not to (gcc: 134 of 4000
literals in [-3, 3] come out one ulp off glibc's run-time result).

The programs stay clear of ``log`` / ``exp`` (NumPy's SIMD loops are not
libm's, so those kernels leave the native tier): on ``native`` every step
must run compiled, which is what makes the axis non-vacuous — at the
parent commit it failed with ``unsupported op-code BH_ERF``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode import dtypes
from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.codegen import find_c_compiler
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import erf_helper
from repro.runtime.memory import MemoryManager
from repro.utils.config import config_override, get_config
from tests.tiers import on_tier, runs

#: Every tier that executes for real (``parallel4``: see ``tests/tiers.py``).
EXECUTING_BACKENDS = ("interpreter", "parallel", "parallel4", "native", "dist")

#: Force tiled, sharded and compiled paths on the small arrays used here.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

LENGTH = 96

#: Literals whose compile-time ``erf`` (gcc/MPFR, correctly rounded) is not
#: glibc's run-time ``erf``: with constant folding on, a compiled kernel
#: that sees them disagrees with every other tier in the last bit.
FOLDING_TRAPS = tuple(
    float.fromhex(text)
    for text in (
        "-0x1.2e06a5c970ffcp+0",
        "-0x1.87fea7da962f8p-1",
        "-0x1.bcdf74ab169b0p-2",
        "0x1.7b287ada2b380p-5",
    )
)

SPECIALS = (
    np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    5e-324,
    -1e-310,
    2.2250738585072014e-308,
    6.25,
    -7.5,
    30.0,
    -1e300,
)


def _operand_values(rng, count):
    values = rng.uniform(-4.0, 4.0, count)
    values[: len(SPECIALS)] = SPECIALS
    return values


def _cnd_chain(rng):
    """Black-Scholes' cumulative normal, without its log: ``(erf(x*c)+1)*0.5*y``."""
    builder = ProgramBuilder()
    x, y, t, out = (builder.new_vector(LENGTH) for _ in range(4))
    builder.multiply(t, x, 0.7071067811865476)
    builder.emit_unary(OpCode.BH_ERF, t, t)
    builder.add(t, t, 1.0)
    builder.multiply(t, t, 0.5)
    builder.multiply(out, t, y)
    builder.sync(out)
    builder.free(t)
    return builder.build(), (out,), {x: _operand_values(rng, LENGTH), y: rng.random(LENGTH)}


def _constant_operands(rng):
    """``erf(constant)``: the kernel a C compiler would fold."""
    builder = ProgramBuilder()
    y = builder.new_vector(LENGTH)
    outs = []
    for constant in FOLDING_TRAPS:
        e, out = builder.new_vector(LENGTH), builder.new_vector(LENGTH)
        builder.emit_unary(OpCode.BH_ERF, e, constant)
        builder.multiply(out, e, y)
        builder.sync(out)
        builder.free(e)
        outs.append(out)
    return builder.build(), tuple(outs), {y: rng.random(LENGTH) + 1.0}


def _constant_fed_chain(rng):
    """``erf`` of a kernel-local slot that only constants feed."""
    builder = ProgramBuilder()
    y = builder.new_vector(LENGTH)
    outs = []
    for constant in FOLDING_TRAPS:
        t, out = builder.new_vector(LENGTH), builder.new_vector(LENGTH)
        builder.identity(t, constant * 4.0)  # exact: a power of two
        builder.multiply(t, t, 0.25)
        builder.emit_unary(OpCode.BH_ERF, t, t)
        builder.add(out, t, y)
        builder.sync(out)
        builder.free(t)
        outs.append(out)
    return builder.build(), tuple(outs), {y: rng.random(LENGTH)}


def _strided_windows(rng):
    """2-D windows: an interior, every other column, and a reversed grid."""
    rows, cols = 12, 10
    source = BaseArray(rows * cols, name="grid")
    target = BaseArray(rows * cols, name="result")
    flipped = BaseArray(rows * cols, name="flipped")
    halves = BaseArray(rows * (cols // 2), name="halves")
    builder = ProgramBuilder()
    full = View.full(source, (rows, cols))
    builder.identity(View.full(target, (rows, cols)), -1.0)
    builder.emit_unary(
        OpCode.BH_ERF,
        View(target, cols + 1, (rows - 2, cols - 2), (cols, 1)),
        View(source, cols + 1, (rows - 2, cols - 2), (cols, 1)),
    )
    builder.emit_unary(
        OpCode.BH_ERF,
        View.full(halves, (rows, cols // 2)),
        View(source, 1, (rows, cols // 2), (cols, 2)),
    )
    builder.emit_unary(
        OpCode.BH_ERF,
        View.full(flipped, (rows, cols)),
        View(source, rows * cols - 1, (rows, cols), (-cols, -1)),
    )
    outs = (
        View.full(target, (rows, cols)),
        View.full(halves, (rows, cols // 2)),
        View.full(flipped, (rows, cols)),
    )
    for out in outs:
        builder.sync(out)
    return builder.build(), outs, {full: _operand_values(rng, rows * cols).reshape(rows, cols)}


def _other_dtypes(rng):
    """float32, int64 and bool operands; float32 and int64 destinations."""
    builder = ProgramBuilder()
    narrow = builder.new_vector(LENGTH, dtype=dtypes.float32)
    whole = builder.new_vector(LENGTH, dtype=dtypes.int64)
    flags = builder.new_vector(LENGTH, dtype=dtypes.bool_)
    wide = builder.new_vector(LENGTH)
    from_narrow = builder.new_vector(LENGTH, dtype=dtypes.float32)
    from_whole, from_flags = builder.new_vector(LENGTH), builder.new_vector(LENGTH)
    narrowed = builder.new_vector(LENGTH, dtype=dtypes.float32)
    counted = builder.new_vector(LENGTH, dtype=dtypes.int64)
    scaled = builder.new_vector(LENGTH)
    builder.emit_unary(OpCode.BH_ERF, from_narrow, narrow)
    builder.emit_unary(OpCode.BH_ERF, from_whole, whole)
    builder.emit_unary(OpCode.BH_ERF, from_flags, flags)
    builder.emit_unary(OpCode.BH_ERF, narrowed, wide)
    builder.emit_unary(OpCode.BH_ERF, scaled, wide)
    builder.multiply(scaled, scaled, 1000.0)
    builder.identity(counted, scaled)
    builder.free(scaled)
    outs = (from_narrow, from_whole, from_flags, narrowed, counted)
    for out in outs:
        builder.sync(out)
    with np.errstate(over="ignore"):  # -1e300 is float32's -inf
        narrow_values = _operand_values(rng, LENGTH).astype(np.float32)
    inputs = {
        narrow: narrow_values,
        whole: rng.integers(-5, 6, LENGTH),
        flags: rng.random(LENGTH) < 0.5,
        wide: rng.uniform(-4.0, 4.0, LENGTH),  # no NaN: it has no int64 value
    }
    return builder.build(), outs, inputs


PROGRAMS = {
    "cnd_chain": _cnd_chain,
    "constant_operands": _constant_operands,
    "constant_fed_chain": _constant_fed_chain,
    "strided_windows": _strided_windows,
    "other_dtypes": _other_dtypes,
}


def _toolchain_works() -> bool:
    """A compiler that builds: the kernel runtime artifact resolved.  (CI also
    runs this file under a ``REPRO_CC`` that is found and only fails: the
    bits must hold on the ``math.erf`` loop; the compiled-path asserts go.)"""
    return find_c_compiler() is not None and erf_helper(get_config())[1] is None


def _run(program, synced, inputs, tier, optimize):
    """``(values, stats)`` of each of the tier's :func:`runs` on one engine."""
    outcomes = []
    with on_tier(tier) as backend:
        engine = ExecutionEngine(backend=backend, optimize=optimize)
        for _ in range(runs(tier)):
            memory = MemoryManager()
            for view, data in inputs.items():
                memory.write_view(view, data)
            result = engine.execute(program, memory)
            outcomes.append(([result.value(view) for view in synced], result.stats))
    return outcomes


def _assert_same_bits(actual, expected, context):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, context
    assert actual.tobytes() == expected.tobytes(), (
        f"{context}: results differ bitwise\nexpected={expected!r}\nactual={actual!r}"
    )


@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_erf_programs_are_bitwise_the_oracle_s(name, backend, tmp_path):
    program, synced, inputs = PROGRAMS[name](np.random.default_rng(0xE2F))
    ((oracle, _),) = _run(program, synced, inputs, "interpreter", optimize=False)
    compiles = _toolchain_works()
    with config_override(
        **TINY_TILES, dist_num_workers=2, codegen_cache_dir=str(tmp_path / "codegen")
    ):
        for optimize in (False, True):
            outcomes = _run(program, synced, inputs, backend, optimize)
            for run, (values, stats) in enumerate(outcomes, 1):
                for index, (actual, expected) in enumerate(zip(values, oracle)):
                    _assert_same_bits(
                        actual,
                        expected,
                        f"{name} on {backend} (optimize={optimize}) run {run}, output {index}",
                    )
                if compiles:
                    assert not any(
                        reason.startswith("erf:") for reason in stats.native_fallback_reasons
                    ), stats.native_fallback_reasons
            if backend == "native" and compiles:
                # Non-vacuous: erf ran inside compiled loop nests (on the
                # second run: the first may run a form's template).
                assert stats.native_fallbacks == 0, stats.native_fallback_reasons
                assert stats.native_kernel_launches > 0
            if backend == "dist":
                assert stats.dist_shard_launches > 0


def test_the_special_values_are_in_the_operands():
    """NaN, the infinities, both zeros, subnormals and |x| > 6 went through."""
    program, synced, inputs = _cnd_chain(np.random.default_rng(0xE2F))
    (x, operand), (y, weights) = inputs.items()
    (((prices,), _),) = _run(program, synced, inputs, "interpreter", optimize=False)
    assert np.isnan(prices[0]) and not np.isnan(prices[1:]).any()
    assert prices[1] == weights[1] and prices[2] == 0.0  # erf(+inf) = 1, erf(-inf) = -1
    assert (np.abs(operand[8:11]) > 6).all()
