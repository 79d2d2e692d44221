"""What a cold ``native`` flush compiles: only what it launches.

A copy (every store a same-dtype load of a slot the nest does not write)
is written by NumPy, like a fill, and a compiled step threads only when
threads are asked for (``codegen_threads``; the default is one) and each
thread gets at least one tile (``parallel_tile_elements`` elements) — by
calling its one kernel per row block, so threading compiles nothing more.
Each test runs over an empty artifact directory with a ``REPRO_CC`` that
logs its arguments and then compiles, and counts the log's lines: one per
compile.  None of these programs calls ``erf``, so none may build the
kernel runtime (the artifact that holds the vector ``erf``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bytecode import dtypes
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.view import View
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.codegen.compiler import VEC_ERF_SYMBOL
from repro.frontend import zeros
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import MemoryManager
from repro.utils.config import config_override
from repro.workloads import heat_equation

pytestmark = pytest.mark.skipif(find_c_compiler() is None, reason="no C compiler on this host")


class CompilerLog:
    """The compiler runs a logging ``REPRO_CC`` saw, and what they left."""

    def __init__(self, path, directory) -> None:
        self.path = path
        self.directory = directory

    def lines(self):
        return self.path.read_text().splitlines() if self.path.exists() else []

    def runtimes(self):
        """The kernel runtime sources in the artifact directory."""
        if not os.path.isdir(self.directory):
            return []
        return [
            name
            for name in os.listdir(self.directory)
            if name.endswith(".c")
            and VEC_ERF_SYMBOL in open(os.path.join(self.directory, name)).read()
        ]


@pytest.fixture
def cc_log(tmp_path, monkeypatch):
    """A logging ``REPRO_CC`` over an empty artifact directory, with the
    process's loaded artifacts dropped before and after."""
    log = tmp_path / "cc.log"
    shim = tmp_path / "logging-cc"
    shim.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexec {find_c_compiler()} "$@"\n')
    shim.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(shim))
    monkeypatch.delenv("REPRO_CODEGEN_THREADS", raising=False)
    clear_memory_cache()
    directory = str(tmp_path / "codegen")
    with config_override(codegen_cache_dir=directory):
        yield CompilerLog(log, directory)
    clear_memory_cache()


def _jacobi_step(work):
    """One step of the benchmark's ``flush_storm_small`` op."""
    up = work[0:-2, 1:-1]
    down = work[2:, 1:-1]
    left = work[1:-1, 0:-2]
    right = work[1:-1, 2:]
    interior = (up + down + left + right) * 0.25
    following = work.copy()
    following[1:-1, 1:-1] = interior
    return following


def _jacobi_reference(size, steps):
    grid = np.zeros((size, size))
    grid[0, :] = grid[-1, :] = 100.0
    for _ in range(steps):
        following = grid.copy()
        following[1:-1, 1:-1] = (
            grid[0:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, 0:-2] + grid[1:-1, 2:]
        ) * 0.25
        grid = following
    return grid


def test_a_small_jacobi_session_compiles_its_stencil_and_nothing_else(cc_log):
    """96x96 is 9 216 elements, under one tile: the stencil is one serial
    call, the copy a NumPy copy, and nothing else is built."""
    session = Session(backend="native")
    grid = zeros((96, 96), session=session)
    grid[0, :] = 100.0
    grid[-1, :] = 100.0
    for _ in range(8):
        grid = _jacobi_step(grid)
        session.flush()
    last = session.stats_history[-1]
    assert last.native_kernel_launches == 1 and last.native_mt_launches == 0
    assert np.array_equal(grid.to_numpy(), _jacobi_reference(96, 8))
    assert len(cc_log.lines()) == 1, cc_log.lines()
    assert cc_log.runtimes() == []


def test_a_large_stencil_is_one_serial_call_unless_threads_are_asked_for(cc_log):
    """1200x1200 is 21 tiles, but no thread count was asked for: the
    stencil is one serial call and the grid copy a NumPy copy, so the
    only compiler run is the stencil's."""
    session = Session(backend="native")
    grid = heat_equation(grid_size=1200, iterations=4, session=session).to_numpy()
    assert len(cc_log.lines()) == 1 and cc_log.runtimes() == [], cc_log.lines()
    stats = session.stats_history[-1]
    assert stats.native_compiles == 1
    assert stats.native_kernel_launches == 4 and stats.native_mt_launches == 0
    oracle = Session(backend="interpreter", optimize=False)
    assert np.array_equal(grid, heat_equation(1200, 4, session=oracle).to_numpy())


def test_a_threaded_stencil_compiles_only_its_stencil(cc_log):
    """At two threads, 1200x1200 (21 tiles) runs each stencil step as two
    calls of the one stencil kernel, one per row block, and the grid copy
    is still written by NumPy: one compiler run, as at one thread."""
    with config_override(codegen_threads=2):
        session = Session(backend="native")
        grid = heat_equation(grid_size=1200, iterations=4, session=session).to_numpy()
    assert len(cc_log.lines()) == 1 and cc_log.runtimes() == [], cc_log.lines()
    stats = session.stats_history[-1]
    assert stats.native_compiles == 1
    assert stats.native_kernel_launches == stats.native_mt_launches == 4
    oracle = Session(backend="interpreter", optimize=False)
    assert np.array_equal(grid, heat_equation(1200, 4, session=oracle).to_numpy())


def _one_shot_program(index, length=100_000):
    """A random draw through ``index + 1`` steps: one kernel form each."""
    builder = ProgramBuilder()
    x = builder.new_vector(length)
    builder.random(x, index)
    for step in range(index + 1):
        (builder.multiply if step % 2 == 0 else builder.add)(x, x, 1.5)
    builder.sync(x)
    return builder.build(), x


def test_a_program_run_once_never_waits_for_cc(cc_log):
    """Three distinct one-step programs: run once each, they spawn no
    compiler; run twice each on a fresh engine, one ``cc`` per form — at
    two threads, 100 000 elements is one tile of 65 536, so a serial
    call."""
    programs = [_one_shot_program(index) for index in range(3)]
    with config_override(codegen_threads=2):
        once = ExecutionEngine(backend="native", optimize=True)
        for program, _ in programs:
            once.execute(program)
        assert cc_log.lines() == []
        twice = ExecutionEngine(backend="native", optimize=True)
        oracle = ExecutionEngine(backend="interpreter", optimize=False)
        for program, x in programs:
            stats = [twice.execute(program).stats for _ in range(2)]
            assert stats[0].native_fallback_reasons == {"first launch of this form": 1}
            assert stats[1].native_compiles == stats[1].native_kernel_launches == 1
            assert stats[1].native_mt_launches == 0 and stats[1].tiles_executed == 1
            assert np.array_equal(
                twice.execute(program).value(x), oracle.execute(program).value(x)
            )
    assert len(cc_log.lines()) == 3, cc_log.lines()
    assert cc_log.runtimes() == []


def test_a_kernel_bound_at_one_thread_threads_once_two_are_asked_for(cc_log):
    """Raising the thread count re-plans onto a kernel already bound: it is
    not compiled again, and its 200 000 elements (three tiles) run as two
    calls of it, one per row block — nothing else is built."""
    program, x = _one_shot_program(0, length=200_000)
    engine = ExecutionEngine(backend="native", optimize=True)
    for _ in range(2):
        engine.execute(program)
    with config_override(codegen_threads=2):
        result = engine.execute(program)
    assert len(cc_log.lines()) == 1 and cc_log.runtimes() == [], cc_log.lines()
    assert result.stats.native_compiles == 0
    assert result.stats.native_kernel_launches == result.stats.native_mt_launches == 1
    assert result.stats.tiles_executed == 2
    oracle = ExecutionEngine(backend="interpreter", optimize=False)
    assert np.array_equal(result.value(x), oracle.execute(program).value(x))


@pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "int32"])
def test_a_copy_moves_the_oracle_s_bytes(cc_log, dtype):
    """A copy of a reversed window, filled with raw bytes (NaN payloads and
    negative zeros among them): the NumPy copy writes the interpreter's
    bytes, and no compiler runs however often it is launched."""
    element = getattr(dtypes, dtype)
    builder = ProgramBuilder(element)
    length = 100_000
    source = builder.new_base(length)
    target = builder.new_vector(length)
    builder.identity(target, View(source, length - 1, (length,), (-1,)))
    builder.sync(target)
    program = builder.build()
    memory = MemoryManager()
    raw = np.random.default_rng(7).integers(0, 256, length * element.np_dtype.itemsize, np.uint8)
    memory.allocate(source)[:] = raw.view(element.np_dtype)
    interpreter = ExecutionEngine(backend="interpreter", optimize=False)
    oracle = interpreter.execute(program, memory.clone())
    engine = ExecutionEngine(backend="native", optimize=True)
    for _ in range(3):
        result = engine.execute(program, memory.clone())
        assert result.value(target).tobytes() == oracle.value(target).tobytes()
        assert result.stats.native_kernel_launches == result.stats.native_fallbacks == 0
        assert result.stats.tiles_executed == 1 and result.stats.serial_fallbacks == 0
    assert cc_log.lines() == []
