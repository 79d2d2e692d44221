"""Unit tests for the native codegen backend.

The differential harness establishes *parity*; these tests pin the
backend's mechanics: fallback behaviour with no compiler,
compile/cache counter windows, compiles at launch, the single-pass
whole-step launch, and instruction-local slot elision.

A kernel form that occurs in one step of a plan is compiled on its second
launch (its first runs the template), so a test about compiled code runs
its program twice on one engine (:func:`second_run`) and asserts on the
second result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.codegen.cache import resolve_runtime
from repro.codegen.compiler import VEC_ERF_SYMBOL
from repro.runtime.backend import get_backend
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import MemoryManager
from repro.runtime.native import FIRST_LAUNCH, NativeBackend, NativeKernelLaunch
from repro.runtime.tiling import TiledMapStep, TiledReduceStep
from repro.utils.config import Config, config_override
from repro.utils.errors import ExecutionError

requires_compiler = pytest.mark.skipif(
    find_c_compiler() is None, reason="no C compiler on this host"
)

#: Small vectors but guaranteed multi-tile decomposition.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)
LENGTH = 64


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "codegen-cache")


def build_chain(length=LENGTH, ops=6):
    """``ops`` alternating ``a *= b`` / ``b += a``, ``a`` drawn uniform in
    [0, 1): one input that is not a constant, so the fused chain computes
    (over constants alone lowering folds it to a fill, which is not
    compiled)."""
    builder = ProgramBuilder()
    a = builder.new_vector(length)
    b = builder.new_vector(length)
    builder.random(a, 11)
    builder.identity(b, 1.5)
    for i in range(ops):
        if i % 2 == 0:
            builder.multiply(a, a, b)
        else:
            builder.add(b, b, a)
    builder.sync(a)
    builder.sync(b)
    return builder.build(), a, b


def build_distinct_forms(count):
    """``count`` map steps that lower to ``count`` different kernel forms:
    different lengths keep them from fusing, different chain lengths make
    their loop bodies differ, and each chain reads a random draw, so that
    none of them folds to a fill."""
    builder = ProgramBuilder()
    outputs = []
    for index in range(count):
        vector = builder.new_vector(LENGTH + 16 * index)
        other = builder.new_vector(LENGTH + 16 * index)
        builder.random(vector, index)
        builder.identity(other, 1.25)
        for step in range(index + 1):
            if step % 2 == 0:
                builder.multiply(vector, vector, other)
            else:
                builder.add(vector, vector, other)
        builder.sync(vector)
        outputs.append(vector)
    return builder.build(), outputs


def build_recurring_forms(count):
    """``count`` (at most 2) kernel forms, each in two steps of one plan:
    ``dst[1:-1] = src[:-2] op src[2:]`` over two random vectors, then
    back, with ``op`` add for the first form and multiply for the second.
    The second sweep reads the first one's shifted output, so the two
    steps stay apart."""
    builder = ProgramBuilder()
    outputs = []
    for index in range(count):
        length = LENGTH + 16 * index
        a, b = builder.new_vector(length), builder.new_vector(length)
        builder.random(a, index)
        builder.random(b, index + count)
        for src, dst in ((a, b), (b, a)):
            (builder.add, builder.multiply)[index](
                View(dst.base, 1, (length - 2,), (1,)),
                View(src.base, 0, (length - 2,), (1,)),
                View(src.base, 2, (length - 2,), (1,)),
            )
        builder.sync(a)
        outputs.append(a)
    return builder.build(), outputs


def second_run(engine, program):
    """Execute ``program`` twice on ``engine`` and return the second result:
    the one whose single-step kernel forms are compiled."""
    engine.execute(program)
    return engine.execute(program)


def _oracle(program, views):
    result = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    return [result.value(view) for view in views]


def test_registered_in_backend_registry():
    backend = get_backend("native")
    assert isinstance(backend, NativeBackend)
    assert backend.name == "native"


def no_compiler(monkeypatch):
    """A host without cc: lowering succeeds but compilation raises
    CompilerUnavailable."""
    monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)


class TestFallbacks:
    def test_no_compiler_runs_interpreted_templates(self, cache_dir, monkeypatch):
        no_compiler(monkeypatch)
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])
        assert result.stats.native_kernel_launches == 0
        assert result.stats.native_compiles == 0
        # Without a compiled launchable the backend is the parallel
        # backend: it still tiles, through the interpreted templates.
        assert result.stats.tiles_executed > 0
        assert result.stats.native_fallbacks > 0
        assert all("compiler" in reason for reason in result.stats.native_fallback_reasons)

    def test_no_compiler_degrades_to_fallbacks(self, cache_dir, monkeypatch):
        # The backend caches CompilerUnavailable as "no native form" on the
        # launch that tries to compile: the second.
        no_compiler(monkeypatch)
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(program)
            first = engine.execute(program)
            second = engine.execute(program)
        for result in (first, second):
            assert np.array_equal(result.value(a), expected[0])
            assert np.array_equal(result.value(b), expected[1])
            assert result.stats.native_kernel_launches == 0
            assert result.stats.native_compiles == 0
        assert first.stats.native_fallbacks > 0
        # The failure is cached: the warm flush re-diagnoses nothing.
        cache = engine.backend.cache_stats()
        assert cache["native_cache_hits"] > 0

    @requires_compiler
    @pytest.mark.parametrize(
        "shim,reason",
        [
            ("printf '\\351 na\\357ve diagnostic\\n' >&2\nexit 1", "failed (1)"),
            ("exec sleep 30", "did not finish"),
        ],
        ids=["non_utf8_stderr", "never_returns"],
    )
    def test_a_compiler_that_misbehaves_is_a_counted_fallback(
        self, shim, reason, cache_dir, tmp_path, monkeypatch, watchdog
    ):
        """A compiler that prints bytes that are no UTF-8, or never returns,
        costs the compiled path, not the flush."""
        script = tmp_path / "broken-cc"
        script.write_text(f"#!/bin/sh\n{shim}\n")
        script.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(script))
        monkeypatch.setattr("repro.codegen.compiler.COMPILE_TIMEOUT_S", 0.3)
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])
        assert result.stats.native_compiles == 0
        assert result.stats.native_fallbacks > 0
        assert all(reason in message for message in result.stats.native_fallback_reasons)

    def test_a_bare_reduction_needs_no_compiler(self, cache_dir, monkeypatch):
        # With no compiler, a tiled reduction runs the inherited NumPy fold
        # — as it does with one, so nothing falls back and no reason is
        # counted; a serial generator step runs the interpreter.
        no_compiler(monkeypatch)
        builder = ProgramBuilder()
        matrix = builder.new_matrix(32, 16)
        out = builder.new_vector(32)
        builder.random(matrix, seed=7)
        builder.add_reduce(out, matrix, axis=1)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (out,))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            result = second_run(ExecutionEngine(backend="native", optimize=True), program)
        assert np.array_equal(result.value(out), expected[0])
        assert result.stats.native_compiles == result.stats.native_fallbacks == 0
        assert result.stats.native_fallback_reasons == {}
        assert result.stats.tiles_executed > 0


class TestFallbackReasons:
    """Every step that leaves the compiled path says why, per flush and
    cumulatively; ``cache_stats()`` stays all-numeric."""

    @staticmethod
    def _accounted(stats):
        return stats.native_fallbacks == sum(stats.native_fallback_reasons.values())

    @requires_compiler
    def test_the_service_workload_s_programs_name_their_reasons(self, cache_dir):
        from repro.frontend.session import Session
        from repro.workloads import black_scholes, monte_carlo_pi

        with config_override(codegen_cache_dir=cache_dir):
            session = Session(backend="native", optimize=True)
            for _ in range(2):
                black_scholes(20_000, session=session).to_numpy()
                prices = session.stats_history[-1]
                monte_carlo_pi(20_000, session=session).to_numpy()
                estimate = session.stats_history[-1]
            cumulative = session.engine.backend.fallback_reasons()
            cache = session.cache_stats()
        # One BH_LOG sends black_scholes' whole fused kernel to the template.
        assert prices.native_fallbacks == 1
        assert prices.native_fallback_reasons == {"unsupported op-code BH_LOG": 1}
        # monte_carlo_pi's kernel ends in the sum of a mask: its members
        # run compiled, and NumPy folds what they store.
        assert estimate.native_kernel_launches >= 1
        assert estimate.native_fallback_reasons == {}
        # That kernel ran the template on its first launch: one reason.
        assert cumulative == {"unsupported op-code BH_LOG": 2, FIRST_LAUNCH: 1}
        assert all(isinstance(value, (int, float)) for value in cache.values())
        assert self._accounted(session.total_stats())

    @requires_compiler
    def test_a_bool_reduction_is_numpy_s_and_no_fallback(self, cache_dir):
        from repro.bytecode import dtypes
        from repro.bytecode.opcodes import OpCode

        builder = ProgramBuilder()
        x = builder.new_vector(LENGTH)
        mask = builder.new_vector(LENGTH, dtype=dtypes.bool_)
        any_inside = builder.new_vector(1, dtype=dtypes.bool_)
        builder.random(x, seed=5)
        builder.emit(OpCode.BH_LESS_EQUAL, mask, x, 0.5)
        builder.maximum_reduce(any_inside, mask, axis=0)
        builder.sync(any_inside)
        program = builder.build()
        expected = _oracle(program, (any_inside,))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            result = second_run(ExecutionEngine(backend="native", optimize=True), program)
        assert result.stats.native_fallbacks == 0
        assert result.stats.native_fallback_reasons == {}
        assert np.array_equal(result.value(any_inside), expected[0])

    def test_a_missing_compiler_is_a_reason_too(self, cache_dir, monkeypatch):
        program, _, _ = build_chain()
        no_compiler(monkeypatch)
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(program)
            cold = engine.execute(program)  # the launch that compiles
            warm = engine.execute(program)
        # The message is cached beside the failure and counted again.
        (message,) = cold.stats.native_fallback_reasons
        assert "compiler" in message
        assert warm.stats.native_fallback_reasons == cold.stats.native_fallback_reasons
        assert self._accounted(cold.stats) and self._accounted(warm.stats)


class TestCodegenThreadsVariable:
    """``REPRO_CODEGEN_THREADS`` is a positive integer or an error."""

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
    def test_a_malformed_value_names_itself(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_THREADS", value)
        with pytest.raises(ExecutionError, match=re.escape(f"REPRO_CODEGEN_THREADS={value!r}")):
            NativeBackend().resolve_config(Config(parallel_num_threads=2))

    def test_a_positive_value_overrides_the_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_THREADS", "3")
        resolved = NativeBackend().resolve_config(Config(parallel_num_threads=2))
        assert resolved.codegen_threads == 3
        resolved = NativeBackend().resolve_config(
            Config(parallel_num_threads=2, codegen_threads=5)
        )
        assert resolved.codegen_threads == 5

    @requires_compiler
    def test_a_flush_with_a_malformed_value_fails(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_THREADS", "two")
        program, _, _ = build_chain()
        with config_override(
            **TINY_TILES, parallel_num_threads=2, codegen_cache_dir=cache_dir
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            memory = MemoryManager()
            with pytest.raises(ExecutionError, match="REPRO_CODEGEN_THREADS"):
                engine.execute(program, memory)
        # The snapshot is resolved before the plan stage: no step ran.
        assert memory.allocation_count == 0
        assert engine.plans_built == 0
        assert engine.backend.cache_stats()["native_kernel_launches"] == 0


@requires_compiler
class TestCompileCounters:
    def test_cold_then_warm_flush_counters(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            first = engine.execute(program)
            cold = engine.execute(program)
            warm = engine.execute(program)
        # A one-step form's first launch runs the template; its second
        # compiles it.
        assert first.stats.native_compiles == first.stats.native_kernel_launches == 0
        assert first.stats.native_fallback_reasons == {FIRST_LAUNCH: 1}
        assert cold.stats.native_compiles >= 1
        assert cold.stats.native_disk_hits == 0
        assert cold.stats.native_kernel_launches > 0
        assert cold.stats.native_fallbacks == 0
        # Warm replay: plan hit, launch cache hit, zero compiler work.
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.native_compiles == 0
        assert warm.stats.native_disk_hits == 0
        assert warm.stats.native_memory_hits == 0
        assert warm.stats.native_kernel_launches > 0
        # The marker's lookup is a miss, as is the form's first; only the
        # warm launch is served from the launch cache.
        cache = engine.backend.cache_stats()
        assert (cache["native_cache_misses"], cache["native_cache_hits"]) == (2, 1)

    def test_fresh_backend_restores_from_disk(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            first = ExecutionEngine(backend="native", optimize=True)
            cold = second_run(first, program)
            clear_memory_cache()
            second = ExecutionEngine(backend="native", optimize=True)
            restored = second.execute(program)
        assert cold.stats.native_compiles >= 1
        # A form on disk is loaded on its first launch, not templated.
        assert restored.stats.native_fallbacks == 0
        assert restored.stats.native_compiles == 0
        assert restored.stats.native_disk_hits == cold.stats.native_compiles
        assert np.array_equal(restored.value(a), cold.value(a))

    def test_fresh_backend_same_process_hits_artifact_memo(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            second_run(ExecutionEngine(backend="native", optimize=True), program)
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert result.stats.native_compiles == 0
        assert result.stats.native_memory_hits >= 1

    def test_direct_execute_without_engine_windows_stats(self, cache_dir):
        # Backend.execute without the engine's prepare_plan stage must
        # still report its own plan-stage compiles.
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            backend = get_backend("native")
            backend.execute(program)
            result = backend.execute(program)
        assert result.stats.native_compiles >= 1
        assert result.stats.native_kernel_launches > 0

    def test_cache_stats_reports_all_counters(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            second_run(engine, program)
        cache = engine.backend.cache_stats()
        for key in (
            "native_compiles",
            "native_disk_hits",
            "native_memory_hits",
            "native_kernel_launches",
            "native_fallbacks",
            "native_cache_hits",
            "native_cache_misses",
            "native_cache_size",
            "native_loaded_artifacts",
        ):
            assert key in cache, key
        assert cache["native_cache_size"] >= 1
        assert cache["native_loaded_artifacts"] >= 1


@requires_compiler
class TestExecutionStrategies:
    def test_single_pass_launch_when_serial(self, cache_dir):
        """With one worker thread, a multi-tile map step runs as ONE launch.

        A compiled loop nest covers any geometry in a single call, so
        per-tile slicing only buys thread-level parallelism; with no
        threads to feed, the backend skips it entirely.
        """
        program, a, b = build_chain()
        with config_override(
            **TINY_TILES, parallel_num_threads=1, codegen_cache_dir=cache_dir
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            parallel = ExecutionEngine(backend="parallel", optimize=True)
            native_result = second_run(native, program)
            parallel_result = parallel.execute(program)
        plan = native.last_plan
        step = next(
            s for s in plan.tiling.steps if isinstance(s, TiledMapStep)
        )
        assert len(step.spans) > 1  # the decomposition did tile
        assert parallel_result.stats.tiles_executed == len(step.spans)
        assert native_result.stats.tiles_executed == 1  # ...but one launch ran
        assert native_result.stats.native_kernel_launches == 1
        assert np.array_equal(native_result.value(a), parallel_result.value(a))

    def test_multi_thread_calls_the_kernel_once_per_row_block(self, cache_dir):
        """With threads>1, a multi-tile map step is one ``repro_kernel`` call
        per row block: 64 rows at two threads are two blocks of 32 (not the
        plan's four tiles), launched on the tile pool."""
        program, a, b = build_chain()
        with config_override(
            **TINY_TILES,
            parallel_num_threads=2,
            codegen_threads=2,
            codegen_cache_dir=cache_dir,
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            result = second_run(native, program)
        step = next(
            s for s in native.last_plan.tiling.steps if isinstance(s, TiledMapStep)
        )
        assert len(step.spans) == 4  # the decomposition did tile
        assert result.stats.native_kernel_launches == 1  # one resolved launchable
        assert result.stats.native_mt_launches == 1
        assert result.stats.tiles_executed == 2
        expected = _oracle(program, (a, b))
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])

    def test_codegen_threads_knob_overrides_parallel_threads(self, cache_dir):
        """codegen_threads>1 splits a compiled step even at one worker.

        The knob is the part count of a compiled step and the size of the
        pool its row blocks run on — it must not depend on how many
        Python-side workers the tiled backend would have used (on a 1-CPU
        host that resolves to one).
        """
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(
            **TINY_TILES,
            parallel_num_threads=1,
            codegen_threads=4,
            codegen_cache_dir=cache_dir,
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            result = second_run(native, program)
        assert result.stats.native_mt_launches == 1
        assert result.stats.tiles_executed == 4
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])

    def test_instruction_local_temporaries_are_elided(self, cache_dir):
        """A freed, never-synced temp inside one fused kernel stays virtual.

        The tiling analysis marks its slot instruction-local; the compiled
        kernel receives no pointer for it and its stores never reach
        memory — results must be identical anyway.  (``a`` is a random
        draw: over a constant the kernel folds to a fill.)
        """
        builder = ProgramBuilder()
        a = builder.new_vector(LENGTH)
        t = builder.new_vector(LENGTH)
        out = builder.new_vector(LENGTH)
        builder.random(a, 5)
        builder.multiply(t, a, 3.0)
        builder.add(out, t, 1.0)
        builder.free(t)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (out,))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
        local = [
            step.local_slots
            for step in engine.last_plan.tiling.steps
            if isinstance(step, TiledMapStep) and step.local_slots
        ]
        assert local, "no tiled step marked the temporary instruction-local"
        assert result.stats.native_kernel_launches > 0
        assert np.array_equal(result.value(out), expected[0])

    def test_synced_temporaries_are_not_elided(self, cache_dir):
        """Syncing the intermediate makes it observable: no elision."""
        builder = ProgramBuilder()
        a = builder.new_vector(LENGTH)
        t = builder.new_vector(LENGTH)
        out = builder.new_vector(LENGTH)
        builder.identity(a, 2.0)
        builder.multiply(t, a, 3.0)
        builder.add(out, t, 1.0)
        builder.sync(t)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (t, out))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = engine.execute(program)
        for step in engine.last_plan.tiling.steps:
            if isinstance(step, TiledMapStep):
                assert not step.local_slots
        assert np.array_equal(result.value(t), expected[0])
        assert np.array_equal(result.value(out), expected[1])


def _reduction_program(reduction, shape, axis):
    """``out = reduction(random, axis)``: a bare reduction of drawn values."""
    builder = ProgramBuilder()
    new = builder.new_vector if len(shape) == 1 else builder.new_matrix
    source = new(*shape)
    out = builder.new_vector(1 if len(shape) == 1 else shape[1 - axis])
    builder.random(source, seed=3)
    getattr(builder, f"{reduction}_reduce")(out, source, axis=axis)
    builder.sync(out)
    return builder.build(), out


@requires_compiler
class TestReductions:
    """A reduction folds with NumPy on ``native`` as on ``parallel``: a bare
    one compiles nothing, and a kernel that ends in one compiles only its
    members, as a map form whose stored slot NumPy folds."""

    def _run(self, program, cache_dir, **overrides):
        with config_override(
            **{**TINY_TILES, "codegen_cache_dir": cache_dir, **overrides}
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            return engine, [engine.execute(program) for _ in range(3)]

    @pytest.mark.parametrize(
        "reduction, shape, axis",
        [("add", (4096,), 0), ("add", (24, 12), 0), ("add", (24, 12), 1),
         ("maximum", (16, 32), 1)],
        ids=["sum-rank-1", "sum-axis-0", "sum-axis-1", "max-axis-1"],
    )
    def test_a_bare_reduction_compiles_nothing(self, cache_dir, reduction, shape, axis):
        """No ``cc`` run, no launch-cache entry, no fallback, and every flush
        — threads asked for or not — has the parallel tier's bits."""
        program, out = _reduction_program(reduction, shape, axis)
        with config_override(**TINY_TILES):
            reference = ExecutionEngine(backend="parallel", optimize=True).execute(program)
        engine, results = self._run(program, cache_dir, codegen_threads=4)
        steps = engine.last_plan.tiling.steps
        assert any(isinstance(step, TiledReduceStep) for step in steps)
        assert engine.backend.cache_stats()["native_cache_size"] == 0
        for result in results:
            assert result.stats.native_compiles == result.stats.native_fallbacks == 0
            assert result.stats.native_kernel_launches == result.stats.native_mt_launches == 0
            assert result.value(out).tobytes() == reference.value(out).tobytes()

    @pytest.mark.parametrize("tail", [False, True], ids=["bare", "closing_a_kernel"])
    def test_a_zero_size_reduction(self, cache_dir, tail):
        """A bare reduction of no elements costs nothing; one that closes a
        kernel is its members' map form, like any other."""
        builder = ProgramBuilder()
        source = View(builder.new_base(8), 0, (4, 0), (0, 1))  # four empty rows
        out = builder.new_vector(4)
        if tail:
            empty, source = source, View(builder.new_base(8), 0, (4, 0), (0, 1))
            builder.multiply(source, empty, 2.0)
        builder.add_reduce(out, source, axis=1)
        if tail:
            builder.free(source)
        builder.sync(out)
        program = builder.build()
        # (Fusion only: DCE would drop a store of no elements.)
        engine, results = self._run(
            program, cache_dir, parallel_serial_threshold=0, enabled_passes=["fusion"]
        )
        (step,) = [s for s in engine.last_plan.tiling.steps if isinstance(s, TiledReduceStep)]
        assert bool(step.local_slots) == tail
        if not tail:
            assert engine.backend.cache_stats()["native_cache_size"] == 0
            assert sum(result.stats.native_compiles for result in results) == 0
            assert results[-1].stats.native_fallback_reasons == {}
        for result in results:
            assert result.value(out).tolist() == [0.0] * 4

    def test_a_kernel_ending_in_the_reduction_compiles_its_members_map_form(
        self, cache_dir
    ):
        """``sum(x * y)``: the members are the map form the unfused program's
        ``x * y`` step is — one artifact, compiled by the fused program and
        found in memory by the unfused one — with the product stored in span
        scratch, never in the memory manager, and the unfused program's bits."""
        def build():
            builder = ProgramBuilder()
            x, y, product = (builder.new_vector(500) for _ in range(3))
            total = builder.new_vector(1)
            builder.random(x, seed=3)
            builder.random(y, seed=4)
            builder.multiply(product, x, y)
            builder.add_reduce(total, product)
            builder.free(product)
            builder.sync(total)
            return builder.build(), total

        results, memory_hits = {}, {}
        for scheduler in ("dag", "consecutive"):
            program, total = build()
            _, runs = self._run(
                program, cache_dir + scheduler, fusion_scheduler=scheduler, codegen_threads=4
            )
            results[scheduler] = (
                [result.value(total).tobytes() for result in runs],
                runs[1].stats,
            )
            memory_hits[scheduler] = [result.stats.native_memory_hits for result in runs]
        fused, unfused = results["dag"][1], results["consecutive"][1]
        assert (fused.native_compiles, unfused.native_compiles) == (1, 0)
        # The unfused map step binds the loaded artifact on its first launch.
        assert memory_hits["consecutive"] == [1, 0, 0]
        assert (fused.kernel_launches, unfused.kernel_launches) == (3, 4)
        assert fused.native_kernel_launches == unfused.native_kernel_launches == 1
        assert fused.native_slots_elided == 1 and fused.native_fallbacks == 0
        assert fused.actual_peak_bytes < unfused.actual_peak_bytes
        assert len(set(results["dag"][0] + results["consecutive"][0])) == 1

    @pytest.mark.parametrize("combine", [True, False], ids=["rank-1", "axis"])
    def test_add_reduce_over_bool_is_an_exact_count(self, cache_dir, combine):
        """``add.reduce`` over bool counts in NumPy's ``int64``, on every tier."""
        from repro.bytecode import dtypes
        from repro.bytecode.opcodes import OpCode

        builder = ProgramBuilder()
        new = builder.new_vector if combine else builder.new_matrix
        shape = (500,) if combine else (24, 12)
        x, mask = new(*shape), new(*shape, dtype=dtypes.bool_)
        count = builder.new_vector(1 if combine else 24)
        builder.random(x, seed=9)
        builder.emit(OpCode.BH_LESS_EQUAL, mask, x, 0.5)
        builder.add_reduce(count, mask, axis=0 if combine else 1)
        builder.sync(count)
        program = builder.build()
        expected = _oracle(program, (count,))
        _, results = self._run(program, cache_dir, codegen_threads=4)
        assert results[-1].stats.native_fallbacks == 0
        assert 0 < expected[0].sum() < x.nelem
        for result in results:
            assert np.array_equal(result.value(count), expected[0])


@requires_compiler
class TestFirstLaunch:
    def test_threads_launching_an_unseen_form_compile_it_once(
        self, cache_dir, thread_hammer
    ):
        """Four threads run one program whose form the backend never saw,
        three times each on one engine: first launches run the template
        and leave the marker, a later launch compiles — once, behind the
        digest latch — and the launchable replaces the marker."""
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        results = [[] for _ in range(4)]
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir, codegen_threads=2):
            engine = ExecutionEngine(backend="native", optimize=True)

            def body(index):
                for _ in range(3):
                    results[index].append(engine.execute(program))

            thread_hammer(4, body)
        backend = engine.backend
        cache = backend.cache_stats()
        assert backend.native_compiles == 1
        (entry,) = backend._native_cache.values()
        assert isinstance(entry, NativeKernelLaunch), "a marker was left behind"
        # Every launch ran compiled or counted its first-launch fallback,
        # and no marker lookup was served as a launch-cache hit.
        launched = cache["native_kernel_launches"]
        assert launched + cache["native_fallbacks"] == 12
        assert backend.fallback_reasons() == {FIRST_LAUNCH: cache["native_fallbacks"]}
        resolved = cache["native_compiles"] + cache["native_memory_hits"]
        assert cache["native_cache_hits"] <= launched - resolved
        for result in (result for runs in results for result in runs):
            assert np.array_equal(result.value(a), expected[0])
            assert np.array_equal(result.value(b), expected[1])

    def test_a_first_launch_never_compiles_the_runtime(self, cache_dir, tmp_path, monkeypatch):
        """A kernel on disk and no runtime there: a threaded first launch
        binds the kernel from disk and runs its row blocks; nothing asks
        for the runtime, so no compiler is spawned."""
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir, codegen_threads=2):
            second_run(ExecutionEngine(backend="native", optimize=True), program)
        sources = [name for name in os.listdir(cache_dir) if name.endswith(".c")]
        assert len(sources) == 1
        assert not any(_is_runtime(os.path.join(cache_dir, name)) for name in sources)
        clear_memory_cache()
        log = tmp_path / "cc.log"
        shim = tmp_path / "failing-cc"
        shim.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexit 1\n')
        shim.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(shim))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir, codegen_threads=2):
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert not log.exists(), f"a compiler was spawned: {log.read_text()}"
        assert result.stats.native_fallbacks == result.stats.native_compiles == 0
        assert result.stats.native_disk_hits == result.stats.native_kernel_launches == 1
        assert result.stats.native_mt_launches == 1
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])


def _is_runtime(c_path) -> bool:
    """Whether the artifact source at ``c_path`` is the kernel runtime's."""
    with open(c_path) as handle:
        return VEC_ERF_SYMBOL in handle.read()


@requires_compiler
class TestPlanInteraction:
    def test_prepare_plan_is_idempotent(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
            backend = engine.backend
            plan = engine.last_plan
            # Every compile of the backend happened in a flush, and the
            # second one reports it.
            assert result.stats.native_compiles == backend.native_compiles
            # Re-preparing the same plan looks nothing up and compiles
            # nothing: zero new misses, zero new compiles.
            misses = backend.native_cache_misses
            compiles = backend.native_compiles
            backend.prepare_plan(plan)
        assert backend.native_cache_misses == misses
        assert backend.native_compiles == compiles

    def test_prime_compiles_nothing_and_the_first_flush_reports_its_compiles(
        self, cache_dir
    ):
        """Priming a plan lowers and compiles nothing; its recurring forms
        compile at their first launch, on that flush's record and on no
        other flush's."""
        from repro.core.pipeline import default_pipeline

        outcomes = ("native_compiles", "native_disk_hits", "native_memory_hits")
        chain, _, _ = build_chain()
        other = build_recurring_forms(2)[0]
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            second_run(engine, chain)
            before = engine.backend.cache_stats()
            engine.prime(other, default_pipeline().run(other))  # prepare_plan, no flush
            primed = engine.backend.cache_stats()
            unrelated = engine.execute(build_chain()[0]).stats
            first = engine.execute(other).stats
            second = engine.execute(build_recurring_forms(2)[0]).stats
            after = engine.backend.cache_stats()
        for name in outcomes + ("native_cache_misses",):
            assert primed[name] == before[name], name
        assert [getattr(unrelated, name) for name in outcomes] == [0, 0, 0]
        assert first.plan_cache_hits == 1
        assert first.native_compiles == 2 and first.native_fallbacks == 0
        assert after["native_compiles"] - before["native_compiles"] == 2
        assert [getattr(second, name) for name in outcomes] == [0, 0, 0]

    def test_a_recurring_form_compiles_at_its_first_launch_on_the_flushing_thread(
        self, cache_dir, monkeypatch
    ):
        """A form in two steps of one cold plan is compiled by the flush
        that launches it first — no template fallback, no pool thread."""
        import repro.runtime.native as native_module

        compiling_threads = set()
        real = native_module.get_compiled_kernel

        def record(source, **kwargs):
            compiling_threads.add(threading.current_thread().name)
            return real(source, **kwargs)

        program, outputs = build_recurring_forms(2)
        expected = _oracle(program, outputs)
        with config_override(
            **TINY_TILES, parallel_num_threads=2, codegen_cache_dir=cache_dir
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            monkeypatch.setattr(native_module, "get_compiled_kernel", record)
            result = engine.execute(program)
        assert result.stats.native_compiles == 2
        assert result.stats.native_fallbacks == 0
        assert result.stats.native_kernel_launches == 4
        assert compiling_threads == {threading.current_thread().name}
        for view, want in zip(outputs, expected):
            assert np.array_equal(result.value(view), want)

    def test_failed_execution_resets_the_stats_window(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            backend = get_backend("native")
            with pytest.raises(Exception):
                backend.execute_plan(object(), program)  # malformed plan
            # There is no window to reset any more: each run's record is
            # exactly what that run did, and the two are all the backend did.
            first = backend.execute(program)
            result = backend.execute(program)
            cumulative = backend.cache_stats()
        assert result.stats.native_kernel_launches > 0
        for counter in ("native_kernel_launches", "native_compiles", "native_fallbacks"):
            both = getattr(first.stats, counter) + getattr(result.stats, counter)
            assert both == cumulative[counter], counter


def _process_threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    pytest.skip("no Threads: line in /proc/self/status")


#: Runs ``runs`` threaded native flushes against ``cache_dir`` in a cold
#: process and prints what the backend counted in the last one.
_FLUSH_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from runtime.test_native_backend import TINY_TILES, build_chain
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override

program, a, b = build_chain()
with config_override(**TINY_TILES, codegen_cache_dir={cache_dir!r}, codegen_threads=2):
    engine = ExecutionEngine(backend="native", optimize=True)
    for _ in range({runs}):
        stats = engine.execute(program).stats
print(json.dumps({{
    "compiles": stats.native_compiles,
    "disk_hits": stats.native_disk_hits,
    "fallbacks": stats.native_fallbacks,
    "mt_launches": stats.native_mt_launches,
}}))
"""

_TESTS_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _flush_in_subprocess(cache_dir, runs=1, **env):
    script = _FLUSH_SCRIPT.format(
        src=os.path.join(os.path.dirname(_TESTS_ROOT), "src"),
        tests=_TESTS_ROOT,
        cache_dir=cache_dir,
        runs=runs,
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
        env=dict(os.environ, **env),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@requires_compiler
class TestThreadedLaunch:
    """A threaded compiled step is the ordinary kernel called once per row
    block on the tile pool: no second entry point, no C pool, no runtime."""

    def test_warm_cache_directory_serves_a_process_without_a_compiler(
        self, cache_dir, tmp_path
    ):
        """A second process over a populated cache forks no ``cc`` at all
        and still launches threaded: its first launch loads what the cold
        process compiled on its second."""
        cold = _flush_in_subprocess(cache_dir, runs=2)
        assert cold["compiles"] >= 1
        log = tmp_path / "cc.log"
        shim = tmp_path / "failing-cc"
        shim.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexit 1\n')
        shim.chmod(0o755)
        warm = _flush_in_subprocess(cache_dir, REPRO_CC=str(shim))
        assert not log.exists(), f"a compiler was spawned: {log.read_text()}"
        assert warm["compiles"] == 0
        assert warm["disk_hits"] == cold["compiles"]
        assert warm["fallbacks"] == 0
        assert warm["mt_launches"] > 0

    def test_row_blocks_run_on_one_pool_per_thread_count(self, cache_dir):
        """K kernel forms launched at n threads hold at most n pool
        threads: the blocks of every step share the tile pool of
        ``codegen_threads`` workers, not a pool per kernel or part count."""
        program, outputs = build_distinct_forms(8)
        expected = _oracle(program, outputs)
        before = _process_threads()
        with config_override(
            **TINY_TILES,
            parallel_num_threads=1,  # no Python-side tile pool in the count
            codegen_threads=4,
            codegen_cache_dir=cache_dir,
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
        assert result.stats.native_compiles >= 8
        assert result.stats.native_mt_launches >= 8
        assert _process_threads() - before <= 4
        for view, want in zip(outputs, expected):
            assert np.array_equal(result.value(view), want)

    def test_kernel_artifacts_are_the_same_at_every_thread_count(self, tmp_path):
        """Same kernel sources whichever thread count launches them, and a
        kernel library links against no threading runtime."""
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        kernels = {}
        for threads in (1, 3):
            clear_memory_cache()
            directory = tmp_path / str(threads)
            with config_override(
                **TINY_TILES, codegen_cache_dir=str(directory), codegen_threads=threads
            ):
                engine = ExecutionEngine(backend="native", optimize=True)
                result = second_run(engine, program)
            assert result.stats.native_fallbacks == 0
            assert (result.stats.native_mt_launches > 0) == (threads > 1)
            assert np.array_equal(result.value(a), expected[0])
            assert np.array_equal(result.value(b), expected[1])
            kernels[threads] = {
                name: (directory / name).read_text()
                for name in os.listdir(directory)
                if name.endswith(".c")
            }
            assert kernels[threads], "no kernel artifact was written"
            assert len(os.listdir(directory)) == 3 * len(kernels[threads])
        assert kernels[1] == kernels[3]
        for name, text in kernels[3].items():
            assert "pthread" not in text and "omp" not in text
            if shutil.which("nm"):
                undefined = subprocess.run(
                    ["nm", "-D", "--undefined-only", str(tmp_path / "3" / name[:-2]) + ".so"],
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
                assert "pthread_" not in undefined and "GOMP" not in undefined


def build_erf_chain(length=LENGTH):
    """``t = erf(a * 0.5)`` over a random ``a``: one erf-bearing kernel
    form, whose first launch runs the interpreted template."""
    builder = ProgramBuilder()
    a = builder.new_vector(length)
    t = builder.new_vector(length)
    builder.random(a, 5)
    builder.multiply(t, a, 0.5)
    builder.emit_unary(OpCode.BH_ERF, t, t)
    builder.sync(t)
    return builder.build(), t


def _record_runtime_resolves(monkeypatch, replacement=None):
    """Patch ``resolve_runtime`` to log each call's outcome; ``replacement``
    stands in for the real resolve when given."""
    import repro.codegen.cache as cache_module

    outcomes = []
    resolve = replacement or cache_module.resolve_runtime

    def recording(*args, **kwargs):
        runtime, outcome = resolve(*args, **kwargs)
        outcomes.append(outcome)
        return runtime, outcome

    monkeypatch.setattr(cache_module, "resolve_runtime", recording)
    return outcomes


@requires_compiler
class TestSharedRuntime:
    """One kernel runtime artifact per process and directory: the vector
    ``erf`` that interpreted ``BH_ERF`` calls.  A compiled kernel calls
    libm's ``erf`` itself, so no kernel launch, serial or threaded, needs
    the runtime."""

    def test_runtime_outcome_is_reported_and_never_counted_as_a_kernel(
        self, cache_dir, monkeypatch
    ):
        program, t = build_erf_chain()
        expected = _oracle(program, (t,))
        # The oracle's erf resolved the runtime in the session's directory,
        # and the artifact memo would serve that one here.
        clear_memory_cache()
        outcomes = _record_runtime_resolves(monkeypatch)
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            first = ExecutionEngine(backend="native", optimize=True)
            template = first.execute(program)
            if outcomes[0] is None:
                pytest.skip("toolchain builds no kernel runtime")
            resolved = len(outcomes)
            cold = first.execute(program)
            clear_memory_cache()
            disk = ExecutionEngine(backend="native", optimize=True).execute(program)
        # The template's erf resolved the runtime, compiled once and then
        # served from the process memo; compiled launches never looked.
        assert outcomes[0] == "compiled"
        assert set(outcomes[1:]) <= {"memory"}
        assert len(outcomes) == resolved
        # The runtime is in no kernel count: its compile is not the
        # template flush's, and a disk-warm engine restores exactly the
        # kernels the cold one compiled while the store holds one more.
        assert template.stats.native_compiles == 0
        assert cold.stats.native_compiles == 1
        assert disk.stats.native_compiles == 0
        assert disk.stats.native_disk_hits == cold.stats.native_compiles
        sources = [name for name in os.listdir(cache_dir) if name.endswith(".c")]
        assert sorted(_is_runtime(os.path.join(cache_dir, name)) for name in sources) == [
            False,
            True,
        ]
        assert resolve_runtime(cache_dir)[1] == "disk"
        for result in (template, cold, disk):
            assert np.array_equal(result.value(t), expected[0])

    def test_without_a_runtime_threaded_launches_keep_the_per_tile_path(
        self, cache_dir, monkeypatch
    ):
        """With no runtime to be had, a threaded step still runs its row
        blocks on the tile pool, one tile each, and never asks for one."""
        outcomes = _record_runtime_resolves(monkeypatch, lambda *args, **kwargs: (None, None))
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(
            **TINY_TILES,
            parallel_num_threads=2,
            codegen_threads=4,
            codegen_cache_dir=cache_dir,
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = second_run(engine, program)
        step = next(
            s for s in engine.last_plan.tiling.steps if isinstance(s, TiledMapStep)
        )
        assert outcomes == []
        assert result.stats.native_mt_launches == 1
        assert result.stats.native_fallbacks == 0
        assert result.stats.tiles_executed == len(step.spans)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])


def build_fills():
    """Two map steps that store nothing but constants (their lengths keep
    them apart): two fills, two distinct forms."""
    builder = ProgramBuilder()
    outputs = []
    for index in range(2):
        vector = builder.new_vector(LENGTH + 16 * index)
        builder.identity(vector, 0.5 + index)
        builder.multiply(vector, vector, 3.0)
        builder.sync(vector)
        outputs.append(vector)
    return builder.build(), outputs


class TestFills:
    """A nest of literal stores is written by NumPy, never compiled."""

    @pytest.mark.parametrize("toolchain", ["failing-cc", "no-cc"])
    def test_a_fill_only_plan_needs_no_compiler_and_no_runtime(
        self, toolchain, cache_dir, tmp_path, monkeypatch
    ):
        log = tmp_path / "cc.log"
        if toolchain == "no-cc":
            monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        else:
            shim = tmp_path / "failing-cc"
            shim.write_text(f'#!/bin/sh\necho "$@" >> {log}\nexit 1\n')
            shim.chmod(0o755)
            monkeypatch.setenv("REPRO_CC", str(shim))
        program, outputs = build_fills()
        expected = _oracle(program, outputs)
        with config_override(
            **TINY_TILES,
            parallel_num_threads=2,
            codegen_threads=2,
            codegen_cache_dir=cache_dir,
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            results = [engine.execute(program) for _ in range(2)]
        steps = [s for s in engine.last_plan.tiling.steps if isinstance(s, TiledMapStep)]
        assert len(steps) == 2 and all(len(step.spans) > 1 for step in steps)
        for result in results:
            stats = result.stats
            assert stats.native_fallbacks == stats.native_kernel_launches == 0
            assert stats.native_compiles == stats.native_disk_hits == 0
            assert stats.native_memory_hits == stats.native_mt_launches == 0
            # One assignment per step, not one per tile.
            assert stats.tiles_executed == stats.kernel_launches == 2
            for view, want in zip(outputs, expected):
                assert np.array_equal(result.value(view), want)
        assert not log.exists(), f"a compiler was spawned: {log.read_text()}"
        assert not os.path.exists(cache_dir) or not os.listdir(cache_dir)

    def test_a_fill_or_copy_of_a_zero_size_or_reversed_view(self):
        """The fill and the copy themselves, on the views a plan never tiles:
        nothing to write, or every other element written backwards."""
        from repro.bytecode.instruction import Instruction
        from repro.bytecode.opcodes import OpCode
        from repro.codegen.loopir import lower_kernel
        from repro.runtime.memory import MemoryManager
        from repro.runtime.native import NumPyAssign

        builder = ProgramBuilder()
        base = builder.new_base(10)
        source = builder.new_base(10)
        for view, written in (
            (View(base, 0, (0, 3), (3, 1)), []),
            (View(base, 9, (5,), (-2,)), [1, 3, 5, 7, 9]),
        ):
            copied = View(source, 0, view.shape, tuple(abs(s) for s in view.strides))
            for operand in (-0.0, copied):
                nest = lower_kernel([Instruction(OpCode.BH_IDENTITY, (view, operand))])
                assert NumPyAssign.covers(nest)
                memory = MemoryManager()
                memory.allocate(base)[:] = 1.0
                memory.allocate(source)[:] = -0.0
                NumPyAssign(nest)(memory, [view] if isinstance(operand, float) else [view, copied])
                storage = memory.allocate(base)
                assert [i for i in range(10) if np.signbit(storage[i])] == written
                assert (storage[[i for i in range(10) if i not in written]] == 1.0).all()
