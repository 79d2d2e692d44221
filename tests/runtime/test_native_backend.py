"""Unit tests for the native codegen backend.

The differential harness establishes *parity*; these tests pin the
backend's mechanics: fallback behaviour with codegen off or no compiler,
compile/cache counter windows, plan-time pre-compilation, the single-pass
whole-step launch, and instruction-local slot elision.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.view import View
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.codegen.cache import get_compiled_kernel
from repro.codegen.compiler import CodegenError, CompiledRuntime
from repro.codegen.emit_c import emit_runtime_source
from repro.runtime.backend import get_backend
from repro.runtime.engine import ExecutionEngine
from repro.runtime.native import NativeBackend
from repro.runtime.tiling import TiledMapStep, TiledReduceStep
from repro.utils.config import config_override

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


def _oracle(program, views):
    result = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    return [result.value(view) for view in views]


def test_registered_in_backend_registry():
    backend = get_backend("native")
    assert isinstance(backend, NativeBackend)
    assert backend.name == "native"


class TestFallbacks:
    def test_codegen_disabled_runs_interpreted_templates(self, cache_dir):
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(
            **TINY_TILES, codegen_enabled=False, codegen_cache_dir=cache_dir
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = engine.execute(program)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])
        assert result.stats.native_kernel_launches == 0
        assert result.stats.native_compiles == 0
        # With codegen off the backend is the parallel backend: it still
        # tiles, it just never resolves a compiled launchable.
        assert result.stats.tiles_executed > 0

    def test_no_compiler_degrades_to_fallbacks(self, cache_dir, monkeypatch):
        # A host without cc: lowering succeeds but compilation raises
        # CompilerUnavailable, which the backend caches as "no native form".
        monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
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
            result = engine.execute(program)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])
        assert result.stats.native_compiles == 0
        assert result.stats.native_fallbacks > 0
        assert all(reason in message for message in result.stats.native_fallback_reasons)
        assert engine.backend.native_runtime in (None, "serial")

    def test_reductions_disabled_fall_back_to_tiled_paths(self, cache_dir):
        # With compiled reductions off, a tiled reduction runs on the
        # interpreted parallel paths (counted as a fallback); a serial
        # generator step runs the interpreter.  Everything still matches
        # the oracle.
        builder = ProgramBuilder()
        matrix = builder.new_matrix(32, 16)
        out = builder.new_vector(32)
        builder.random(matrix, seed=7)
        builder.add_reduce(out, matrix, axis=1)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (out,))
        with config_override(
            **TINY_TILES,
            codegen_cache_dir=cache_dir,
            codegen_reductions_enabled=False,
        ):
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert np.allclose(result.value(out), expected[0])
        assert result.stats.native_compiles == 0
        assert result.stats.native_reductions_compiled == 0
        assert result.stats.native_reduction_fallbacks >= 1


class TestFallbackReasons:
    """Every step that leaves the compiled path says why, per flush and
    cumulatively; ``cache_stats()`` stays all-numeric."""

    @staticmethod
    def _accounted(stats):
        return stats.native_fallbacks + stats.native_reduction_fallbacks == sum(
            stats.native_fallback_reasons.values()
        )

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
        # monte_carlo_pi sums a bool mask: that reduction lowers now.
        assert estimate.native_reduction_fallbacks == 0
        assert estimate.native_reductions_compiled == 1
        assert estimate.native_fallback_reasons == {}
        assert cumulative == {"unsupported op-code BH_LOG": 2}
        assert all(isinstance(value, (int, float)) for value in cache.values())
        assert self._accounted(session.total_stats())

    @requires_compiler
    def test_bool_reductions_other_than_add_keep_their_refusal(self, cache_dir):
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
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert result.stats.native_reduction_fallbacks == 1
        assert result.stats.native_fallback_reasons == {
            "bool reductions have NumPy-specific semantics": 1
        }
        assert np.array_equal(result.value(any_inside), expected[0])

    def test_switches_and_a_missing_compiler_are_reasons_too(self, cache_dir, monkeypatch):
        program, _, _ = build_chain()
        with config_override(
            **TINY_TILES, codegen_enabled=False, codegen_cache_dir=cache_dir
        ):
            disabled = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert set(disabled.stats.native_fallback_reasons) == {"codegen disabled"}
        assert self._accounted(disabled.stats)
        monkeypatch.setattr("repro.codegen.cache.find_c_compiler", lambda: None)
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            cold = engine.execute(program)
            warm = engine.execute(program)
        # The message is cached beside the failure and counted again.
        (message,) = cold.stats.native_fallback_reasons
        assert "compiler" in message
        assert warm.stats.native_fallback_reasons == cold.stats.native_fallback_reasons
        assert self._accounted(cold.stats) and self._accounted(warm.stats)


@requires_compiler
class TestCompileCounters:
    def test_cold_then_warm_flush_counters(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            cold = engine.execute(program)
            warm = engine.execute(program)
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

    def test_fresh_backend_restores_from_disk(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            first = ExecutionEngine(backend="native", optimize=True)
            cold = first.execute(program)
            clear_memory_cache()
            second = ExecutionEngine(backend="native", optimize=True)
            restored = second.execute(program)
        assert restored.stats.native_compiles == 0
        assert restored.stats.native_disk_hits == cold.stats.native_compiles
        assert np.array_equal(restored.value(a), cold.value(a))

    def test_fresh_backend_same_process_hits_artifact_memo(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            ExecutionEngine(backend="native", optimize=True).execute(program)
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert result.stats.native_compiles == 0
        assert result.stats.native_memory_hits >= 1

    def test_disk_cache_disabled_compiles_in_memory(self, cache_dir, tmp_path):
        import os

        program, a, b = build_chain()
        with config_override(
            **TINY_TILES,
            codegen_cache_dir=cache_dir,
            codegen_disk_cache_enabled=False,
        ):
            result = ExecutionEngine(backend="native", optimize=True).execute(program)
        assert result.stats.native_compiles >= 1
        assert result.stats.native_kernel_launches > 0
        assert not os.path.exists(cache_dir) or not os.listdir(cache_dir)

    def test_direct_execute_without_engine_windows_stats(self, cache_dir):
        # Backend.execute without the engine's prepare_plan stage must
        # still report its own plan-stage compiles.
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            backend = get_backend("native")
            result = backend.execute(program)
        assert result.stats.native_compiles >= 1
        assert result.stats.native_kernel_launches > 0

    def test_cache_stats_reports_all_counters(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(program)
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
            native_result = native.execute(program)
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

    def test_multi_thread_collapses_to_one_mt_launch(self, cache_dir):
        """With threads>1, a multi-tile map step is ONE repro_kernel_mt call.

        The thread split happens inside the compiled artifact's worker
        pool; Python never slices tiles or marshals per-tile arguments.
        On hosts whose toolchain supports neither pthreads nor OpenMP the
        artifact is serial-mode and the inherited per-tile path runs — the
        counter assert is gated on the probed mode.
        """
        from repro.codegen.compiler import select_mt_mode

        program, a, b = build_chain()
        with config_override(
            **TINY_TILES,
            parallel_num_threads=2,
            codegen_threads=2,
            codegen_cache_dir=cache_dir,
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            result = native.execute(program)
        step = next(
            s for s in native.last_plan.tiling.steps if isinstance(s, TiledMapStep)
        )
        assert len(step.spans) > 1  # the decomposition did tile
        assert result.stats.native_kernel_launches == 1  # one resolved launchable
        expected = _oracle(program, (a, b))
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])
        if select_mt_mode() != "serial":
            assert result.stats.tiles_executed == 1
            assert result.stats.native_mt_launches == 1
        else:
            assert result.stats.tiles_executed == len(step.spans)
            assert result.stats.native_mt_launches == 0

    def test_codegen_threads_knob_overrides_parallel_threads(self, cache_dir):
        """codegen_threads>1 fires the in-kernel path even at one worker.

        The knob is the runtime thread count of the artifact's pool — it
        must not depend on how many Python-side workers the tiled backend
        would have used (on a 1-CPU host that resolves to one).
        """
        from repro.codegen.compiler import select_mt_mode

        if select_mt_mode() == "serial":
            pytest.skip("toolchain builds serial-mode artifacts only")
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(
            **TINY_TILES,
            parallel_num_threads=1,
            codegen_threads=4,
            codegen_cache_dir=cache_dir,
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            result = native.execute(program)
        assert result.stats.native_mt_launches >= 1
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
            result = engine.execute(program)
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


@requires_compiler
class TestCompiledReductions:
    """Tiled reductions executing through compiled C kernels."""

    def _run(self, program, cache_dir, **overrides):
        with config_override(
            **{**TINY_TILES, "codegen_cache_dir": cache_dir, **overrides}
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            return engine, engine.execute(program)

    def test_combine_sum_compiles_and_matches(self, cache_dir):
        builder = ProgramBuilder()
        x = builder.new_vector(500)
        s = builder.new_vector(1)
        builder.identity(x, 1.25)
        builder.add(x, x, 0.5)
        builder.add_reduce(s, x, axis=0)
        builder.sync(s)
        program = builder.build()
        expected = _oracle(program, (s,))
        _, result = self._run(program, cache_dir)
        assert result.stats.native_reductions_compiled == 1
        assert result.stats.native_reduction_fallbacks == 0
        assert np.allclose(result.value(s), expected[0], rtol=1e-6, atol=1e-8)

    def test_nd_reduction_all_axes_compile(self, cache_dir):
        for axis in (0, 1):
            builder = ProgramBuilder()
            matrix = builder.new_matrix(24, 12)
            out = builder.new_vector(12 if axis == 0 else 24)
            builder.identity(matrix, 0.75)
            builder.add(matrix, matrix, 2.0)
            builder.add_reduce(out, matrix, axis=axis)
            builder.sync(out)
            program = builder.build()
            expected = _oracle(program, (out,))
            _, result = self._run(program, cache_dir)
            assert result.stats.native_reductions_compiled == 1, f"axis={axis}"
            assert result.stats.native_reduction_fallbacks == 0, f"axis={axis}"
            assert np.allclose(
                result.value(out), expected[0], rtol=1e-6, atol=1e-8
            ), f"axis={axis}"

    def test_maximum_reduce_is_bitwise(self, cache_dir):
        # min/max reductions are order-insensitive: the compiled result
        # must be bit-identical regardless of chunking or thread count.
        builder = ProgramBuilder()
        matrix = builder.new_matrix(16, 32)
        out = builder.new_vector(16)
        builder.random(matrix, seed=3)
        builder.maximum_reduce(out, matrix, axis=1)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (out,))
        _, result = self._run(program, cache_dir, codegen_threads=4)
        assert result.stats.native_reductions_compiled == 1
        assert np.array_equal(result.value(out), expected[0])

    def test_mt_reduction_matches_parallel_combine_order(self, cache_dir):
        """Threaded combine reduction stays within the reduction contract.

        The artifact's per-chunk partials tree-combine in the tiled
        backend's fixed pairwise order; the result must agree with the
        parallel backend (same relaxation the differential suite uses).
        """
        from repro.codegen.compiler import select_mt_mode

        if select_mt_mode() == "serial":
            pytest.skip("toolchain builds serial-mode artifacts only")
        builder = ProgramBuilder()
        x = builder.new_vector(4096)
        s = builder.new_vector(1)
        builder.random(x, seed=11)
        builder.add_reduce(s, x, axis=0)
        builder.sync(s)
        program = builder.build()
        with config_override(
            **TINY_TILES, codegen_cache_dir=cache_dir, codegen_threads=4
        ):
            native = ExecutionEngine(backend="native", optimize=True)
            result = native.execute(program)
        with config_override(**TINY_TILES):
            parallel = ExecutionEngine(backend="parallel", optimize=True)
            reference = parallel.execute(program)
        assert result.stats.native_reductions_compiled == 1
        assert result.stats.native_mt_launches >= 1
        assert np.allclose(
            result.value(s), reference.value(s), rtol=1e-6, atol=1e-8
        )

    @requires_compiler
    @pytest.mark.parametrize("tail", [False, True], ids=["bare", "closing_a_kernel"])
    def test_a_zero_size_reduction_costs_no_compiler_run(self, cache_dir, tail):
        """Geometry is tested before the artifact is resolved, at plan time
        and at launch: no ``cc`` run, no launch-cache entry, a counted reason."""
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
        engine, result = self._run(
            program, cache_dir, parallel_serial_threshold=0, enabled_passes=["fusion"]
        )
        (step,) = [s for s in engine.last_plan.tiling.steps if isinstance(s, TiledReduceStep)]
        assert bool(step.local_slots) == tail
        assert result.stats.native_compiles == 0
        assert engine.backend.cache_stats()["native_cache_size"] == 0
        assert result.stats.native_reductions_compiled == 0
        assert result.stats.native_fallback_reasons == {"zero-size reduction source": 1}
        assert result.value(out).tolist() == [0.0] * 4

    @requires_compiler
    def test_a_kernel_ending_in_the_reduction_is_one_artifact(self, cache_dir):
        """``sum(x * y)``: one map-reduce artifact instead of a map artifact
        plus a reduce artifact, nothing stored, the unfused program's bits."""
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

        results = {}
        for scheduler in ("dag", "consecutive"):
            program, total = build()
            _, result = self._run(
                program, cache_dir + scheduler, fusion_scheduler=scheduler, codegen_threads=4
            )
            results[scheduler] = (result.value(total), result.stats)
        fused, unfused = results["dag"][1], results["consecutive"][1]
        assert (fused.native_compiles, unfused.native_compiles) == (1, 2)
        assert (fused.kernel_launches, unfused.kernel_launches) == (3, 4)
        assert fused.native_reductions_compiled == 1 and fused.native_slots_elided == 1
        assert fused.native_fallbacks == fused.native_reduction_fallbacks == 0
        assert results["dag"][0].tobytes() == results["consecutive"][0].tobytes()

    @pytest.mark.parametrize("combine", [True, False], ids=["rank-1", "axis"])
    def test_add_reduce_over_bool_is_an_exact_count(self, cache_dir, combine):
        """``add.reduce`` over bool accumulates in NumPy's probed ``int64``:
        exact and order-free, so both tiled forms are bitwise."""
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
        _, result = self._run(program, cache_dir, codegen_threads=4)
        assert result.stats.native_reductions_compiled == 1
        assert result.stats.native_reduction_fallbacks == 0
        assert 0 < expected[0].sum() < x.nelem
        assert np.array_equal(result.value(count), expected[0])

    def test_warm_plan_replays_without_reduction_fallbacks(self, cache_dir):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(24, 12)
        out = builder.new_vector(24)
        builder.identity(matrix, 1.5)
        builder.add_reduce(out, matrix, axis=1)
        builder.sync(out)
        program = builder.build()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            cold = engine.execute(program)
            warm = engine.execute(program)
        assert cold.stats.native_reductions_compiled == 1
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.native_compiles == 0
        assert warm.stats.native_reductions_compiled == 1
        assert warm.stats.native_reduction_fallbacks == 0


@requires_compiler
class TestPlanInteraction:
    def test_prepare_plan_precompiles_and_is_idempotent(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = engine.execute(program)
            backend = engine.backend
            plan = engine.last_plan
            # The plan carries its codegen stamp: every kernel form was
            # resolved at plan time, so execution itself compiled nothing
            # beyond what prepare_plan already did.
            assert plan.native_signature is not None
            assert result.stats.native_compiles == backend.native_compiles
            # Re-preparing the same plan under the same signature is a
            # no-op: zero new lookups, zero new compiles.
            misses = backend.native_cache_misses
            compiles = backend.native_compiles
            backend.prepare_plan(plan)
        assert backend.native_cache_misses == misses
        assert backend.native_compiles == compiles

    def test_bare_prepare_plan_attributes_nothing_to_an_unrelated_flush(self, cache_dir):
        """Plan-stage compiles are cumulative at once and reported by the
        first execution of *that plan* — not by whatever this thread
        flushes next."""
        from repro.core.pipeline import default_pipeline

        outcomes = ("native_compiles", "native_disk_hits", "native_memory_hits")
        chain, _, _ = build_chain()
        other = build_distinct_forms(2)[0]
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(chain)
            before = engine.backend.native_compiles
            engine.prime(other, default_pipeline().run(other))  # prepare_plan, no flush
            primed = engine.backend.native_compiles - before
            assert primed >= 1, "priming compiled nothing; the test is vacuous"
            unrelated = engine.execute(build_chain()[0]).stats
            first = engine.execute(other).stats
            second = engine.execute(build_distinct_forms(2)[0]).stats
        assert [getattr(unrelated, name) for name in outcomes] == [0, 0, 0]
        assert first.plan_cache_hits == 1 and first.native_compiles == primed
        assert [getattr(second, name) for name in outcomes] == [0, 0, 0]

    def test_codegen_toggle_misses_the_plan_cache(self, cache_dir):
        # codegen_enabled is in the config signature: flipping it must
        # compile a fresh plan, not replay one prepared under the other
        # setting.
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            engine = ExecutionEngine(backend="native", optimize=True)
            engine.execute(program)
            with config_override(codegen_enabled=False):
                toggled = engine.execute(program)
        assert toggled.stats.plan_cache_hits == 0
        assert toggled.stats.native_kernel_launches == 0

    def test_failed_execution_resets_the_stats_window(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            backend = get_backend("native")
            with pytest.raises(Exception):
                backend.execute_plan(object(), program)  # malformed plan
            # There is no window to reset any more: the next run's record
            # is exactly what that run did, which is all the backend did.
            result = backend.execute(program)
            cumulative = backend.cache_stats()
        assert result.stats.native_kernel_launches > 0
        for counter in ("native_kernel_launches", "native_compiles", "native_fallbacks"):
            assert getattr(result.stats, counter) == cumulative[counter], counter


def _process_threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    pytest.skip("no Threads: line in /proc/self/status")


def _force_runtime_mode(monkeypatch, mode):
    """Make the backend resolve the ``mode`` runtime whatever the host prefers."""

    def forced(cache_dir=None, use_disk=True):
        if mode == "serial":
            return None, "serial", "serial"
        try:
            runtime, outcome = get_compiled_kernel(
                emit_runtime_source(mode),
                cache_dir=cache_dir,
                use_disk=use_disk,
                mt_mode=mode,
                loader=CompiledRuntime,
            )
        except CodegenError:
            pytest.skip(f"toolchain cannot build the {mode} runtime")
        return runtime, mode, outcome

    monkeypatch.setattr("repro.runtime.native.resolve_runtime", forced)


#: Runs one threaded native flush against ``cache_dir`` in a cold process
#: and prints what the backend counted.
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
    stats = engine.execute(program).stats
print(json.dumps({{
    "compiles": stats.native_compiles,
    "disk_hits": stats.native_disk_hits,
    "fallbacks": stats.native_fallbacks,
    "mt_launches": stats.native_mt_launches,
    "runtime": engine.backend.native_runtime,
}}))
"""

_TESTS_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _flush_in_subprocess(cache_dir, **env):
    script = _FLUSH_SCRIPT.format(
        src=os.path.join(os.path.dirname(_TESTS_ROOT), "src"),
        tests=_TESTS_ROOT,
        cache_dir=cache_dir,
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
class TestSharedRuntime:
    """One kernel runtime artifact per process: pool, probe and ABI."""

    def test_warm_cache_directory_serves_a_process_without_a_compiler(
        self, cache_dir, tmp_path
    ):
        """A second process over a populated cache forks no ``cc`` at all —
        no kernel compile, no runtime compile, no toolchain probe — and still
        launches threaded."""
        cold = _flush_in_subprocess(cache_dir)
        if cold["runtime"] == "serial":
            pytest.skip("toolchain builds no kernel runtime")
        assert cold["runtime"] == "compiled" and cold["compiles"] >= 1
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
        assert warm["runtime"] == "disk"

    def test_pool_threads_are_bounded_per_process_not_per_kernel(self, cache_dir):
        """K kernel forms launched at n threads hold n - 1 pool threads."""
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
            result = engine.execute(program)
            if engine.backend.native_runtime == "serial":
                pytest.skip("toolchain builds no kernel runtime")
        assert result.stats.native_compiles >= 8
        assert result.stats.native_mt_launches >= 8
        assert _process_threads() - before <= 3
        for view, want in zip(outputs, expected):
            assert np.array_equal(result.value(view), want)

    def test_kernel_artifacts_are_the_same_under_every_threading_mode(
        self, tmp_path, monkeypatch
    ):
        """Same kernel digests and sources whichever runtime launches them;
        only the runtime artifact differs, and a kernel library links
        against no threading runtime."""
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        kernels = {}
        for mode in ("pthread", "openmp", "serial"):
            clear_memory_cache()
            _force_runtime_mode(monkeypatch, mode)
            directory = tmp_path / mode
            with config_override(
                **TINY_TILES, codegen_cache_dir=str(directory), codegen_threads=3
            ):
                engine = ExecutionEngine(backend="native", optimize=True)
                result = engine.execute(program)
            assert result.stats.native_fallbacks == 0
            assert (result.stats.native_mt_launches > 0) == (mode != "serial")
            assert np.array_equal(result.value(a), expected[0])
            assert np.array_equal(result.value(b), expected[1])
            kernels[mode] = {
                name: (directory / name).read_text()
                for name in os.listdir(directory)
                if name.endswith(".c") and "repro_rt_launch" not in (directory / name).read_text()
            }
            assert kernels[mode], "no kernel artifact was written"
            assert len(os.listdir(directory)) == 3 * (len(kernels[mode]) + (mode != "serial"))
        assert kernels["pthread"] == kernels["openmp"] == kernels["serial"]
        for name, text in kernels["pthread"].items():
            assert "pthread" not in text and "omp" not in text
            if shutil.which("nm"):
                undefined = subprocess.run(
                    ["nm", "-D", "--undefined-only", str(tmp_path / "pthread" / name[:-2]) + ".so"],
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
                assert "pthread_" not in undefined and "GOMP" not in undefined

    def test_without_a_runtime_threaded_launches_keep_the_per_tile_path(
        self, cache_dir, monkeypatch
    ):
        _force_runtime_mode(monkeypatch, "serial")
        program, a, b = build_chain()
        expected = _oracle(program, (a, b))
        with config_override(
            **TINY_TILES,
            parallel_num_threads=2,
            codegen_threads=4,
            codegen_cache_dir=cache_dir,
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            result = engine.execute(program)
        step = next(
            s for s in engine.last_plan.tiling.steps if isinstance(s, TiledMapStep)
        )
        assert engine.backend.native_runtime == "serial"
        assert result.stats.native_mt_launches == 0
        assert result.stats.native_fallbacks == 0
        assert result.stats.tiles_executed == len(step.spans)
        assert np.array_equal(result.value(a), expected[0])
        assert np.array_equal(result.value(b), expected[1])

    def test_runtime_outcome_is_reported_and_never_counted_as_a_kernel(self, cache_dir):
        program, a, b = build_chain()
        with config_override(**TINY_TILES, codegen_cache_dir=cache_dir):
            first = ExecutionEngine(backend="native", optimize=True)
            cold = first.execute(program)
            clear_memory_cache()
            second = ExecutionEngine(backend="native", optimize=True)
            disk = second.execute(program)
            third = ExecutionEngine(backend="native", optimize=True)
            third.execute(program)
        if first.backend.native_runtime == "serial":
            pytest.skip("toolchain builds no kernel runtime")
        assert first.backend.native_runtime == "compiled"
        assert second.backend.native_runtime == "disk"
        assert third.backend.native_runtime == "memory"
        # The runtime is in neither count: a disk-warm engine restores
        # exactly the kernels the cold one compiled.
        assert disk.stats.native_compiles == 0
        assert disk.stats.native_disk_hits == cold.stats.native_compiles

    def test_distinct_forms_of_one_plan_resolve_concurrently(self, cache_dir, monkeypatch):
        """prepare_plan hands a plan's distinct kernel forms to the tile
        pool: two resolves must be inside the artifact cache at once."""
        import repro.runtime.native as native_module

        barrier = threading.Barrier(2, timeout=30)
        resolving_threads = set()
        real = native_module.get_compiled_kernel

        def rendezvous(source, **kwargs):
            resolving_threads.add(threading.current_thread().name)
            barrier.wait()  # BrokenBarrierError here = the resolves were serial
            return real(source, **kwargs)

        program, outputs = build_distinct_forms(2)
        expected = _oracle(program, outputs)
        with config_override(
            **TINY_TILES, parallel_num_threads=2, codegen_cache_dir=cache_dir
        ):
            engine = ExecutionEngine(backend="native", optimize=True)
            monkeypatch.setattr(native_module, "get_compiled_kernel", rendezvous)
            result = engine.execute(program)
        assert result.stats.native_compiles == 2
        assert result.stats.native_fallbacks == 0
        assert any(name.startswith("repro-tile") for name in resolving_threads)
        for view, want in zip(outputs, expected):
            assert np.array_equal(result.value(view), want)


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
        assert engine.backend.native_runtime is None
        assert not log.exists(), f"a compiler was spawned: {log.read_text()}"
        assert not os.path.exists(cache_dir) or not os.listdir(cache_dir)

    def test_a_fill_of_a_zero_size_or_reversed_view(self):
        """The fill itself, on the views a plan never tiles: nothing to write,
        or every other element written backwards."""
        from repro.bytecode.instruction import Instruction
        from repro.bytecode.opcodes import OpCode
        from repro.codegen.loopir import lower_kernel
        from repro.runtime.memory import MemoryManager
        from repro.runtime.native import NativeFill

        builder = ProgramBuilder()
        base = builder.new_base(10)
        for view, written in (
            (View(base, 0, (0, 3), (3, 1)), []),
            (View(base, 9, (5,), (-2,)), [1, 3, 5, 7, 9]),
        ):
            fill = NativeFill(lower_kernel([Instruction(OpCode.BH_IDENTITY, (view, -0.0))]))
            memory = MemoryManager()
            memory.allocate(base)[:] = 1.0
            fill(memory, [view])
            storage = memory.allocate(base)
            assert [i for i in range(10) if np.signbit(storage[i])] == written
            assert (storage[[i for i in range(10) if i not in written]] == 1.0).all()
