"""Tests for the execution engine, program fingerprinting and the plan cache."""

import numpy as np
import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.pipeline import default_pipeline
from repro.runtime.engine import ExecutionEngine
from repro.runtime.kernel import Kernel, kernel_structural_key, partition_into_kernels
from repro.runtime.parallel import ParallelBackend
from repro.runtime.plan import (
    ExecutionPlan,
    PlanCache,
    canonical_program_key,
    config_signature,
    program_fingerprint,
)
from repro.utils.config import config_override, get_config
from repro.utils.errors import ExecutionError


def chain_program(size=16, adds=3, constant=1):
    """A fresh identity+add chain; every call allocates new base arrays."""
    builder = ProgramBuilder()
    vector = builder.new_vector(size)
    builder.identity(vector, 0)
    for _ in range(adds):
        builder.add(vector, vector, constant)
    builder.sync(vector)
    return builder.build(), vector


class TestProgramFingerprint:
    def test_stable_across_base_identities(self):
        first, _ = chain_program()
        second, _ = chain_program()
        assert first.bases()[0] is not second.bases()[0]
        assert program_fingerprint(first) == program_fingerprint(second)

    def test_stable_across_repeated_calls(self):
        program, _ = chain_program()
        assert program_fingerprint(program) == program_fingerprint(program)

    def test_sensitive_to_opcode(self):
        add, _ = chain_program(adds=1)
        builder = ProgramBuilder()
        vector = builder.new_vector(16)
        builder.identity(vector, 0)
        builder.multiply(vector, vector, 1)
        builder.sync(vector)
        assert program_fingerprint(add) != program_fingerprint(builder.build())

    def test_sensitive_to_constants(self):
        ones, _ = chain_program(constant=1)
        twos, _ = chain_program(constant=2)
        assert program_fingerprint(ones) != program_fingerprint(twos)

    def test_sensitive_to_shape(self):
        small, _ = chain_program(size=16)
        large, _ = chain_program(size=32)
        assert program_fingerprint(small) != program_fingerprint(large)

    def test_sensitive_to_base_sharing_structure(self):
        # x + x  versus  x + y: same opcodes and geometry, different aliasing.
        x, y, z = BaseArray(8), BaseArray(8), BaseArray(8)
        shared = Program(
            [Instruction(OpCode.BH_ADD, (View.full(z), View.full(x), View.full(x)))]
        )
        distinct = Program(
            [Instruction(OpCode.BH_ADD, (View.full(z), View.full(x), View.full(y)))]
        )
        assert program_fingerprint(shared) != program_fingerprint(distinct)

    def test_fingerprints_fused_payloads(self):
        program, _ = chain_program(adds=4)
        kernel = [k for k in partition_into_kernels(program) if isinstance(k, Kernel)][0]
        fused = Program([kernel.as_instruction(), program[-1]])
        assert program_fingerprint(fused) != program_fingerprint(program)
        assert program_fingerprint(fused) == program_fingerprint(fused)

    def test_canonical_key_returns_bases_in_first_use_order(self):
        program, _ = chain_program()
        _, bases = canonical_program_key(program)
        assert bases == program.bases()


class TestConfigSignature:
    def test_changes_with_optimization_settings(self):
        baseline = config_signature(get_config())
        with config_override(parallel_tile_elements=1024):
            assert config_signature(get_config()) != baseline
        with config_override(enabled_passes=["constant_merge"]):
            assert config_signature(get_config()) != baseline
        assert config_signature(get_config()) == baseline

    def test_ignores_backend_selection(self):
        baseline = config_signature(get_config())
        with config_override(default_backend="parallel"):
            assert config_signature(get_config()) == baseline


class TestPlanCache:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(max_plans=4)
        assert cache.get("missing") is None
        plan = _plan_for(*chain_program())
        cache.put("key", plan)
        assert cache.get("key") is plan
        assert cache.hits == 1
        assert cache.misses == 1
        assert plan.hits == 1

    def test_lru_eviction_bound(self):
        cache = PlanCache(max_plans=2)
        plans = {name: _plan_for(*chain_program()) for name in "abc"}
        for name, plan in plans.items():
            cache.put(name, plan)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None  # oldest entry was evicted
        assert cache.get("b") is plans["b"]
        assert cache.get("c") is plans["c"]

    def test_get_refreshes_recency(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", _plan_for(*chain_program()))
        cache.put("b", _plan_for(*chain_program()))
        cache.get("a")
        cache.put("c", _plan_for(*chain_program()))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)

    def test_stats_shape(self):
        cache = PlanCache(max_plans=3)
        stats = cache.stats()
        assert stats["plan_cache_capacity"] == 3
        assert stats["plan_cache_size"] == 0


def _plan_for(program, vector):
    _, bases = canonical_program_key(program)
    return ExecutionPlan(
        fingerprint=program_fingerprint(program),
        backend_name="interpreter",
        source_bases=bases,
        optimized=program,
    )


class TestExecutionPlanBinding:
    def test_bind_onto_fresh_bases_executes_correctly(self):
        from repro.runtime.interpreter import NumPyInterpreter

        first, _ = chain_program(adds=3)
        plan = _plan_for(first, None)
        second, out = chain_program(adds=3)
        _, bases = canonical_program_key(second)
        bound = plan.bind(bases)
        result = NumPyInterpreter().execute(bound)
        assert np.all(result.value(out) == 3.0)

    def test_bind_is_identity_for_same_bases(self):
        program, _ = chain_program()
        plan = _plan_for(program, None)
        _, bases = canonical_program_key(program)
        bound = plan.bind(bases)
        assert bound.instructions == program.instructions

    def test_bind_allocates_fresh_scratch_bases(self):
        from repro.runtime.interpreter import NumPyInterpreter

        source, out = chain_program(adds=1)
        _, bases = canonical_program_key(source)
        # Hand-build an "optimized" program with an optimizer-introduced
        # scratch base, as the optimal-chain power expansion produces.
        scratch = BaseArray(16)
        optimized = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (View.full(scratch), 2)),
                Instruction(OpCode.BH_ADD, (out, View.full(scratch), View.full(scratch))),
                Instruction(OpCode.BH_SYNC, (out,)),
                Instruction(OpCode.BH_FREE, (View.full(scratch),)),
            ]
        )
        plan = ExecutionPlan(
            fingerprint=program_fingerprint(source),
            backend_name="interpreter",
            source_bases=bases,
            optimized=optimized,
        )
        target, target_out = chain_program(adds=1)
        _, target_bases = canonical_program_key(target)
        bound = plan.bind(target_bases)
        bound_scratch = [b for b in bound.bases() if b not in target_bases]
        assert len(bound_scratch) == 1
        assert bound_scratch[0] is not scratch
        result = NumPyInterpreter().execute(bound)
        assert np.all(result.value(target_out) == 4.0)

    def test_bind_rejects_mismatched_base_count(self):
        program, _ = chain_program()
        plan = _plan_for(program, None)
        with pytest.raises(ExecutionError):
            plan.bind(())


class TestExecutionEngine:
    def test_repeated_programs_hit_the_plan_cache(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        for expected_hit in (False, True, True):
            program, out = chain_program(adds=3)
            result = engine.execute(program)
            assert np.all(result.value(out) == 3.0)
            assert result.stats.plan_cache_hits == (1 if expected_hit else 0)
            assert result.stats.plan_cache_misses == (0 if expected_hit else 1)
        stats = engine.cache_stats()
        assert stats["plan_cache_hits"] == 2
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_size"] == 1

    def test_hits_record_plan_time_and_replayed_report(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program(adds=3)[0])
        assert engine.last_report is not None and not engine.last_report.cached
        result = engine.execute(chain_program(adds=3)[0])
        assert result.stats.plan_time_seconds >= 0.0
        assert engine.last_report.cached
        assert engine.last_report.total_rewrites > 0
        assert engine.last_report.fingerprint == engine.last_plan.fingerprint

    def test_different_programs_get_different_plans(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program(adds=2)[0])
        engine.execute(chain_program(adds=5)[0])
        stats = engine.cache_stats()
        assert stats["plan_cache_size"] == 2
        assert stats["plan_cache_hits"] == 0

    def test_config_change_invalidates_cached_plans(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program()[0])
        with config_override(enabled_passes=["constant_merge"]):
            result = engine.execute(chain_program()[0])
            assert result.stats.plan_cache_misses == 1
        # Back to the original configuration: the original plan still hits.
        result = engine.execute(chain_program()[0])
        assert result.stats.plan_cache_hits == 1

    def test_plan_carries_the_fusion_schedule(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program(adds=3)[0])
        plan = engine.last_plan
        assert plan.fusion_schedule is not None
        assert plan.fusion_schedule.scheduler == "dag"
        assert plan.fusion_schedule.kernels_after < plan.fusion_schedule.kernels_before
        # Replays hand back the same structural schedule.
        engine.execute(chain_program(adds=3)[0])
        assert engine.last_plan.fusion_schedule is plan.fusion_schedule

    def test_fusion_scheduler_change_invalidates_cached_plans(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program()[0])
        with config_override(fusion_scheduler="consecutive"):
            result = engine.execute(chain_program()[0])
            assert result.stats.plan_cache_misses == 1
            assert engine.last_plan.fusion_schedule.scheduler == "consecutive"
        # Back to the original configuration: the original plan still hits.
        result = engine.execute(chain_program()[0])
        assert result.stats.plan_cache_hits == 1

    def test_unoptimized_execution_bypasses_planning(self):
        engine = ExecutionEngine(backend="interpreter", optimize=False)
        program, out = chain_program()
        result = engine.execute(program)
        assert np.all(result.value(out) == 3.0)
        assert result.stats.plan_cache_misses == 0
        assert engine.last_report is None

    def test_prime_seeds_the_cache_without_a_miss(self):
        pipeline = default_pipeline()
        engine = ExecutionEngine(backend="interpreter", optimize=True, pipeline=pipeline)
        program, out = chain_program(adds=3)
        engine.prime(program, pipeline.run(program))
        # A structurally identical program hits immediately.
        second, second_out = chain_program(adds=3)
        result = engine.execute(second)
        assert np.all(result.value(second_out) == 3.0)
        assert result.stats.plan_cache_hits == 1
        assert engine.cache_stats()["plan_cache_misses"] == 0

    def test_backend_instance_is_kept_across_executions(self):
        engine = ExecutionEngine(backend="parallel", optimize=True)
        first = engine.backend
        engine.execute(chain_program()[0])
        assert engine.backend is first

    def test_set_backend_switches_and_keeps_plans_separate(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program()[0])
        engine.set_backend("parallel")
        assert isinstance(engine.backend, ParallelBackend)
        result = engine.execute(chain_program()[0])
        assert result.stats.plan_cache_misses == 1  # plans are keyed per backend


class TestSessionPlanReuse:
    def test_repeated_flushes_reuse_plans_with_fresh_temporaries(self):
        from repro import frontend as bh
        from repro.frontend.session import reset_session

        session = reset_session(backend="interpreter", optimize=True)
        checks = []
        for _ in range(6):
            a = bh.ones(32)
            b = (a + 1.0) * 2.0
            checks.append(float(b.to_numpy().sum()))
        assert all(value == pytest.approx(128.0) for value in checks)
        stats = session.cache_stats()
        assert stats["plan_cache_hits"] >= 3
        assert session.total_stats().plan_cache_hits >= 3
        assert session.last_report is not None and session.last_report.cached

    def test_frontend_cache_stats_helper(self):
        from repro import frontend as bh

        bh.ones(8).to_numpy()
        stats = bh.cache_stats()
        assert "plan_cache_hits" in stats and "plan_cache_misses" in stats


class TestKernelStructuralCache:
    def test_equivalent_kernels_share_compiled_entries(self):
        backend = ParallelBackend()
        first, out_a = chain_program(adds=4)
        second, out_b = chain_program(adds=4)
        with config_override(
            parallel_serial_threshold=4, parallel_num_threads=1, parallel_tile_elements=4
        ):
            result_a = backend.execute(first)
            after_first = backend.cache_stats()
            result_b = backend.execute(second)
        after_second = backend.cache_stats()
        assert np.all(result_a.value(out_a) == result_b.value(out_b))
        # The second program compiled nothing new: different temporaries,
        # same canonical structural form.
        assert after_first["tile_template_misses"] >= 1
        assert after_second["tile_template_misses"] == after_first["tile_template_misses"]
        assert after_second["tile_template_hits"] >= after_first["tile_template_hits"] + 1
        assert after_second["tile_template_size"] == 1

    def test_structural_key_distinguishes_aliasing(self):
        x, y, z = BaseArray(8), BaseArray(8), BaseArray(8)
        shared = [Instruction(OpCode.BH_ADD, (View.full(z), View.full(x), View.full(x)))]
        distinct = [Instruction(OpCode.BH_ADD, (View.full(z), View.full(x), View.full(y)))]
        assert kernel_structural_key(shared) != kernel_structural_key(distinct)

    def test_structural_key_tolerates_base_identity(self):
        first, _ = chain_program(adds=2)
        second, _ = chain_program(adds=2)
        kernels_a = [k for k in partition_into_kernels(first) if isinstance(k, Kernel)]
        kernels_b = [k for k in partition_into_kernels(second) if isinstance(k, Kernel)]
        assert kernel_structural_key(kernels_a[0].instructions) == kernel_structural_key(
            kernels_b[0].instructions
        )

    def test_custom_pipeline_plans_share_when_signature_matches(self):
        pipeline = default_pipeline(enabled_passes=["constant_merge"])
        engine = ExecutionEngine(backend="interpreter", optimize=True, pipeline=pipeline)
        engine.execute(chain_program()[0])
        result = engine.execute(chain_program()[0])
        assert result.stats.plan_cache_hits == 1


class TestPlanCacheInvalidationEdgeCases:
    """Edge cases where a stale plan replay would silently mis-execute."""

    def test_engine_lru_evicts_in_recency_order(self):
        engine = ExecutionEngine(
            backend="interpreter", optimize=True, plan_cache_size=2
        )
        program_a = chain_program(adds=1)[0]
        program_b = chain_program(adds=2)[0]
        program_c = chain_program(adds=3)[0]
        engine.execute(program_a)  # miss: cache [a]
        engine.execute(program_b)  # miss: cache [a, b]
        engine.execute(program_a)  # hit: refresh a -> cache [b, a]
        engine.execute(program_c)  # miss: evicts b (least recent), not a
        assert engine.plan_cache.stats()["plan_cache_evictions"] == 1
        result_a = engine.execute(chain_program(adds=1)[0])
        assert result_a.stats.plan_cache_hits == 1  # a survived
        result_b = engine.execute(chain_program(adds=2)[0])
        assert result_b.stats.plan_cache_misses == 1  # b was evicted

    def test_config_signature_change_mid_session_misses(self):
        from repro.utils.config import get_config, set_config

        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(chain_program()[0])
        baseline = get_config()
        # Mutate the *global* configuration mid-session (no context
        # manager): cached plans must stop matching immediately.
        set_config(baseline.replace(parallel_tile_elements=1024))
        try:
            changed = engine.execute(chain_program()[0])
            assert changed.stats.plan_cache_misses == 1
            assert changed.stats.plan_cache_hits == 0
            # Restoring the configuration restores the original plan.
            set_config(baseline)
            restored = engine.execute(chain_program()[0])
            assert restored.stats.plan_cache_hits == 1
        finally:
            set_config(baseline)

    def test_parallel_tiling_config_is_part_of_the_signature(self):
        baseline = config_signature(get_config())
        with config_override(parallel_tile_elements=1024):
            assert config_signature(get_config()) != baseline
        with config_override(parallel_num_threads=2):
            assert config_signature(get_config()) != baseline
        with config_override(parallel_serial_threshold=1):
            assert config_signature(get_config()) != baseline

    def test_rebinding_onto_different_shape_misses(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        small = engine.execute(chain_program(size=16)[0])
        assert small.stats.plan_cache_misses == 1
        large_program, large_vector = chain_program(size=32)
        large = engine.execute(large_program)
        # Same opcodes and constants, different geometry: must be a miss
        # (binding the 16-element plan would write out of bounds).
        assert large.stats.plan_cache_misses == 1
        assert large.stats.plan_cache_hits == 0
        np.testing.assert_array_equal(
            large.value(large_vector), np.full(32, 3.0)
        )

    def test_rebinding_onto_different_dtype_misses(self):
        from repro.bytecode.dtypes import float32, float64

        def typed_program(dtype):
            builder = ProgramBuilder(dtype)
            vector = builder.new_vector(16)
            builder.identity(vector, 0)
            builder.add(vector, vector, 1)
            builder.sync(vector)
            return builder.build(), vector

        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(typed_program(float64)[0])
        program32, vector32 = typed_program(float32)
        result = engine.execute(program32)
        assert result.stats.plan_cache_misses == 1
        assert result.stats.plan_cache_hits == 0
        assert result.value(vector32).dtype == np.float32

    def test_bind_refuses_structurally_foreign_bases(self):
        # Safety net below the cache: even if a caller hands bind() the
        # wrong enumeration size, it must raise instead of mis-executing.
        program, vector = chain_program()
        plan = _plan_for(program, vector)
        with pytest.raises(ExecutionError):
            plan.bind(plan.source_bases + (BaseArray(16),))
