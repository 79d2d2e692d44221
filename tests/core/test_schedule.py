"""Tests for the dependency-graph fusion scheduler (repro.core.schedule)."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.fusion import FusionPass
from repro.core.schedule import (
    FusionSchedule,
    compute_schedule,
    dependency_graph,
    fusion_schedule_of,
)
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.plan import config_signature
from repro.utils.config import config_override, get_config
from repro.utils.errors import ExecutionError


def interleaved_program(length=16):
    """Element-wise chain with a reduction interleaved mid-chain."""
    builder = ProgramBuilder()
    v = builder.new_vector(length)
    w = builder.new_vector(length)
    total = builder.new_vector(1)
    builder.identity(v, 1)             # 0: e
    builder.add_reduce(total, v, 0)    # 1: reduction (reads v)
    builder.add(w, v, 2)               # 2: e (depends on 0 only)
    builder.multiply(w, w, 3)          # 3: e
    builder.sync(w)                    # 4
    builder.sync(total)                # 5
    return builder.build(), (v, w, total)


class TestDependencyGraph:
    def test_flow_anti_and_output_edges(self):
        builder = ProgramBuilder()
        a = builder.new_vector(8)
        b = builder.new_vector(8)
        builder.identity(a, 1)        # 0 writes a
        builder.add(b, a, 1)          # 1 reads a (flow on 0), writes b
        builder.identity(a, 2)        # 2 writes a (anti on 1, output on 0)
        program = builder.build()
        successors, predecessors = dependency_graph(program)
        assert 1 in successors[0]          # read-after-write
        assert 2 in successors[1]          # write-after-read
        assert 2 in successors[0]          # write-after-write
        assert predecessors[0] == 0
        assert predecessors[2] == 2

    def test_disjoint_windows_do_not_conflict(self):
        builder = ProgramBuilder()
        base = builder.new_base(16)
        lo = View(base, 0, (8,), (1,))
        hi = View(base, 8, (8,), (1,))
        builder.emit(OpCode.BH_IDENTITY, lo, 1.0)   # 0 writes lo
        builder.emit(OpCode.BH_IDENTITY, hi, 2.0)   # 1 writes hi (disjoint)
        successors, _ = dependency_graph(builder.build())
        assert 1 not in successors[0]

    def test_free_is_a_barrier_for_its_base(self):
        builder = ProgramBuilder()
        a = builder.new_vector(8)
        builder.identity(a, 1)    # 0
        builder.free(a)           # 1
        program = builder.build()
        successors, _ = dependency_graph(program)
        assert 1 in successors[0]

    def test_sync_counts_as_a_read(self):
        builder = ProgramBuilder()
        a = builder.new_vector(8)
        builder.identity(a, 1)    # 0 writes a
        builder.sync(a)           # 1 observes a
        builder.identity(a, 2)    # 2 overwrites a: must stay after the sync
        successors, _ = dependency_graph(builder.build())
        assert 1 in successors[0]
        assert 2 in successors[1]


class TestDagScheduling:
    def test_clusters_across_an_interleaved_reduction(self):
        program, _ = interleaved_program()
        schedule = compute_schedule(program, get_config())
        assert schedule.scheduler == "dag"
        # 0, 2, 3 fuse into one kernel; the reduction executes after it
        # (v is not freed, so it cannot be the kernel's tail).
        assert schedule.items == ((0, 2, 3), (1,), (4,), (5,))
        assert (schedule.kernels_before, schedule.kernels_after) == (4, 2)
        assert schedule.bytecodes_reordered == 1

    def test_consecutive_mode_does_not_reorder(self):
        program, _ = interleaved_program()
        with config_override(fusion_scheduler="consecutive"):
            schedule = compute_schedule(program, get_config())
        assert schedule.is_identity_order
        assert schedule.bytecodes_reordered == 0
        # The interleaved reduction cuts the chain: 0 stays a singleton.
        assert schedule.items == ((0,), (1,), (2, 3), (4,), (5,))
        assert (schedule.kernels_before, schedule.kernels_after) == (4, 3)

    def test_max_kernel_size_bounds_clusters(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 1)
        for _ in range(7):
            builder.add(v, v, 1)
        program = builder.build()
        schedule = compute_schedule(program, get_config(), max_kernel_size=3)
        assert all(len(item) <= 3 for item in schedule.items)
        assert schedule.num_clusters == 3  # 8 byte-codes in 3+3+2

    def test_rescheduling_the_materialized_program_is_identity(self):
        program, _ = interleaved_program()
        schedule = compute_schedule(program, get_config())
        fused = schedule.materialize(program)
        again = compute_schedule(fused, get_config())
        assert again.is_identity_order
        assert again.num_clusters == 0

    def test_war_dependency_prevents_illegal_hoist(self):
        """An overwrite of a reduction's input must stay after the reduction."""
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        total = builder.new_vector(1)
        builder.identity(v, 3)            # 0
        builder.add_reduce(total, v, 0)   # 1 reads v
        builder.identity(v, 7)            # 2 overwrites v
        builder.sync(v)
        builder.sync(total)
        program = builder.build()
        schedule = compute_schedule(program, get_config())
        order = schedule.order
        assert order.index(2) > order.index(1)
        # And the executed result matches the original program bitwise.
        reference = NumPyInterpreter().execute(program)
        scheduled = NumPyInterpreter().execute(schedule.materialize(program))
        assert reference.scalar(total) == scheduled.scalar(total)
        assert np.array_equal(reference.value(v), scheduled.value(v))

    def test_min_kernel_size_splits_sub_threshold_clusters(self):
        # The schedule's launch counts must describe exactly what a caller
        # with the same wrapping threshold will emit: a 2-byte-code cluster
        # under min_kernel_size=3 is broken back into singletons.
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 1)
        builder.add(v, v, 1)
        program = builder.build()
        schedule = compute_schedule(program, get_config(), min_kernel_size=3)
        assert schedule.num_clusters == 0
        assert schedule.kernels_after == 2
        assert len(schedule.materialize(program, min_kernel_size=3)) == 2

    def test_consecutive_mode_matches_partition_into_kernels(self):
        from repro.runtime.kernel import Kernel, partition_into_kernels

        program, _ = interleaved_program()
        with config_override(fusion_scheduler="consecutive"):
            schedule = compute_schedule(program, get_config())
        sizes = [
            item.size if isinstance(item, Kernel) else 1
            for item in partition_into_kernels(program)
        ]
        assert [len(item) for item in schedule.items] == sizes

    def test_unknown_scheduler_is_an_error(self):
        program, _ = interleaved_program()
        with config_override(fusion_scheduler="telepathic"):
            with pytest.raises(ExecutionError, match="unknown fusion scheduler"):
                compute_schedule(program, get_config())

    def test_every_bytecode_scheduled_exactly_once(self):
        program, _ = interleaved_program()
        schedule = compute_schedule(program, get_config())
        assert sorted(schedule.order) == list(range(len(program)))


class TestFusionPassIntegration:
    def test_pass_records_the_schedule_artifact(self):
        program, _ = interleaved_program()
        result = FusionPass().run(program)
        schedule = result.stats.artifacts["fusion_schedule"]
        assert isinstance(schedule, FusionSchedule)
        assert result.changed
        fused = result.program
        assert fused.count(OpCode.BH_FUSED, include_fused=False) == 1

    def test_pass_is_idempotent(self):
        program, _ = interleaved_program()
        once = FusionPass().run(program)
        twice = FusionPass().run(once.program)
        assert not twice.changed
        assert list(twice.program) == list(once.program)

    def test_fusion_schedule_of_aggregates_across_iterations(self):
        from repro.core.pipeline import optimize

        program, _ = interleaved_program()
        report = optimize(program)
        schedule = fusion_schedule_of(report)
        assert schedule is not None
        assert schedule.kernels_after < schedule.kernels_before
        assert fusion_schedule_of(None) is None

    def test_scheduled_program_verifies_semantically(self):
        from repro.core.pipeline import optimize
        from repro.core.verifier import SemanticVerifier

        program, _ = interleaved_program()
        report = optimize(program)
        assert SemanticVerifier().equivalent(program, report.optimized)


class TestSignatures:
    def test_scheduler_knobs_are_in_the_plan_cache_signature(self):
        baseline = config_signature(get_config())
        with config_override(fusion_scheduler="consecutive"):
            assert config_signature(get_config()) != baseline

    def test_fusion_pass_schedules_under_its_configuration(self):
        program, _ = interleaved_program()
        assert FusionPass().config.fusion_scheduler == "dag"
        with config_override(fusion_scheduler="consecutive"):
            consecutive = FusionPass(config=get_config()).run(program)
        schedule = consecutive.stats.artifacts["fusion_schedule"]
        assert schedule.scheduler == "consecutive" and schedule.is_identity_order
