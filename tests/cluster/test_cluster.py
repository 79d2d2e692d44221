"""Tests for the simulated cluster executor, partitioning and communication model."""

import numpy as np
import pytest

from repro.bytecode.view import View
from repro.bytecode.base import BaseArray
from repro.cluster import ClusterExecutor, CommunicationModel, partition_length, partition_view
from repro.core.pipeline import optimize
from repro.runtime.interpreter import NumPyInterpreter
from repro.utils.config import config_override
from repro.utils.errors import ClusterError
from repro.workloads import elementwise_chain, linear_solve_program, repeated_constant_add


class TestCommunicationModel:
    def test_point_to_point_latency_plus_bandwidth(self):
        comm = CommunicationModel(latency_s=1e-6, bytes_per_second=1e9)
        assert comm.point_to_point(1e9) == pytest.approx(1.000001)

    def test_single_worker_communicates_nothing(self):
        comm = CommunicationModel()
        assert comm.gather(1, 1000) == 0.0
        assert comm.broadcast(1, 1000) == 0.0
        assert comm.allreduce(1, 1000) == 0.0

    def test_gather_scales_linearly_with_workers(self):
        comm = CommunicationModel(latency_s=0.0, bytes_per_second=1e9)
        assert comm.gather(5, 1000) == pytest.approx(4 * comm.point_to_point(1000))

    def test_broadcast_scales_logarithmically(self):
        comm = CommunicationModel(latency_s=1e-6, bytes_per_second=1e12)
        assert comm.broadcast(8, 10) == pytest.approx(3 * comm.point_to_point(10))
        assert comm.allreduce(8, 10) == pytest.approx(6 * comm.point_to_point(10))


class TestPartitioning:
    def test_even_split(self):
        assert partition_length(12, 4) == [(0, 3), (3, 3), (6, 3), (9, 3)]

    def test_remainder_goes_to_first_workers(self):
        assert partition_length(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_more_workers_than_rows(self):
        # Regression: the old behavior padded with zero-count chunks
        # ((2, 0), (2, 0)), which the distributed backend would have
        # launched as empty shards.  Excess workers get no chunk at all.
        chunks = partition_length(2, 4)
        assert chunks == [(0, 1), (1, 1)]

    def test_no_chunk_is_ever_empty(self):
        # The dist planner's shard legality rests on this invariant.
        for length in range(0, 9):
            for workers in range(1, 9):
                chunks = partition_length(length, workers)
                assert all(count > 0 for _, count in chunks), (length, workers)
                covered = [
                    index
                    for start, count in chunks
                    for index in range(start, start + count)
                ]
                assert covered == list(range(length)), (length, workers)

    def test_zero_length_yields_no_chunks(self):
        assert partition_length(0, 4) == []

    def test_invalid_worker_count(self):
        with pytest.raises(ClusterError):
            partition_length(10, 0)

    def test_partition_view_covers_everything_once(self):
        view = View.full(BaseArray(100))
        parts = partition_view(view, 7)
        indices = [index for part in parts if part is not None for index in part.element_indices()]
        assert sorted(indices) == list(range(100))

    def test_partition_matrix_along_rows(self):
        view = View.full(BaseArray(24), (6, 4))
        parts = partition_view(view, 3)
        assert [part.shape for part in parts] == [(2, 4), (2, 4), (2, 4)]
        assert parts[1].offset == 8

    def test_empty_chunks_are_none(self):
        view = View.full(BaseArray(2))
        parts = partition_view(view, 4)
        assert parts[2] is None and parts[3] is None


class TestClusterExecutor:
    def test_results_match_reference_interpreter(self):
        program, out = elementwise_chain(256, length=6)
        reference = NumPyInterpreter().execute(program).value(out)
        clustered = ClusterExecutor(num_workers=4).execute(program).value(out)
        assert np.allclose(reference, clustered)

    def test_more_workers_reduce_simulated_time_for_large_arrays(self):
        program, _ = elementwise_chain(2_000_000, length=8)
        one = ClusterExecutor(num_workers=1).estimate(program).total_seconds
        eight = ClusterExecutor(num_workers=8).estimate(program).total_seconds
        assert eight < one

    def test_scaling_is_sublinear_due_to_overheads(self):
        program, _ = elementwise_chain(1_000_000, length=8)
        executor = ClusterExecutor(num_workers=1)
        curve = executor.scaling_curve(program, (1, 2, 4, 8))
        speedup_8 = curve[1] / curve[8]
        assert 1.0 < speedup_8 < 8.0

    def test_parallel_efficiency_below_one(self):
        program, _ = elementwise_chain(1_000_000, length=8)
        efficiency = ClusterExecutor(num_workers=1).parallel_efficiency(program, 8)
        assert 0.0 < efficiency < 1.0

    def test_sync_costs_communication(self):
        program, _ = repeated_constant_add(100_000, repeats=1)
        stats = ClusterExecutor(num_workers=4).estimate(program)
        assert stats.sync_rounds >= 1
        assert stats.communication_seconds > 0

    def test_single_worker_has_no_communication(self):
        program, _ = repeated_constant_add(100_000, repeats=2)
        stats = ClusterExecutor(num_workers=1).estimate(program)
        assert stats.communication_seconds == 0.0

    def test_extension_ops_serialise_and_communicate(self):
        program, _, _ = linear_solve_program(32)
        stats = ClusterExecutor(num_workers=4).estimate(program)
        assert stats.serial_instructions == 2  # inverse + matmul
        assert stats.communication_seconds > 0

    def test_optimized_program_cheaper_on_cluster(self):
        program, _ = repeated_constant_add(1_000_000, repeats=8)
        optimized = optimize(program).optimized
        executor = ClusterExecutor(num_workers=4)
        assert (
            executor.estimate(optimized).total_seconds
            < executor.estimate(program).total_seconds
        )

    def test_reductions_pay_a_gather(self):
        from repro.bytecode.builder import ProgramBuilder

        builder = ProgramBuilder()
        vector = builder.new_vector(100_000)
        total = builder.new_vector(1)
        builder.identity(vector, 1)
        builder.add_reduce(total, vector, axis=0)
        builder.sync(total)
        stats = ClusterExecutor(num_workers=4).estimate(builder.build())
        assert stats.sync_rounds >= 2  # reduction gather + final sync

    def test_stats_dictionary_shape(self):
        program, _ = repeated_constant_add(1000, repeats=2)
        stats = ClusterExecutor(num_workers=2).estimate(program)
        as_dict = stats.as_dict()
        assert set(as_dict) == {
            "workers",
            "compute_s",
            "communication_s",
            "launch_s",
            "total_s",
            "sync_rounds",
        }
        assert as_dict["total_s"] == pytest.approx(
            as_dict["compute_s"] + as_dict["communication_s"] + as_dict["launch_s"]
        )

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ClusterError):
            ClusterExecutor(num_workers=0)
        with pytest.raises(ClusterError):
            ClusterExecutor(num_workers=2, profile="mainframe")

    def test_backend_execute_populates_simulated_time(self):
        program, out = repeated_constant_add(1000, repeats=2)
        result = ClusterExecutor(num_workers=2).execute(program)
        assert result.stats.simulated_time_seconds > 0
        assert np.all(result.value(out) == 2.0)


class TestPricingCacheUnderThreads:
    def test_concurrent_estimates_keep_the_cache_and_counters_exact(self, thread_hammer):
        """The shared-engine service multiplexes tenant threads over one
        executor: four threads re-pricing four programs through a one-entry
        pricing cache must neither corrupt it (the unlocked ``OrderedDict``
        raised ``KeyError`` in ``move_to_end``) nor lose a counter update."""
        with config_override(plan_cache_size=1):
            executor = ClusterExecutor(num_workers=4, comm=CommunicationModel())
        programs = [repeated_constant_add(8, repeats)[0] for repeats in (1, 2, 3, 4)]
        threads, lookups = 4, 10000

        def body(offset: int) -> None:
            for step in range(lookups):
                executor.estimate(programs[(step + offset) % len(programs)])

        thread_hammer(threads, body)
        stats = executor.cache_stats()
        assert stats["pricing_plan_hits"] + stats["pricing_plan_misses"] == (
            threads * lookups
        )
        assert stats["pricing_plan_size"] == 1
