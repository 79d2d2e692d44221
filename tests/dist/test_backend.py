"""End-to-end tests for the distributed backend.

Everything here runs real worker processes over real shared memory; the
oracle is always the unoptimized reference interpreter.  The non-vacuity
assertions (shard launches, shard steps, zero payload bytes) are as
important as the value checks — a dist backend that silently fell back to
the master would pass every bitwise comparison.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest

from dist_settings import TINY_TILES, stencil_steps
from repro.bytecode.builder import ProgramBuilder
from repro.checks import COUNTERS
from repro.dist import worker as worker_module
from repro.dist.backend import (
    DistributedBackend,
    WorkerPool,
    _get_store,
    _shutdown_all_pools,
)
from repro.dist.planner import MapShardStep, ReduceShardStep
from repro.dist.shardstore import sweep_manifests
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.tiling import TiledReduceStep
from repro.utils.config import config_override
from repro.utils.errors import DistributedExecutionError
from repro.workloads import heat_equation
from repro.workloads.generators import random_elementwise_program, random_mixed_program


def _oracle(program, synced):
    engine = ExecutionEngine(backend="interpreter", optimize=False)
    result = engine.execute(program)
    return [result.value(view) for view in synced]


def _dist(program, synced, workers, **overrides):
    settings = {**TINY_TILES, "dist_num_workers": workers, **overrides}
    with config_override(**settings):
        engine = ExecutionEngine(backend="dist", optimize=True)
        result = engine.execute(program)
        return [result.value(view) for view in synced], result.stats, engine


class TestElementwise:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_vs_oracle(self, workers):
        for seed in (0, 7, 21):
            program, synced = random_elementwise_program(
                seed, num_instructions=12, vector_length=24
            )
            expected = _oracle(program, synced)
            values, stats, _ = _dist(program, synced, workers)
            for actual, reference in zip(values, expected):
                assert np.array_equal(actual, reference, equal_nan=True), (seed, workers)
            assert stats.dist_workers_used == workers

    def test_shards_actually_launch_multi_process(self):
        program, synced = random_elementwise_program(3, num_instructions=12, vector_length=24)
        _, stats, _ = _dist(program, synced, 2)
        assert stats.dist_shard_launches >= 2
        assert stats.dist_payload_bytes == 0
        assert stats.dist_control_frames > 0


class TestReductions:
    @pytest.mark.parametrize("seed", [1000, 1003, 1011])
    def test_bitwise_stable_across_worker_counts(self, seed):
        program, synced = random_mixed_program(seed, num_instructions=10)
        reference, _, _ = _dist(program, synced, 1)
        for workers in (2, 4):
            program, synced = random_mixed_program(seed, num_instructions=10)
            values, _, _ = _dist(program, synced, workers)
            for actual, expected in zip(values, reference):
                assert np.array_equal(actual, expected, equal_nan=True), (seed, workers)

    def test_close_to_oracle(self):
        # Tree-combined partials legitimately reassociate; tolerance matches
        # the parallel backend's differential relaxation exactly.
        for seed in (1000, 1003, 1011):
            program, synced = random_mixed_program(seed, num_instructions=10)
            expected = _oracle(program, synced)
            values, _, _ = _dist(program, synced, 2)
            for actual, reference in zip(values, expected):
                np.testing.assert_allclose(
                    actual, reference, rtol=1e-6, atol=1e-8, equal_nan=True
                )


    def test_axis0_reduce_shards_are_never_one_column_wide(self):
        # 12 rows x 8 columns with 16-element tiles used to yield
        # one-column tiles, which NumPy sums pairwise: not bitwise the
        # row-by-row serial reduction.  The worker runs the tiling's spans.
        builder = ProgramBuilder()
        matrix = builder.new_matrix(12, 8)
        out = builder.new_vector(8)
        builder.random(matrix, seed=7)
        builder.multiply(matrix, matrix, 1e3)
        builder.add_reduce(out, matrix, axis=0)
        builder.sync(out)
        program = builder.build()
        expected = _oracle(program, (out,))
        values, stats, engine = _dist(program, (out,), 2)
        (step,) = [
            s for s in engine.last_plan.tiling.steps if isinstance(s, TiledReduceStep)
        ]
        assert len(step.spans) > 1 and all(span.count >= 2 for span in step.spans)
        assert stats.dist_shard_launches > 0
        assert values[0].tobytes() == expected[0].tobytes()


class TestStencilShards:
    def _run_heat(self, workers, grid=24, iterations=3):
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=workers,
        ):
            session = Session(backend="dist", optimize=True)
            out = heat_equation(
                grid_size=grid, iterations=iterations, session=session
            ).to_numpy()
            stats = session.stats_history[-1]
            self._assert_sharded(session.engine.last_plan, stats, workers)
            return out, stats

    @staticmethod
    def _assert_sharded(plan, stats, workers):
        """Every stencil step ran as one shard per worker, and the flush
        launched exactly the shards its plan holds."""
        stencils = stencil_steps(plan)
        assert stencils
        for step in stencils:
            assert isinstance(step, MapShardStep) and len(step.shards) == workers
        launches = sum(
            len(step.shards)
            if isinstance(step, MapShardStep)
            else sum(1 for assignment in step.assignments if assignment)
            for step in plan.dist_plan.steps
            if isinstance(step, (MapShardStep, ReduceShardStep))
        )
        assert stats.dist_shard_launches == launches

    @pytest.fixture(scope="class")
    def heat_oracle(self):
        session = Session(backend="interpreter", optimize=False)
        return heat_equation(grid_size=24, iterations=3, session=session).to_numpy()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_vs_oracle(self, heat_oracle, workers):
        out, _ = self._run_heat(workers)
        assert np.array_equal(out, heat_oracle)

    def test_a_one_row_shard_reads_its_neighbours_rows_in_place(self):
        # 6x6 grid, 4 workers: the 4 stencil rows shard one per worker, so
        # every row a shard reads above or below it is another worker's.
        session = Session(backend="interpreter", optimize=False)
        expected = heat_equation(grid_size=6, iterations=3, session=session).to_numpy()
        out, _ = self._run_heat(4, grid=6)
        assert np.array_equal(out, expected)

    def test_no_array_payload_ever_crosses_the_channel(self, heat_oracle):
        out, stats = self._run_heat(2)
        assert np.array_equal(out, heat_oracle)
        assert stats.dist_payload_bytes == 0


class TestShardLegality:
    def test_fewer_rows_than_workers_never_launches_empty_shards(self):
        # Regression for the partition_length clamp: 2 rows, 4 workers.
        program, synced = random_elementwise_program(5, num_instructions=8, vector_length=8)
        expected = _oracle(program, synced)
        values, stats, _ = _dist(program, synced, 4, parallel_serial_threshold=1, parallel_tile_elements=4)
        for actual, reference in zip(values, expected):
            assert np.array_equal(actual, reference, equal_nan=True)


class TestWarmPath:
    def test_warm_flush_ships_descriptors_only(self):
        program, synced = random_elementwise_program(11, num_instructions=12, vector_length=24)
        expected = _oracle(program, synced)
        with config_override(**TINY_TILES, dist_num_workers=2):
            engine = ExecutionEngine(backend="dist", optimize=True)
            engine.execute(program)
            cold_loads = engine.cache_stats()["dist_loads_shipped"]
            result = engine.execute(program)
            values = [result.value(view) for view in synced]
            warm = result.stats
            assert engine.cache_stats()["dist_loads_shipped"] == cold_loads
        for actual, reference in zip(values, expected):
            assert np.array_equal(actual, reference, equal_nan=True)
        assert warm.dist_payload_bytes == 0
        assert warm.dist_bytes_migrated == 0
        assert warm.dist_shard_launches > 0
        # Warm control traffic is tiny: descriptors and acks, not arrays.
        assert warm.dist_control_bytes < 16384


class TestWorkerSideChecks:
    def test_plan_checks_run_worker_side_when_enabled(self):
        program, synced = random_elementwise_program(13, num_instructions=10, vector_length=24)
        COUNTERS.reset()
        values, stats, _ = _dist(program, synced, 2, check_ir=True)
        # Structural shard validation always runs; the tiling soundness
        # check piggybacks when check_ir is on.  Both fold into the global
        # check counters through the loaded acks.
        assert stats.plan_checks_run > 0
        assert COUNTERS.snapshot()["plan_checks_run"] > 0
        expected = _oracle(program, synced)
        for actual, reference in zip(values, expected):
            assert np.array_equal(actual, reference, equal_nan=True)


def _store_segments_on_disk():
    """Names under /dev/shm that belong to this process's shard store."""
    store = _get_store()
    with store._segments_lock:
        known = set(store._active) | {
            name for entries in store._parked.values() for name, _ in entries
        }
    return known, {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _first_worker_dies_before_hello(worker_id, conn):
    """A spawn target: worker 1 (the first process; the master runs shard 0)
    exits at once, the others serve normally."""
    if worker_id == 1:
        os._exit(3)
    worker_module.worker_main(worker_id, conn)


class TestCrashRecovery:
    def test_a_worker_dying_before_hello_takes_the_started_ones_down(self, monkeypatch):
        _shutdown_all_pools()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(worker_module, "worker_main", _first_worker_dies_before_hello)
        with pytest.raises(DistributedExecutionError, match="worker 1"):
            WorkerPool(3)
        assert multiprocessing.active_children() == []

    def test_mid_flush_crash_is_clean_and_recoverable(self):
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=2,
        ):
            session = Session(backend="dist", optimize=True)
            expected = heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            backend = session.engine.backend
            store = _get_store()
            active_before = store.stats()["dist_shm_bytes_active"]
            _, on_disk_before = _store_segments_on_disk()
            backend.inject_worker_crash(1)
            with pytest.raises(DistributedExecutionError):
                heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            # A flush that dies leaves no base bound to storage it no
            # longer owns: whatever is still live names an active segment,
            # and what the flush created went back to the store with it.
            active = set(store.active_segments())
            for base in session.memory.live_bases():
                token = session.memory.external_token(base)
                assert token is None or token in active, base
            # The dying flush had already run its leading free of the
            # previous result (16 x 16 float64) — before it reserved
            # anything, the order native executes — and nothing it bound
            # afterwards is still bound: where a failed native flush stops.
            assert store.stats()["dist_shm_bytes_active"] == active_before - 2048
            assert session.memory.bytes_allocated == 0
            assert not session.memory.live_bases()
            known, on_disk = _store_segments_on_disk()
            assert on_disk - on_disk_before <= known, "a segment leaked past the store"
            # The session survives: the pool respawns and the same
            # computation completes bitwise-identically.
            recovered = heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            assert np.array_equal(recovered, expected)

    def test_crash_leaks_no_segments(self):
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=2,
        ):
            session = Session(backend="dist", optimize=True)
            heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            backend = session.engine.backend
            backend.inject_worker_crash(1)
            with pytest.raises(DistributedExecutionError):
                heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            # Workers only ever attach — a dead worker cannot take a
            # segment with it, and the master is alive, so the manifest
            # sweep has nothing to reclaim.
            assert sweep_manifests() == []


class TestAFailedExchangeLeavesNoReplyBehind:
    """PR 20's finding (ii): an ``error`` frame from one worker during
    ``load`` left the other workers' replies unread, and the next flush
    read them as its own."""

    def test_a_refused_load_costs_the_pool_not_the_next_flush(self, monkeypatch):
        import dataclasses

        from repro.dist import backend as dist_backend

        genuine = dist_backend.build_dist_plan

        def one_step_short(*args):
            # validate_dist_plan refuses it on every worker.
            plan = genuine(*args)
            return dataclasses.replace(plan, steps=plan.steps[:-1])

        monkeypatch.setattr(dist_backend, "build_dist_plan", one_step_short)
        settings = dict(
            parallel_tile_elements=64, parallel_serial_threshold=4, dist_num_workers=2
        )
        with config_override(**settings):
            session = Session(backend="dist", optimize=True)
            store = _get_store()
            active_before = store.stats()["dist_shm_bytes_active"]
            _, on_disk_before = _store_segments_on_disk()
            pool = dist_backend._get_pool(2)
            with pytest.raises(DistributedExecutionError, match="shard plan has") as info:
                heat_equation(grid_size=16, iterations=2, session=session).to_numpy()
            assert not isinstance(info.value, dist_backend.WorkerDiedError)
            # Worker 0's error raised while worker 1's was still in the pipe.
            assert pool.replies_outstanding > 0
            assert dist_backend._POOLS.get(2) is not pool
            assert store.stats()["dist_shm_bytes_active"] == active_before
            known, on_disk = _store_segments_on_disk()
            assert on_disk - on_disk_before <= known, "a segment leaked past the store"
            monkeypatch.undo()
            # A different program (a new plan, a new token) on the same
            # session: its load acks are its own.
            out = heat_equation(grid_size=16, iterations=3, session=session).to_numpy()
            assert dist_backend._POOLS[2].replies_outstanding == 0
        oracle = Session(backend="interpreter", optimize=False)
        expected = heat_equation(grid_size=16, iterations=3, session=oracle).to_numpy()
        assert out.tobytes() == expected.tobytes()
        assert sweep_manifests() == []


class TestOneFlushAtATime:
    def test_concurrent_flushes_on_one_pool_do_not_interleave(self):
        """The pool's pipes carry one conversation: tenants take turns."""
        threads, flushes = 4, 6
        programs = [
            random_elementwise_program(seed, num_instructions=12, vector_length=24)
            for seed in (3, 11)
        ]
        expected = [_oracle(program, synced) for program, synced in programs]
        failures = []
        with config_override(**TINY_TILES, dist_num_workers=2):
            engine = ExecutionEngine(backend="dist", optimize=True)
            engine.execute(programs[0][0])  # spawn the pool outside the race
            barrier = threading.Barrier(threads)

            def tenant(index: int) -> None:
                try:
                    barrier.wait()
                    for flush in range(flushes):
                        which = (index + flush) % len(programs)
                        program, synced = random_elementwise_program(
                            (3, 11)[which], num_instructions=12, vector_length=24
                        )
                        result = engine.execute(program)
                        for view, reference in zip(synced, expected[which]):
                            if not np.array_equal(
                                result.value(view), reference, equal_nan=True
                            ):
                                failures.append((index, flush, "wrong bits"))
                        result.memory.free_all()
                except Exception as exc:  # surfaced below, with the thread's index
                    failures.append((index, repr(exc)))

            workers = [threading.Thread(target=tenant, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        assert not failures, failures


class TestBudget:
    def test_budget_exhaustion_is_a_clean_distributed_error(self):
        # A size class nothing else in this suite parks: recycling a parked
        # segment legitimately bypasses the budget (it adds no bytes), so
        # the test must force a *fresh* create.
        program, synced = random_elementwise_program(
            17, num_instructions=12, vector_length=1 << 16
        )
        with pytest.raises(DistributedExecutionError, match="budget"):
            _dist(program, synced, 2, dist_shm_max_bytes=64)
