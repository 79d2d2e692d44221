"""The master runs shard 0 of every distributed step.

A flush of N shards spawns N − 1 worker processes: the master sends the
step to shards 1 … N − 1, runs shard 0 on the flushing thread with the
worker's own shard code, over the segments the flush bound, then collects
the replies.  These tests pin the new path: the process count, the
storage contract of the master's shard, what it reports, where the plan
checks run when no worker loads the plan, and the fault axis of a shard
that fails on the master or a worker that dies while the master computes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading

import numpy as np
import pytest

from dist_settings import TINY_TILES
from repro.bytecode.opcodes import OpCode
from repro.checks import COUNTERS
from repro.dist import backend as dist_backend
from repro.dist import worker as worker_module
from repro.dist.planner import MapShardStep
from repro.dist.protocol import ProtocolError
from repro.dist.shardstore import sweep_manifests
from repro.frontend.session import Session
from repro.runtime import interpreter as interpreter_module
from repro.utils.config import config_override
from repro.utils.errors import DistributedExecutionError
from repro.workloads import black_scholes, heat_equation

HEAT = dict(parallel_tile_elements=64, parallel_serial_threshold=4)


@pytest.fixture(scope="module")
def heat_oracle():
    session = Session(backend="interpreter", optimize=False)
    return heat_equation(grid_size=24, iterations=3, session=session).to_numpy()


def _heat(session):
    return heat_equation(grid_size=24, iterations=3, session=session).to_numpy()


def _segments_on_disk():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestProcessCount:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_n_shards_spawn_n_minus_one_processes(self, heat_oracle, shards):
        dist_backend._shutdown_all_pools()
        with config_override(**HEAT, dist_num_workers=shards):
            session = Session(backend="dist", optimize=True)
            spawned = session.cache_stats()["dist_workers_spawned"]
            out = _heat(session)
            stats = session.stats_history[-1]
            assert len(multiprocessing.active_children()) == shards - 1
            assert session.cache_stats()["dist_workers_spawned"] - spawned == shards - 1
        assert np.array_equal(out, heat_oracle)
        # Shards are counted as before: one per row block of every step.
        assert stats.dist_workers_used == shards
        assert stats.dist_shard_launches == sum(
            len(step.shards)
            for step in session.engine.last_plan.dist_plan.steps
            if isinstance(step, MapShardStep)
        )
        assert stats.dist_payload_bytes == 0
        # Every shard reports its kernel-local slots, shard 0 from the
        # master: the counts of a process per shard.
        assert stats.template_slots_elided == {1: 9, 2: 18, 4: 36}[shards]
        if shards == 1:
            # No process, so no frame: not a load, a map or a step.
            assert stats.dist_control_frames == 0


class TestTheMasterShardNeverAllocates:
    def test_it_maps_no_segment_a_second_time(self, heat_oracle, monkeypatch):
        def refuse(name):
            raise AssertionError(f"the master attached segment {name}")

        # Patched in this process only: workers attach as before.
        monkeypatch.setattr(worker_module, "attach_segment", refuse)
        for shards in (1, 2):
            with config_override(**HEAT, dist_num_workers=shards):
                assert np.array_equal(_heat(Session(backend="dist")), heat_oracle)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_base_neither_bound_nor_private_is_refused(
        self, heat_oracle, monkeypatch, shards
    ):
        genuine = dist_backend.DistributedBackend._bind
        dropped = []

        def bind_one_short(self, memory, base_order, private, *args):
            segments = genuine(self, memory, base_order, private, *args)
            position = max(segments)
            dropped.append(position)
            del segments[position]
            return segments

        monkeypatch.setattr(dist_backend.DistributedBackend, "_bind", bind_one_short)
        with config_override(**HEAT, dist_num_workers=shards):
            session = Session(backend="dist", optimize=True)
            with pytest.raises(ProtocolError, match="unmapped"):
                _heat(session)
            assert dropped
            assert dropped[0] not in session.engine.last_plan.dist_plan.private_positions
            pool = dist_backend._POOLS[shards]
            # Refused before any frame left: the pool is clean and kept.
            assert pool.replies_outstanding == 0
            monkeypatch.undo()
            assert np.array_equal(_heat(session), heat_oracle)
            assert dist_backend._POOLS[shards] is pool


class TestTheMasterShardReports:
    REASON = "erf: no compiled helper (patched on the master)"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_the_erf_fallback_is_noted_like_a_complete_frame(self, monkeypatch, shards):
        oracle = black_scholes(4096, session=Session(backend="interpreter", optimize=False))
        expected = oracle.to_numpy()
        # The master's helper only: a worker resolves its own.
        monkeypatch.setattr(
            interpreter_module, "erf_helper", lambda config: (None, self.REASON)
        )
        with config_override(**TINY_TILES, dist_num_workers=shards):
            session = Session(backend="dist", optimize=True)
            prices = black_scholes(4096, session=session).to_numpy()
            stats = session.stats_history[-1]
            plan = session.engine.last_plan
        assert np.array_equal(prices, expected)
        erf_steps = [
            step
            for step in plan.dist_plan.distributed_steps
            if any(
                inner.opcode is OpCode.BH_ERF
                for inner in plan.optimized[step.index].kernel or (plan.optimized[step.index],)
            )
        ]
        assert erf_steps
        # Shard 0 of every erf step ran the math.erf loop and said so once.
        assert stats.native_fallback_reasons.get(self.REASON) == len(erf_steps)


class TestPlanChecksWithoutAWorker:
    @staticmethod
    def _one_step_short(monkeypatch):
        genuine = dist_backend.build_dist_plan

        def build(*args):
            plan = genuine(*args)
            return dataclasses.replace(plan, steps=plan.steps[:-1])

        monkeypatch.setattr(dist_backend, "build_dist_plan", build)

    def test_the_master_refuses_a_step_short_plan_at_one_shard(self, monkeypatch):
        self._one_step_short(monkeypatch)
        with config_override(**HEAT, dist_num_workers=1):
            session = Session(backend="dist", optimize=True)
            spawned = session.cache_stats()["dist_workers_spawned"]
            with pytest.raises(ProtocolError, match="shard plan has"):
                _heat(session)
            assert session.cache_stats()["dist_workers_spawned"] == spawned

    @pytest.mark.parametrize("check_ir", [False, True])
    def test_one_shard_counts_the_checks_one_worker_would(self, check_ir):
        """A cold flush's ``plan_checks_run``: the execution gate's checks
        (under ``check_ir``) plus those of every validator of the shard plan
        — each worker on ``load``, or the master when there is none.  One
        shard and two (one worker) therefore count alike."""
        counts = {}
        for shards in (1, 2, 4):
            with config_override(**HEAT, dist_num_workers=shards, check_ir=check_ir):
                dist_backend._shutdown_all_pools()
                COUNTERS.reset()
                session = Session(backend="dist", optimize=True)
                _heat(session)
                counts[shards] = session.stats_history[-1].plan_checks_run
                steps = len(session.engine.last_plan.dist_plan.steps)
                assert COUNTERS.snapshot()["plan_checks_run"] >= counts[shards]
        per_validator = steps + (2 if check_ir else 0)
        gate = 3 if check_ir else 0  # memory plan, tiling, shard plan
        assert counts == {
            1: gate + per_validator,
            2: gate + per_validator,
            4: gate + 3 * per_validator,
        }


class TestFaultsOnTheMasterShard:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_failing_master_shard_discards_the_pool(
        self, heat_oracle, monkeypatch, shards
    ):
        with config_override(**HEAT, dist_num_workers=shards):
            _heat(Session(backend="dist"))  # spawn the pool outside the fault
            pool = dist_backend._POOLS[shards]
            store = dist_backend._get_store()
            active_before = store.stats()["dist_shm_bytes_active"]
            segments_before = set(store.active_segments())
            on_disk_before = _segments_on_disk()
            threads_before = threading.active_count()
            outstanding = []

            def failing_shard(loaded, step, shard, memory):
                assert shard == 0
                outstanding.append(pool.replies_outstanding)
                raise FloatingPointError("injected on shard 0")

            # Patched in this process only: the master's shard 0 fails.
            monkeypatch.setattr(worker_module.LoadedPlan, "run_shard", failing_shard)
            session = Session(backend="dist")
            with pytest.raises(DistributedExecutionError, match="shard 0 failed") as info:
                _heat(session)
            assert not isinstance(info.value, dist_backend.WorkerDiedError)
            # The workers' replies were still in their pipes.
            assert outstanding == [shards - 1]
            assert dist_backend._POOLS.get(shards) is not pool
            assert store.stats()["dist_shm_bytes_active"] == active_before
            assert set(store.active_segments()) == segments_before
            # What the flush created is parked for reuse, never leaked.
            with store._segments_lock:
                parked = {name for entries in store._parked.values() for name, _ in entries}
            assert _segments_on_disk() - on_disk_before <= parked
            assert threading.active_count() == threads_before
            assert session.memory.bytes_allocated == 0
            monkeypatch.undo()
            assert _heat(session).tobytes() == heat_oracle.tobytes()
        assert sweep_manifests() == []

    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_worker_dying_while_the_master_computes(
        self, heat_oracle, monkeypatch, shards
    ):
        with config_override(**HEAT, dist_num_workers=shards):
            session = Session(backend="dist")
            _heat(session)
            pool = dist_backend._POOLS[shards]
            victim = pool.workers[shards - 1].process
            genuine = worker_module.LoadedPlan.run_shard

            def shard_after_the_death(loaded, step, shard, memory):
                # The step frame has armed the crash: shard 0 runs once the
                # worker is gone, its reply never to come.
                victim.join(timeout=30)
                assert not victim.is_alive()
                return genuine(loaded, step, shard, memory)

            monkeypatch.setattr(
                worker_module.LoadedPlan, "run_shard", shard_after_the_death
            )
            session.engine.backend.inject_worker_crash(shards - 1)
            with pytest.raises(dist_backend.WorkerDiedError, match=f"worker {shards - 1}"):
                _heat(session)
            assert dist_backend._POOLS.get(shards) is not pool
            monkeypatch.undo()
            assert _heat(session).tobytes() == heat_oracle.tobytes()
        assert sweep_manifests() == []
