"""Which bases a dist flush puts in shared memory, and with what storage.

The rule under test: a base enters shared memory only if a worker must
address it (kernel-local bases get no segment and no ``map`` entry),
temporaries the memory plan puts on one slot share one segment, and a
waived zero fill is skipped.  The counters are deterministic; the negative
cases pin the three ways a candidate base must *keep* its segment.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from dist_settings import TINY_TILES
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.core.analysis import DefUse
from repro.dist.backend import DistributedBackend
from repro.dist.planner import HaloSpec, MapShardStep, _private_bases, build_dist_plan
from repro.dist.protocol import decode_frame, make_frame
from repro.dist.worker import _Worker
from repro.frontend import zeros
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.kernel import kernel_slot_views
from repro.runtime.plan import program_base_order
from repro.runtime.tiling import decompose
from repro.utils.config import config_override, get_config
from repro.utils.errors import PlanCheckError
from repro.workloads import heat_equation

GRID, ITERATIONS = 1200, 4
#: The optimized heat program: 5 full grids and 12 interior-sized bases,
#: all 12 (three per fused step) kernel-local — each step's result is
#: stored straight into the next grid's interior, no interior temporary.
ALL_BASES, LOCAL_BASES = 17, 12
ALL_BYTES = 5 * GRID * GRID * 8 + 12 * (GRID - 2) * (GRID - 2) * 8


def _warm_heat_flushes(session, flushes=3):
    out = None
    for _ in range(flushes):
        out = heat_equation(grid_size=GRID, iterations=ITERATIONS, session=session)
        out = out.to_numpy()
    return out, session.stats_history[-1]


class TestWarmFlushCounters:
    def test_only_addressable_bases_are_adopted_and_nothing_is_filled(self):
        assert ALL_BYTES == 195_379_584
        with config_override(dist_num_workers=2):
            session = Session(backend="dist", optimize=True)
            _warm_heat_flushes(session, flushes=2)
            created = session.cache_stats()["dist_segments_created"]
            out, stats = _warm_heat_flushes(session)
            cache = session.cache_stats()
            plan = session.engine.last_plan
        assert stats.dist_bases_adopted == ALL_BASES - LOCAL_BASES == 5
        assert stats.dist_zero_fill_bytes == 0
        assert stats.dist_bytes_migrated == 0
        assert stats.dist_payload_bytes == 0
        # Two plan slots, one of them the result's from its first store on,
        # the other the previous result's segment: everything a warm flush
        # binds is recycled.
        assert cache["dist_segments_created"] == created
        assert len(plan.dist_plan.private_positions) == LOCAL_BASES
        # A shared slot segment is accounted once.
        assert stats.actual_peak_bytes < 6 * GRID * GRID * 8
        reference = Session(backend="interpreter", optimize=False)
        expected = heat_equation(
            grid_size=GRID, iterations=ITERATIONS, session=reference
        ).to_numpy()
        assert np.array_equal(out, expected)

    def test_a_fresh_process_would_create_at_most_six_segments(self):
        with config_override(dist_num_workers=2):
            session = Session(backend="dist", optimize=True)
            before = session.cache_stats()["dist_segments_created"]
            _warm_heat_flushes(session, flushes=4)
            after = session.cache_stats()["dist_segments_created"]
        assert after - before <= 6

    def test_without_a_memory_plan_every_base_is_adopted_and_filled(self):
        with config_override(dist_num_workers=2, memory_plan_enabled=False):
            session = Session(backend="dist", optimize=True)
            _, stats = _warm_heat_flushes(session, flushes=2)
        assert stats.dist_bases_adopted == ALL_BASES
        assert stats.dist_zero_fill_bytes == ALL_BYTES
        assert stats.dist_bytes_migrated == 0
        assert stats.dist_payload_bytes == 0

    def test_zero_policy_always_fills_what_it_adopts(self):
        with config_override(dist_num_workers=2, memory_zero_policy="always"):
            session = Session(backend="dist", optimize=True)
            _, stats = _warm_heat_flushes(session, flushes=2)
        assert stats.dist_bases_adopted == ALL_BASES - LOCAL_BASES
        assert stats.dist_zero_fill_bytes == 5 * GRID * GRID * 8


class TestAWarmFlushHoldsWhatNativeHolds:
    """The result is born in the plan slot that just died and the previous
    result is freed before anything is reserved: two grids, two segments."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_grids_in_two_segments_and_nothing_moves(self, workers, monkeypatch):
        from repro.dist import backend as dist_backend
        from repro.dist.shardstore import ShardStore

        native = Session(backend="native", optimize=True)
        expected, native_stats = _warm_heat_flushes(native)
        store = ShardStore()  # a fresh process's store: nothing parked yet
        monkeypatch.setattr(dist_backend, "_STORE", store)
        try:
            with config_override(dist_num_workers=workers):
                session = Session(backend="dist", optimize=True)
                out, stats = _warm_heat_flushes(session)
                cache = session.cache_stats()
                plan = session.engine.last_plan
            assert out.tobytes() == expected.tobytes()
            assert stats.actual_peak_bytes == native_stats.actual_peak_bytes
            assert stats.actual_peak_bytes == 2 * GRID * GRID * 8 == 23_040_000
            assert plan.memory_plan.adopted_bases == 1
            segment = 1 << 24  # the size class of one 11.52 MB grid
            assert cache["dist_shm_bytes_active"] == segment  # the result
            assert cache["dist_shm_bytes_parked"] == segment  # the other slot
            assert cache["dist_segments_created"] == 2
            assert stats.dist_bytes_migrated == 0
            assert stats.dist_payload_bytes == 0
            assert stats.dist_zero_fill_bytes == 0
            session.memory.free_all()
            assert store.stats()["dist_shm_bytes_active"] == 0
        finally:
            store.close()


class TestAFreeAloneBindsNothing:
    """A ``BH_FREE`` whose base no step addresses used to make the flush
    adopt and zero-fill a segment only to release it."""

    SHAPE = (1000, 1000)

    def _dead_product(self, backend):
        session = Session(backend=backend, optimize=True)
        x = zeros(self.SHAPE, session=session)
        x += 1
        dead = x * 3
        y = x * 2
        del dead
        return y.to_numpy(), session

    def test_an_orphaned_free_costs_no_segment(self):
        with config_override(dist_num_workers=2):
            out, session = self._dead_product("dist")
        expected, native = self._dead_product("native")
        stats = session.stats_history[-1]
        # DCE removed the dead product and its free with it.
        assert session.last_report.optimized.count(OpCode.BH_FREE) == 0
        assert stats.dist_bases_adopted == 2  # x and y
        assert stats.actual_peak_bytes == native.stats_history[-1].actual_peak_bytes
        assert stats.actual_peak_bytes == 2 * 8 * 1000 * 1000
        # x alone is filled, as on native: its kernel stores it before
        # reading it at one index, which the fill waiver does not look into.
        assert stats.dist_zero_fill_bytes == native.memory.zero_fill_bytes == 8_000_000
        assert np.array_equal(out, expected)

    def test_a_base_the_program_only_frees_is_never_bound(self):
        # The backend end of the same fix, no optimizer involved: ``gone``
        # has no storage and no definition here, with and without a plan.
        builder = ProgramBuilder()
        a = builder.new_vector(64, name="a")
        out = builder.new_vector(64, name="out")
        gone = builder.new_vector(64, name="gone")
        builder.free(gone)
        builder.identity(a, 2.0)
        builder.add(out, a, 1.0)
        builder.sync(out)
        for plan_enabled in (True, False):
            with config_override(memory_plan_enabled=plan_enabled):
                stats, plan = _run_planless(builder.build(), (out,))
            order = program_base_order(plan.optimized)
            assert [order[p].name for p in plan.dist_plan.free_only] == ["gone"]
            assert stats.dist_bases_adopted == 2
            # ``a`` is stored and loaded by one kernel, so its fill stays.
            assert stats.dist_zero_fill_bytes == (1 if plan_enabled else 2) * 64 * 8

    def test_a_resident_base_freed_at_the_front_is_released_not_mapped(self):
        with config_override(dist_num_workers=2):
            session = Session(backend="dist", optimize=True)
            first = zeros((64, 64), session=session) + 1.0
            first.to_numpy()
            active = session.cache_stats()["dist_shm_bytes_active"]
            del first
            second = zeros((64, 64), session=session) + 2.0
            out = second.to_numpy()
            stats = session.stats_history[-1]
            plan = session.engine.last_plan
        assert session.last_report.optimized[0].opcode is OpCode.BH_FREE
        assert plan.dist_plan.free_only == {0}
        assert stats.dist_bases_adopted == 2  # the zeros and the sum
        assert stats.dist_bytes_migrated == 0
        assert session.cache_stats()["dist_shm_bytes_active"] == active
        assert np.array_equal(out, np.full((64, 64), 2.0))


def _run_planless(program, synced):
    """Execute on dist without the optimizer; return values and the one plan."""
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    with config_override(**TINY_TILES, dist_num_workers=2):
        backend = DistributedBackend()
        result = backend.execute(program)
        (plan,) = backend._adhoc_plans.values()
    for view in synced:
        assert np.array_equal(result.value(view), oracle.value(view), equal_nan=True)
    return result.stats, plan


def _private_names(plan):
    order = program_base_order(plan.optimized)
    return {order[position].name for position in plan.dist_plan.private_positions}


class TestWhichBasesStayPrivate:
    LENGTH = 64

    def _chain(self, prologue=None):
        """``a = 2; t = a * 3; out = t + 1`` with ``t`` freed, ``out`` synced."""
        builder = ProgramBuilder()
        a = builder.new_vector(self.LENGTH, name="a")
        t = builder.new_vector(self.LENGTH, name="t")
        out = builder.new_vector(self.LENGTH, name="out")
        if prologue is not None:
            prologue(builder, t)
        builder.identity(a, 2.0)
        builder.multiply(t, a, 3.0)
        builder.add(out, t, 1.0)
        builder.free(t)
        builder.sync(out)
        return builder.build(), a, t, out

    def test_a_store_first_kernel_local_base_gets_no_segment(self):
        program, _, _, out = self._chain()
        stats, plan = _run_planless(program, (out,))
        assert _private_names(plan) == {"t"}
        assert stats.dist_bases_adopted == 2  # a and out
        assert stats.dist_shard_launches > 0

    def test_a_slot_loaded_before_it_is_stored_keeps_its_segment(self):
        # ``t = t + a`` reads t's zero-initialised storage first.
        builder = ProgramBuilder()
        a = builder.new_vector(self.LENGTH, name="a")
        t = builder.new_vector(self.LENGTH, name="t")
        out = builder.new_vector(self.LENGTH, name="out")
        builder.identity(a, 2.0)
        builder.add(t, t, a)
        builder.add(out, t, 1.0)
        builder.free(t)
        builder.sync(out)
        stats, plan = _run_planless(builder.build(), (out,))
        assert _private_names(plan) == set()
        assert stats.dist_bases_adopted == 3
        for step in plan.tiling.steps:
            assert not getattr(step, "local_slots", ())

    def test_a_base_an_earlier_step_also_writes_keeps_its_segment(self):
        # A dead def of half of t in its own (differently shaped) step:
        # the kernel's slot is still local, the base is not private.
        def dead_def(builder, t):
            builder.identity(View(t.base, 0, (self.LENGTH // 2,), (1,)), 5.0)

        program, _, _, out = self._chain(prologue=dead_def)
        stats, plan = _run_planless(program, (out,))
        assert _private_names(plan) == set()
        assert stats.dist_bases_adopted == 3
        assert any(getattr(step, "local_slots", ()) for step in plan.tiling.steps)

    def test_a_halo_source_keeps_its_segment(self):
        program, _, t, _ = self._chain()
        with config_override(**TINY_TILES):
            backend = DistributedBackend(num_workers=2)
            backend.execute(program)
            (plan,) = backend._adhoc_plans.values()
        (step,) = [s for s in plan.dist_plan.steps if isinstance(s, MapShardStep) and s.private]
        ((position, base_slots),) = step.private
        instruction = plan.optimized[step.index]
        slots = kernel_slot_views(instruction.kernel)
        tile_step = plan.tiling.steps[step.index]
        positions = {
            id(base): index
            for index, base in enumerate(program_base_order(plan.optimized))
        }
        defuse = DefUse.analyze(plan.optimized)
        arguments = (step.index, slots, tile_step.local_slots)
        assert _private_bases(*arguments, (), positions, defuse) == step.private
        halo = HaloSpec(
            slot_positions=base_slots,
            base_position=position,
            stride0=1,
            min_row=0,
            max_row=1,
            row_bytes=8,
        )
        assert _private_bases(*arguments, (halo,), positions, defuse) == ()

    def test_no_stencil_base_of_the_heat_program_is_private(self):
        with config_override(
            parallel_tile_elements=64, parallel_serial_threshold=4, dist_num_workers=2
        ):
            session = Session(backend="dist", optimize=True)
            heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
            dist_plan = session.engine.last_plan.dist_plan
        halo_positions = {
            halo.base_position
            for step in dist_plan.steps
            if isinstance(step, MapShardStep)
            for halo in step.halos
        }
        assert halo_positions
        assert dist_plan.private_positions
        assert not halo_positions & dist_plan.private_positions


class TestPrivateBasesRideTheBlockedLaunch:
    """A worker launches the slots of its unmapped private bases as the
    template's kernel-local ones — block scratch of the same blocked launch
    the thread tier runs — on the interior, boundary and no-halo paths."""

    @pytest.fixture(scope="class")
    def heat_oracle(self):
        session = Session(backend="interpreter", optimize=False)
        return heat_equation(grid_size=24, iterations=3, session=session).to_numpy()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_with_block_scratch_at_every_pool_size(self, heat_oracle, workers):
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=workers,
        ):
            session = Session(backend="dist", optimize=True)
            out = heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
            stats = session.stats_history[-1]
            plan = session.engine.last_plan
            dist_plan = plan.dist_plan
        assert np.array_equal(out, heat_oracle)
        # Still no segment for a private base, and every shard launch of a
        # step reports the slots it kept in scratch.
        private_slots = sum(
            len(step.shards) * len(base_slots)
            for step in dist_plan.steps
            if isinstance(step, MapShardStep)
            for _, base_slots in step.private
        )
        assert dist_plan.private_positions and private_slots
        assert stats.template_slots_elided == private_slots
        assert stats.dist_bases_adopted == len(
            program_base_order(plan.optimized)
        ) - len(dist_plan.private_positions)

    def test_the_no_halo_path_elides_too(self):
        builder = ProgramBuilder()
        a, t, out = (builder.new_vector(64, name=name) for name in ("a", "t", "out"))
        builder.identity(a, 2.0)
        builder.log(t, a)
        builder.add(out, t, 1.0)
        builder.free(t)
        builder.sync(out)
        stats, plan = _run_planless(builder.build(), (out,))
        assert _private_names(plan) == {"t"}
        assert stats.template_slots_elided == stats.dist_shard_launches == 2

    def test_the_worker_owns_no_scratch(self):
        worker = _Worker(0, conn=None)
        assert not hasattr(worker, "private_scratch")
        assert not hasattr(worker, "_private_views")


class TestCorruptedPrivateSet:
    """Master and workers re-derive the adoption rule under ``check_ir``."""

    def _sum_program(self):
        builder = ProgramBuilder()
        a = builder.new_vector(64, name="a")
        b = builder.new_vector(64, name="b")
        out = builder.new_vector(64, name="out")
        builder.identity(a, 2.0)
        builder.identity(b, 3.0)
        builder.add(out, a, b)
        builder.sync(out)
        return builder.build()

    @staticmethod
    def _claim_the_synced_output(plan):
        steps = list(plan.steps)
        index = next(i for i, step in enumerate(steps) if isinstance(step, MapShardStep))
        steps[index] = dataclasses.replace(steps[index], private=((2, (0,)),))
        return dataclasses.replace(plan, steps=tuple(steps))

    def test_the_master_refuses_to_execute_it(self, monkeypatch):
        from repro.dist import backend as dist_backend

        genuine = dist_backend.build_dist_plan
        monkeypatch.setattr(
            dist_backend,
            "build_dist_plan",
            lambda *args: self._claim_the_synced_output(genuine(*args)),
        )
        with config_override(**TINY_TILES, dist_num_workers=2, check_ir=True):
            engine = ExecutionEngine(backend="dist", optimize=False)
            with pytest.raises(PlanCheckError, match="out of shared memory"):
                engine.execute(self._sum_program())

    def test_a_worker_refuses_to_load_it(self):
        program = self._sum_program()
        with config_override(**TINY_TILES):
            tiling = decompose(program, get_config())
            corrupted = self._claim_the_synced_output(build_dist_plan(program, tiling, 2))

        class Pipe:
            sent = []

            def send_bytes(self, data):
                self.sent.append(decode_frame(data))

        worker = _Worker(0, Pipe())
        payload = pickle.dumps((program, tiling, corrupted))
        with pytest.raises(PlanCheckError, match="out of shared memory"):
            worker.handle_load(make_frame("load", token="t", payload=payload, check=True))
        assert not Pipe.sent and "t" not in worker.plans
        # Without the knob only the structural validation runs.
        worker.handle_load(make_frame("load", token="t", payload=payload, check=False))
        assert Pipe.sent[-1]["kind"] == "loaded"
