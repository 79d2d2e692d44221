"""Tests for plan-time memory planning and the recycling buffer pool."""

import numpy as np
import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.view import View
from repro.core.analysis import live_intervals
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import BufferPool, MemoryManager, size_class
from repro.runtime.memplan import (
    MemoryPlan,
    attach_memory_plan,
    bind_memory_plan,
)
from repro.runtime.plan import program_base_order
from repro.utils.config import config_override, get_config


def _chain_program(length=16, temporaries=3):
    """out = (((src + 1) + 1) ...) through freed intermediate temporaries."""
    builder = ProgramBuilder()
    src = builder.new_vector(length)
    out = builder.new_vector(length)
    current = src
    temps = []
    for _ in range(temporaries):
        temp = builder.new_vector(length)
        builder.add(temp, current, 1.0)
        temps.append(temp)
        current = temp
    builder.identity(out, current)
    for temp in temps:
        builder.free(temp)
    builder.sync(out)
    return builder.build(), src, out, temps


class TestLiveIntervals:
    def test_temporary_classification(self):
        program, src, out, temps = _chain_program()
        intervals = {i.base.name: i for i in live_intervals(program)}
        # src is read before ever being written: an input, not a temporary.
        assert not intervals[src.base.name].defined_in_program
        assert not intervals[src.base.name].is_temporary
        # out is synced: observable, never aliasable.
        assert intervals[out.base.name].synced
        assert not intervals[out.base.name].is_temporary
        for temp in temps:
            interval = intervals[temp.base.name]
            assert interval.is_temporary
            assert interval.fully_defined_before_read

    def test_trailing_free_does_not_extend_last_use(self):
        program, _, _, temps = _chain_program()
        intervals = {i.base.name: i for i in live_intervals(program)}
        first = intervals[temps[0].base.name]
        # Frees trail at the end of the batch; last_use stays at the read.
        assert first.last_use < first.end

    def test_partial_write_needs_zero_fill(self):
        builder = ProgramBuilder()
        base = builder.new_base(8)
        half = View(base, 0, (4,), (1,))
        full = View.full(base)
        sink = builder.new_vector(8)
        builder.identity(half, 1.0)         # partial write ...
        builder.identity(sink, full)        # ... then a full read
        builder.free(full)
        builder.sync(sink)
        program = builder.build()
        intervals = {i.base.name: i for i in live_intervals(program)}
        interval = intervals[base.name]
        assert interval.defined_in_program
        assert not interval.fully_defined_before_read
        assert interval.is_temporary  # aliasable, but must be zero-filled


class TestMemoryPlan:
    def test_disjoint_temporaries_share_a_slot(self):
        program, _, _, temps = _chain_program(temporaries=4)
        plan = MemoryPlan.plan(program, get_config())
        assert plan.aliased_bases >= 1
        assert plan.num_slots < len(temps)
        assert plan.planned_peak_bytes < plan.unplanned_peak_bytes

    def test_synced_bases_never_aliased(self):
        """An observable base is never *followed* in a slot.

        ``src`` arrives from outside and keeps dedicated storage; the synced,
        never-freed ``out`` is born here and takes a released slot — as its
        last occupant, after every other occupant's last use.
        """
        program, src, out, temps = _chain_program()
        plan = MemoryPlan.plan(program, get_config())
        order = program_base_order(program)
        positions = {base.name: position for position, base in enumerate(order)}
        intervals = {i.base.name: i for i in live_intervals(program)}
        directive = plan.directives.get(positions[src.base.name])
        assert directive is None or directive.slot is None
        adopter = plan.directives[positions[out.base.name]]
        assert adopter.slot is not None and adopter.adopts
        assert adopter.slot_nbytes >= out.base.nbytes
        assert plan.adopted_bases == plan.stats()["memory_plan_adopted_bases"] == 1
        for position, directive in plan.directives.items():
            if directive.slot != adopter.slot or directive is adopter:
                continue
            assert not directive.adopts
            earlier = intervals[order[position].name]
            assert earlier.last_use < intervals[out.base.name].start

    def test_an_adopted_result_keeps_its_bits_and_goes_home_when_freed(self):
        program, src, out, temps = _chain_program(length=32)
        plan = MemoryPlan.plan(program, get_config())
        assert plan.adopted_bases == 1

        def run(directives):
            memory = MemoryManager()
            memory.set_data(src.base, np.arange(32.0))
            level = memory.bytes_allocated
            memory.apply_plan(directives)
            from repro.runtime.interpreter import NumPyInterpreter

            NumPyInterpreter().execute(program, memory)
            memory.clear_plan()
            return memory, level

        unplanned, _ = run(None)
        planned, level = run(plan.bind(program))
        # Every later instruction (the trailing frees of the slot's earlier
        # occupants, the sync) has run and the plan is gone: the result
        # still owns its bytes.
        assert planned.read_view(out).tobytes() == unplanned.read_view(out).tobytes()
        assert not planned._slots and not planned._slot_of
        assert planned.bytes_allocated == level + out.base.nbytes
        planned.free(out.base)
        assert planned.bytes_allocated == level
        assert planned.pool.bytes_held > 0  # sent home, not dropped

    def test_a_small_result_never_pins_a_large_slot(self):
        """Adoption closes the slot and outlives the plan: same size class only."""
        builder = ProgramBuilder()
        grid = builder.new_vector(1024)
        halved = builder.new_vector(1024)
        norm = builder.new_vector(1)
        out = builder.new_vector(1024)
        builder.identity(grid, 3.0)
        builder.multiply(halved, grid, 0.5)      # grid (8 KiB) dies here
        builder.add_reduce(norm, halved)         # a scalar is born: not in 8 KiB
        builder.add(out, halved, 1.0)            # a grid is born: in grid's slot
        builder.free(grid)
        builder.free(halved)
        builder.sync(norm)
        builder.sync(out)
        program = builder.build()
        plan = MemoryPlan.plan(program, get_config())
        order = program_base_order(program)
        positions = {base.name: position for position, base in enumerate(order)}
        scalar = plan.directives.get(positions[norm.base.name])
        assert scalar is None or scalar.slot is None
        adopter = plan.directives[positions[out.base.name]]
        assert adopter.adopts and adopter.slot == plan.directives[positions[grid.base.name]].slot
        assert plan.adopted_bases == 1

    def test_zero_fill_waived_only_when_fully_defined(self):
        program, _, _, temps = _chain_program()
        plan = MemoryPlan.plan(program, get_config())
        order = program_base_order(program)
        positions = {base.name: position for position, base in enumerate(order)}
        for temp in temps:
            directive = plan.directives[positions[temp.base.name]]
            assert directive.zero_fill is False

    def test_always_policy_disables_waivers(self):
        program, _, _, _ = _chain_program()
        with config_override(memory_zero_policy="always"):
            plan = MemoryPlan.plan(program, get_config())
        assert plan.zero_fills_waived == 0
        assert all(d.zero_fill for d in plan.directives.values())

    def test_bind_maps_positionally_onto_fresh_bases(self):
        program, _, _, _ = _chain_program()
        plan = MemoryPlan.plan(program, get_config())
        bound = plan.bind(program)
        order = program_base_order(program)
        for position, directive in plan.directives.items():
            assert bound[id(order[position])] == directive

    def test_execution_with_aliasing_matches_unplanned(self):
        program, src, out, _ = _chain_program(length=32, temporaries=5)
        plan = MemoryPlan.plan(program, get_config())
        assert plan.aliased_bases >= 1

        def run(directives):
            memory = MemoryManager()
            memory.set_data(src.base, np.arange(32.0))
            memory.apply_plan(directives)
            from repro.runtime.interpreter import NumPyInterpreter

            return NumPyInterpreter().execute(program, memory).value(out)

        unplanned = run(None)
        planned = run(plan.bind(program))
        assert np.array_equal(planned, unplanned)

    def test_slot_grows_to_largest_occupant(self):
        builder = ProgramBuilder()
        small = builder.new_vector(8)
        big = builder.new_vector(64)
        sink = builder.new_vector(64)
        sink_head = View(sink.base, 0, (8,), (1,))
        builder.identity(small, 1.0)
        builder.identity(sink_head, small)
        builder.free(small)
        builder.identity(big, 2.0)
        builder.add(sink, sink, big)
        builder.free(big)
        builder.sync(sink)
        program = builder.build(validate=False)
        plan = MemoryPlan.plan(program, get_config())
        slotted = [d for d in plan.directives.values() if d.slot is not None]
        if len({d.slot for d in slotted}) == 1 and len(slotted) == 2:
            # Both temporaries share the grown slot: capacity fits the big one.
            assert all(d.slot_nbytes == 64 * 8 for d in slotted)


class TestBufferPool:
    def test_size_classes_are_powers_of_two(self):
        assert size_class(1) == 64
        assert size_class(64) == 64
        assert size_class(65) == 128
        assert size_class(8000) == 8192

    def test_acquire_release_recycles(self):
        pool = BufferPool(max_bytes=1 << 20)
        first = pool.acquire(100)[0]
        pool.release(first)
        second = pool.acquire(100)[0]
        assert second is first
        assert pool.hits == 1
        assert pool.misses == 1
        assert pool.bytes_reused == 100

    def test_byte_cap_discards(self):
        pool = BufferPool(max_bytes=128)
        buffer = pool.acquire(1024)[0]  # class 1024 > cap
        pool.release(buffer)
        assert pool.bytes_held == 0
        assert pool.discards == 1

    def test_manager_recycles_freed_buffers(self):
        memory = MemoryManager(pool=BufferPool(max_bytes=1 << 20))
        first = BaseArray(100)
        memory.allocate(first)
        memory.free(first)
        second = BaseArray(100)
        storage = memory.allocate(second)
        assert memory.host_allocations == 1
        assert memory.pool.hits == 1
        # Recycled storage is still zero-initialised without a waiver.
        assert np.all(storage == 0.0)

    def test_recycled_buffer_zeroed_without_directive(self):
        memory = MemoryManager(pool=BufferPool(max_bytes=1 << 20))
        first = BaseArray(10)
        memory.allocate(first)[:] = 7.0
        memory.free(first)
        second = BaseArray(10)
        assert np.all(memory.allocate(second) == 0.0)

    def test_pool_disabled_by_config(self):
        with config_override(memory_pool_max_bytes=0):
            memory = MemoryManager()
        # A zero byte cap means nothing is ever parked: every free falls
        # through to the host and every allocation is fresh.
        assert memory.pool.max_bytes == 0
        base = BaseArray(10)
        memory.allocate(base)
        memory.free(base)
        memory.allocate(BaseArray(10))
        assert memory.host_allocations == 2
        assert memory.pool.hits == 0
        assert memory.pool.bytes_held == 0


class TestEngineIntegration:
    def _program(self):
        return _chain_program(length=24, temporaries=4)

    def test_planning_toggles_rekey_plan_cache(self):
        program, _, _, _ = self._program()
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        with config_override(memory_plan_enabled=True):
            engine.execute(program)
        with config_override(memory_plan_enabled=False):
            engine.execute(program)
        # Both executions were misses: the config signature re-keyed.
        assert engine.plan_cache.misses == 2
        assert engine.plan_cache.hits == 0

    def test_plan_carries_memory_plan_and_replays_it(self):
        program, _, out, _ = self._program()
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        first = engine.execute(program)
        plan = engine.last_plan
        assert plan.memory_plan is not None
        memory_plan = plan.memory_plan
        second = engine.execute(program)
        assert engine.last_plan.memory_plan is memory_plan  # replayed, not rebuilt
        assert np.array_equal(first.value(out), second.value(out))
        assert second.stats.plan_cache_hits == 1
        assert second.stats.planned_peak_bytes == memory_plan.planned_peak_bytes
        assert second.stats.actual_peak_bytes > 0

    def test_disabled_planning_attaches_nothing(self):
        program, _, _, _ = self._program()
        with config_override(memory_plan_enabled=False):
            engine = ExecutionEngine(backend="interpreter", optimize=True)
            engine.execute(program)
            assert engine.last_plan.memory_plan is None

    def test_all_backends_agree_with_planning(self):
        program, _, out, _ = self._program()
        results = {}
        for backend in ("interpreter", "parallel"):
            engine = ExecutionEngine(backend=backend, optimize=True)
            results[backend] = engine.execute(program).value(out)
        reference = results["interpreter"]
        for backend, value in results.items():
            assert np.array_equal(value, reference), backend

    def test_stale_directives_cleared_on_unplanned_flush(self):
        program, src, out, _ = self._program()
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        memory = MemoryManager()
        engine.execute(program, memory)
        assert memory._directives  # the planned flush installed directives
        engine.optimize = False
        engine.execute(program, memory)
        # The plan-less flush must have cleared the previous directives.
        assert memory._directives == {}

    def test_attach_is_idempotent_per_signature(self):
        program, _, _, _ = self._program()
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        engine.execute(program)
        plan = engine.last_plan
        memory_plan = plan.memory_plan
        attach_memory_plan(plan)
        assert plan.memory_plan == memory_plan


class TestManagerPlanDirectives:
    def test_aliased_bases_share_storage_sequentially(self):
        program, _, _, temps = _chain_program(length=16, temporaries=4)
        plan = MemoryPlan.plan(program, get_config())
        memory = MemoryManager()
        memory.apply_plan(plan.bind(program))
        shared = [
            temp.base for temp in temps
            if memory._directives.get(id(temp.base)) is not None
            and memory._directives[id(temp.base)].slot is not None
        ]
        assert len(shared) >= 2
        by_slot = {}
        for base in shared:
            by_slot.setdefault(memory._directives[id(base)].slot, []).append(base)
        slot, occupants = max(by_slot.items(), key=lambda item: len(item[1]))
        assert len(occupants) >= 2
        first_storage = memory.allocate(occupants[0])
        first_storage[:] = 3.25
        memory.free(occupants[0])
        second_storage = memory.allocate(occupants[1], zero=False)
        # Same raw buffer, handed over without a zero fill.
        assert second_storage[0] == 3.25

    def test_new_plan_never_adopts_stale_occupied_slot(self):
        """Regression: slot ids are plan-scoped, not global.

        If an execution dies between a temporary claiming a slot and its
        trailing BH_FREE, the occupied slot buffer survives the next
        ``apply_plan``.  The next plan's identically-numbered slot must get
        its own (correctly sized) buffer, never adopt the stale one.
        """
        from repro.runtime.memory import BufferDirective

        memory = MemoryManager(pool=BufferPool(max_bytes=1 << 20))
        survivor = BaseArray(8)  # 64 bytes
        memory.apply_plan({id(survivor): BufferDirective(slot=0, slot_nbytes=64, zero_fill=True)})
        stale_storage = memory.allocate(survivor)
        stale_storage[:] = 1.5
        # No free: the occupant survives into the next plan.
        bigger = BaseArray(100)  # 800 bytes, same slot id, new plan
        memory.apply_plan({id(bigger): BufferDirective(slot=0, slot_nbytes=800, zero_fill=True)})
        storage = memory.allocate(bigger)
        assert storage.size == 100  # full-capacity fresh buffer, not a stale carve
        storage[:] = 2.0
        # The survivor's bytes are untouched: the buffers are distinct.
        assert np.all(memory.allocate(survivor) == 1.5)

    def test_apply_plan_releases_previous_slots_to_pool(self):
        program, _, _, _ = _chain_program(length=16, temporaries=4)
        plan = MemoryPlan.plan(program, get_config())
        memory = MemoryManager(pool=BufferPool(max_bytes=1 << 20))
        directives = plan.bind(program)
        memory.apply_plan(directives)
        slotted = {key for key, d in directives.items() if d.slot is not None}
        occupant = next(
            base for base in program_base_order(program) if id(base) in slotted
        )
        memory.allocate(occupant)
        memory.free(occupant)
        held_before = memory.pool.bytes_held
        memory.apply_plan(None)
        # The idle slot buffer was recycled through the pool, not leaked.
        assert memory.pool.bytes_held > held_before
        assert memory.bytes_allocated == 0
