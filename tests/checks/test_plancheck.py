"""Unit tests for the plan-artifact soundness checks (`repro.checks.plancheck`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.checks.plancheck import (
    check_dist_adoption,
    check_memory_plan,
    check_plan,
    check_schedule,
    check_tiling,
    maybe_check_plan,
)
from repro.core.schedule import compute_schedule
from repro.dist.planner import DistPlan, MapShardStep, MasterStep, build_dist_plan
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import BufferDirective
from repro.runtime.memplan import MemoryPlan
from repro.runtime.plan import program_base_order
from repro.runtime.tiling import TileSpan, TiledMapStep, decompose
from repro.utils.config import config_override, get_config
from repro.utils.errors import PlanCheckError
from repro.workloads.generators import random_elementwise_program

TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)


def _temp_chain_program():
    """Three freed temporaries with staggered lifetimes, one synced output."""
    builder = ProgramBuilder()
    t1 = builder.new_vector(32, name="t1")
    t2 = builder.new_vector(32, name="t2")
    t3 = builder.new_vector(32, name="t3")
    y = builder.new_vector(32, name="y")
    builder.identity(t1, 1)          # 0: t1 live [0, 1]
    builder.add(t2, t1, 1)           # 1: t2 live [1, 2]
    builder.multiply(t3, t2, 2)      # 2: t3 live [2, 3]
    builder.add(y, t3, 1)            # 3
    builder.sync(y)                  # 4
    builder.free(t1)
    builder.free(t2)
    builder.free(t3)
    return builder.build()


def _position_of(program, view):
    order = program_base_order(program)
    for position, base in enumerate(order):
        if base is view.base:
            return position
    raise AssertionError(f"base {view.base.name!r} not in program order")


def _real_plan(seed=3):
    program, _ = random_elementwise_program(seed, num_instructions=12, vector_length=24)
    with config_override(**TINY_TILES, memory_plan_enabled=True):
        engine = ExecutionEngine(backend="parallel", optimize=True)
        engine.execute(program)
        plan = engine.last_plan
    assert plan is not None
    return plan


class TestMemoryPlan:
    def test_real_memory_plans_pass(self):
        for seed in (3, 7, 11):
            plan = _real_plan(seed)
            if plan.memory_plan is not None:
                check_memory_plan(plan.optimized, plan.memory_plan)

    def test_planner_output_on_temp_chain_passes(self):
        program = _temp_chain_program()
        plan = MemoryPlan.plan(program, get_config())
        check_memory_plan(program, plan)
        assert plan.aliased_bases > 0, "the chain should exercise slot sharing"
        # The synced output takes t2's released slot as its final occupant
        # (t3, its own operand, still holds t1's).
        y = plan.directives[_position_of(program, program[3].out)]
        t2 = plan.directives[_position_of(program, program[1].out)]
        assert y.adopts and not t2.adopts and y.slot == t2.slot
        assert plan.adopted_bases == 1

    def test_directive_for_unknown_position(self):
        program = _temp_chain_program()
        plan = MemoryPlan.plan(program, get_config())
        plan.directives[999] = BufferDirective(slot=None, slot_nbytes=0, zero_fill=True)
        with pytest.raises(PlanCheckError, match="position 999"):
            check_memory_plan(program, plan)

    def test_overlapping_lifetimes_on_one_slot(self):
        program = _temp_chain_program()
        views = {i.out.base.name: i.out for i in program[:3]}
        t1, t2 = views["t1"], views["t2"]
        nbytes = max(t1.base.nbytes, t2.base.nbytes)
        directives = {
            _position_of(program, t1): BufferDirective(0, nbytes, True),
            _position_of(program, t2): BufferDirective(0, nbytes, True),
        }
        corrupted = MemoryPlan(directives=directives)
        # t1 is live through instruction 1 and t2 starts there: sharing a
        # slot would let t2's store destroy t1 before its final read.
        with pytest.raises(PlanCheckError, match="overlapping lifetimes"):
            check_memory_plan(program, corrupted)

    def test_slot_smaller_than_occupant(self):
        program = _temp_chain_program()
        t1 = program[0].out
        directives = {_position_of(program, t1): BufferDirective(0, 1, True)}
        with pytest.raises(PlanCheckError, match="needs"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_observable_base_may_not_share_a_slot(self):
        """... as an ordinary occupant: the plan would keep its buffer."""
        program = _temp_chain_program()
        y = program[3].out  # synced, never freed: observable
        directives = {
            _position_of(program, y): BufferDirective(0, y.base.nbytes, True)
        }
        with pytest.raises(PlanCheckError, match="observable"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_a_temporary_may_not_take_a_slot_away(self):
        program = _temp_chain_program()
        t1 = program[0].out
        directives = {
            _position_of(program, t1): BufferDirective(0, t1.base.nbytes, True, adopts=True)
        }
        with pytest.raises(PlanCheckError, match="a temporary"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def _two_results_program(self):
        """``y1`` and ``y2`` synced with disjoint lifetimes, ``t2`` a late temporary."""
        builder = ProgramBuilder()
        t1, y1, y2, t2, y3 = (
            builder.new_vector(32, name=name) for name in ("t1", "y1", "y2", "t2", "y3")
        )
        builder.identity(t1, 1)          # 0
        builder.add(y1, t1, 1)           # 1
        builder.sync(y1)                 # 2: y1 live [1, 2]
        builder.multiply(y2, t1, 2)      # 3
        builder.sync(y2)                 # 4: y2 live [3, 4]
        builder.add(t2, t1, 3)           # 5: t2 live [5, 6]
        builder.add(y3, t2, 1)           # 6
        builder.sync(y3)                 # 7
        builder.free(t1)
        builder.free(t2)
        program = builder.build()
        return program, {i.out.base.name: i.out for i in program if i.out is not None}

    def _adopter(self, view, slot=0, nbytes=None):
        nbytes = view.base.nbytes if nbytes is None else nbytes
        return BufferDirective(slot, nbytes, True, adopts=True)

    def test_genuine_plan_of_the_two_results_program_passes(self):
        program, _ = self._two_results_program()
        check_memory_plan(program, MemoryPlan.plan(program, get_config()))

    def test_two_adopters_in_one_slot(self):
        program, views = self._two_results_program()
        directives = {
            _position_of(program, views[name]): self._adopter(views[name])
            for name in ("y1", "y2")
        }
        # Disjoint lifetimes are not enough: y1 is still the caller's
        # after instruction 2, and y2's store would overwrite it.
        with pytest.raises(PlanCheckError, match="only be a slot's last occupant"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_an_adopter_followed_by_a_temporary(self):
        program, views = self._two_results_program()
        t2 = views["t2"]
        directives = {
            _position_of(program, views["y1"]): self._adopter(views["y1"]),
            _position_of(program, t2): BufferDirective(0, t2.base.nbytes, True),
        }
        with pytest.raises(PlanCheckError, match="only be a slot's last occupant"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_an_adopter_read_before_its_first_write(self):
        builder = ProgramBuilder()
        t = builder.new_vector(8, name="t")
        y = builder.new_vector(8, name="y")
        builder.identity(t, 1)
        builder.add(y, y, t)       # y's value arrives from outside the program
        builder.sync(y)
        builder.free(t)
        program = builder.build()
        directives = {_position_of(program, y): self._adopter(y)}
        with pytest.raises(PlanCheckError, match="read before its first write"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_an_adopter_larger_than_its_slot(self):
        program, views = self._two_results_program()
        y1 = views["y1"]
        directives = {
            _position_of(program, y1): self._adopter(y1, nbytes=y1.base.nbytes - 8)
        }
        with pytest.raises(PlanCheckError, match="needs"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_an_adopter_overlapping_the_occupant_before_it(self):
        program, views = self._two_results_program()
        t1 = views["t1"]  # live through instruction 5, y1 starts at 1
        directives = {
            _position_of(program, t1): BufferDirective(0, t1.base.nbytes, True),
            _position_of(program, views["y1"]): self._adopter(views["y1"]),
        }
        with pytest.raises(PlanCheckError, match="overlapping lifetimes"):
            check_memory_plan(program, MemoryPlan(directives=directives))

    def test_zero_fill_waiver_needs_full_definition(self):
        builder = ProgramBuilder()
        t = builder.new_vector(8, name="t")
        y = builder.new_vector(8, name="y")
        half = View(t.base, 0, (4,))
        builder.identity(half, 1)  # only half of t is ever written
        builder.add(y, t, 1)       # ... but all of it is read
        builder.sync(y)
        builder.free(t)
        program = builder.build()
        directives = {
            _position_of(program, t): BufferDirective(None, t.base.nbytes, False)
        }
        with pytest.raises(PlanCheckError, match="not fully written"):
            check_memory_plan(program, MemoryPlan(directives=directives))


class TestSchedule:
    def test_real_schedule_passes(self):
        program = _temp_chain_program()
        schedule = compute_schedule(program, get_config())
        check_schedule(program, schedule)

    def test_reversed_order_violates_edges(self):
        program = _temp_chain_program()
        schedule = compute_schedule(program, get_config())
        reversed_items = tuple(reversed(schedule.items))
        corrupted = dataclasses.replace(schedule, items=reversed_items)
        with pytest.raises(PlanCheckError, match="dependency edge"):
            check_schedule(program, corrupted)

    def test_non_permutation_rejected(self):
        program = _temp_chain_program()
        schedule = compute_schedule(program, get_config())
        corrupted = dataclasses.replace(schedule, items=schedule.items[:-1])
        with pytest.raises(PlanCheckError, match="not a permutation"):
            check_schedule(program, corrupted)

    def test_non_elementwise_cluster_rejected(self):
        builder = ProgramBuilder()
        v = builder.new_matrix(4, 4)
        s = builder.new_vector(4)
        builder.identity(v, 1)
        builder.add_reduce(s, v, 0)
        builder.sync(s)
        program = builder.build()
        schedule = compute_schedule(program, get_config())
        # A reduction may close a kernel of element-wise byte-codes ...
        check_schedule(program, dataclasses.replace(schedule, items=((0, 1), (2,))))
        # ... but it never opens one, and a system byte-code never joins.
        corrupted = dataclasses.replace(schedule, items=((0,), (1, 2)))
        with pytest.raises(PlanCheckError, match="only .*element-wise"):
            check_schedule(program, corrupted)


class TestTiling:
    def _tiled_plan(self):
        for seed in range(3, 20):
            plan = _real_plan(seed)
            tiling = plan.tiling
            if tiling is not None and any(
                isinstance(step, TiledMapStep) and len(step.spans) > 1
                for step in tiling.steps
            ):
                return plan
        raise AssertionError("no seed produced a multi-span tiled map step")

    def test_real_tiling_passes(self):
        plan = self._tiled_plan()
        check_tiling(plan.optimized, plan.tiling)

    def test_incomplete_partition_rejected(self):
        plan = self._tiled_plan()
        steps = []
        corrupted_one = False
        for step in plan.tiling.steps:
            if not corrupted_one and isinstance(step, TiledMapStep) and len(step.spans) > 1:
                steps.append(dataclasses.replace(step, spans=step.spans[:-1]))
                corrupted_one = True
            else:
                steps.append(step)
        corrupted = dataclasses.replace(plan.tiling, steps=tuple(steps))
        with pytest.raises(PlanCheckError, match="cover"):
            check_tiling(plan.optimized, corrupted)

    def test_out_of_range_step_rejected(self):
        plan = self._tiled_plan()
        steps = list(plan.tiling.steps)
        target = next(
            i for i, s in enumerate(steps) if isinstance(s, TiledMapStep)
        )
        steps[target] = dataclasses.replace(steps[target], index=len(plan.optimized) + 7)
        corrupted = dataclasses.replace(plan.tiling, steps=tuple(steps))
        with pytest.raises(PlanCheckError, match="only has"):
            check_tiling(plan.optimized, corrupted)


class TestDistAdoption:
    """A base the shard plan keeps out of shared memory must be provably
    invisible outside its one kernel (no worker processes needed here)."""

    def _plan(self, load_first=False):
        """``a = 2; t = a * 3 (or t + a); out = t + 1``: one fused kernel."""
        builder = ProgramBuilder()
        a = builder.new_vector(64, name="a")
        t = builder.new_vector(64, name="t")
        out = builder.new_vector(64, name="out")
        builder.identity(a, 2.0)
        if load_first:
            builder.add(t, t, a)
        else:
            builder.multiply(t, a, 3.0)
        builder.add(out, t, 1.0)
        builder.sync(out)
        builder.free(t)
        program = builder.build()
        with config_override(**TINY_TILES):
            scheduled = compute_schedule(program, get_config()).materialize(program)
            dist_plan = build_dist_plan(scheduled, decompose(scheduled, get_config()), 2)
        return scheduled, dist_plan

    @staticmethod
    def _claiming(dist_plan, name, program, **changes):
        """``dist_plan`` with base ``name`` added to its map step's private set."""
        order = program_base_order(program)
        position = next(i for i, base in enumerate(order) if base.name == name)
        steps = list(dist_plan.steps)
        index = next(i for i, s in enumerate(steps) if isinstance(s, MapShardStep))
        steps[index] = dataclasses.replace(
            steps[index], private=((position, (0,)),), **changes
        )
        return dataclasses.replace(dist_plan, steps=tuple(steps)), position

    def test_the_planner_output_passes_and_is_not_vacuous(self):
        program, dist_plan = self._plan()
        order = program_base_order(program)
        assert [order[p].name for p in dist_plan.private_positions] == ["t"]
        check_dist_adoption(program, dist_plan)

    def test_a_synced_base_may_not_be_private(self):
        program, dist_plan = self._plan()
        corrupted, _ = self._claiming(dist_plan, "out", program)
        with pytest.raises(PlanCheckError, match="syncs it"):
            check_dist_adoption(program, corrupted)

    def test_a_base_that_is_never_freed_may_not_be_private(self):
        program, dist_plan = self._plan()
        corrupted, _ = self._claiming(dist_plan, "a", program)
        with pytest.raises(PlanCheckError, match="never frees it"):
            check_dist_adoption(program, corrupted)

    def test_a_base_another_instruction_touches_may_not_be_private(self):
        builder = ProgramBuilder()
        a = builder.new_vector(64, name="a")
        total = builder.new_vector(1, name="total")
        builder.identity(a, 2.0)
        builder.add_reduce(total, a, axis=0)
        builder.sync(total)
        builder.free(a)
        program = builder.build()
        with config_override(**TINY_TILES):
            dist_plan = build_dist_plan(program, decompose(program, get_config()), 2)
        corrupted, _ = self._claiming(dist_plan, "a", program)
        with pytest.raises(PlanCheckError, match="also accesses it"):
            check_dist_adoption(program, corrupted)

    def test_a_base_loaded_before_it_is_stored_may_not_be_private(self):
        program, dist_plan = self._plan(load_first=True)
        assert not dist_plan.private_positions
        corrupted, _ = self._claiming(dist_plan, "t", program)
        with pytest.raises(PlanCheckError, match="before storing it"):
            check_dist_adoption(program, corrupted)

    def test_a_private_base_read_through_a_shifted_window_is_rejected(self):
        # ``t[0:64] = a * 3; out = t[1:65] + 1`` as one kernel: the second
        # byte-code loads a window of t the first did not store.
        builder = ProgramBuilder()
        a = builder.new_vector(64, name="a")
        t = builder.new_vector(65, name="t")
        out = builder.new_vector(64, name="out")
        builder.multiply(View(t.base, 0, (64,), (1,)), a, 3.0)
        builder.add(out, View(t.base, 1, (64,), (1,)), 1.0)
        builder.sync(out)
        builder.free(t)
        store, load, sync, free = builder.build()
        program = Program(
            [Instruction(OpCode.BH_FUSED, (), kernel=(store, load)), sync, free]
        )
        position = next(
            i for i, base in enumerate(program_base_order(program)) if base.name == "t"
        )
        shards = (TileSpan(0, 32), TileSpan(32, 32))
        claimed = DistPlan(
            num_workers=2,
            steps=(
                MapShardStep(index=0, shards=shards, private=((position, (0, 3)),)),
                MasterStep(index=1, reason="system"),
                MasterStep(index=2, reason="system"),
            ),
        )
        with pytest.raises(PlanCheckError, match="before storing it"):
            check_dist_adoption(program, claimed)

    def test_an_out_of_range_position_is_rejected(self):
        program, dist_plan = self._plan()
        steps = list(dist_plan.steps)
        index = next(i for i, s in enumerate(steps) if isinstance(s, MapShardStep))
        steps[index] = dataclasses.replace(steps[index], private=((99, (0,)),))
        with pytest.raises(PlanCheckError, match="only has"):
            check_dist_adoption(program, dataclasses.replace(dist_plan, steps=tuple(steps)))

    def test_an_addressed_base_may_not_be_listed_as_only_freed(self):
        program, dist_plan = self._plan()
        assert dist_plan.free_only == frozenset()
        order = program_base_order(program)
        position = next(i for i, base in enumerate(order) if base.name == "a")
        corrupted = dataclasses.replace(dist_plan, free_only=frozenset({position}))
        with pytest.raises(PlanCheckError, match="as only freed"):
            check_dist_adoption(program, corrupted)


class TestPlanGate:
    def test_check_plan_counts_artifacts(self):
        plan = _real_plan()
        checked = check_plan(plan)
        assert checked >= 1

    def test_maybe_check_plan_respects_the_knob(self):
        plan = _real_plan()
        before = plan.plan_checks_run
        maybe_check_plan(plan, get_config())  # knob off: must not touch the plan
        assert plan.plan_checks_run == before
        with config_override(check_ir=True):
            maybe_check_plan(plan, get_config())
        assert plan.plan_checks_run > before

    def test_corrupted_cached_plan_cannot_execute(self):
        """The acceptance property: a poisoned cached artifact is caught at
        the execution gate, not silently replayed."""
        program, _ = random_elementwise_program(3, num_instructions=12, vector_length=24)
        with config_override(**TINY_TILES, memory_plan_enabled=True, check_ir=True):
            engine = ExecutionEngine(backend="parallel", optimize=True)
            engine.execute(program)
            plan = engine.last_plan
            assert plan is not None and plan.memory_plan is not None
            plan.memory_plan.directives[999] = BufferDirective(None, 0, True)
            with pytest.raises(PlanCheckError):
                engine.execute(program)
