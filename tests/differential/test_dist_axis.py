"""Differential testing: the distributed backend against the NumPy oracle.

The sixth backend axis.  The dist backend executes across worker
*processes* over shared memory, which multiplies the ways results can
diverge beyond what the in-process backends exercise: a shard descriptor
can mis-slice, a shard can read its neighbours' rows from the wrong place,
a recycled segment can leak a previous tenant's bytes, combine partials
can be dealt to workers in an order that changes the reduction tree.  The comparison discipline matches the in-process harness exactly:

* element-wise programs must be **bitwise** identical to the unoptimized
  reference interpreter at 1, 2 and 4 workers — sharding slices rows but
  never reorders arithmetic;
* the stencil workload (every shard reads rows beyond its own on every
  iteration) must be bitwise at every worker count, and so must the
  steps whose views reverse rows, stride columns, or write one window of
  the base they read;
* mixed programs with full 1-D reductions get the same tolerance as the
  parallel backend (tree-combined partials reassociate) and **no looser**
  — and because the shard plan keeps the *plan's* span set at any worker
  count, dist results must additionally be bitwise stable across worker
  counts.

The memory-binding axes ride along: slot-shared segments, worker-private
scratch and waived zero fills (memory plan on, zero policy ``auto``) must be
bitwise what dedicated, zero-filled segments produce (plan off / policy
``always``) at every worker count.

Non-vacuity is asserted separately: multi-process shard launches must
actually have happened and the stencil steps must be shard steps,
otherwise a backend that silently ran everything on the master would pass
every comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.dist.planner import MapShardStep, MasterStep, ReduceShardStep
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.plan import program_base_order
from repro.utils.config import config_override
from repro.workloads import heat_equation
from repro.workloads.generators import random_elementwise_program, random_mixed_program
from tests.tiers import runs

#: Same relaxation the parallel backend gets for reassociated reductions.
RTOL, ATOL = 1e-6, 1e-8

#: Same tiny tiles as the in-process harness: force multi-shard paths.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

WORKER_COUNTS = (1, 2, 4)

ELEMENTWISE_SEEDS = tuple(range(0, 24))
MIXED_SEEDS = tuple(range(1000, 1016))


def _oracle(program, synced):
    engine = ExecutionEngine(backend="interpreter", optimize=False)
    result = engine.execute(program)
    return [result.value(view) for view in synced]


def _dist(program, synced, workers):
    with config_override(**TINY_TILES, dist_num_workers=workers):
        engine = ExecutionEngine(backend="dist", optimize=True)
        result = engine.execute(program)
        return [result.value(view) for view in synced], result.stats


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS)
def test_elementwise_bitwise_vs_oracle(seed):
    program, synced = random_elementwise_program(
        seed, num_instructions=12, vector_length=24
    )
    expected = _oracle(program, synced)
    for workers in WORKER_COUNTS:
        program, synced = random_elementwise_program(
            seed, num_instructions=12, vector_length=24
        )
        values, _ = _dist(program, synced, workers)
        for index, (actual, reference) in enumerate(zip(values, expected)):
            assert np.array_equal(actual, reference, equal_nan=True), (
                f"dist({workers} workers) vs oracle, seed {seed}, output {index}"
            )


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_mixed_tolerance_vs_oracle_and_bitwise_across_worker_counts(seed):
    program, synced = random_mixed_program(seed, num_instructions=10)
    expected = _oracle(program, synced)
    per_workers = {}
    for workers in WORKER_COUNTS:
        program, synced = random_mixed_program(seed, num_instructions=10)
        values, _ = _dist(program, synced, workers)
        per_workers[workers] = values
        for index, (actual, reference) in enumerate(zip(values, expected)):
            np.testing.assert_allclose(
                actual,
                reference,
                rtol=RTOL,
                atol=ATOL,
                equal_nan=True,
                err_msg=f"dist({workers} workers) vs oracle, seed {seed}, output {index}",
            )
    # The shard plan deals the *plan's* spans at every worker count, so the
    # combine tree is identical: dist vs dist must be bitwise.
    for workers in WORKER_COUNTS[1:]:
        for index, (actual, reference) in enumerate(
            zip(per_workers[workers], per_workers[1])
        ):
            assert np.array_equal(actual, reference, equal_nan=True), (
                f"dist({workers}) vs dist(1), seed {seed}, output {index}"
            )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_stencil_bitwise_vs_oracle(workers):
    session = Session(backend="interpreter", optimize=False)
    expected = heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
    with config_override(
        parallel_tile_elements=64,
        parallel_serial_threshold=4,
        dist_num_workers=workers,
    ):
        dist_session = Session(backend="dist", optimize=True)
        actual = heat_equation(
            grid_size=24, iterations=3, session=dist_session
        ).to_numpy()
    assert np.array_equal(actual, expected), f"stencil at {workers} workers"


#: (memory_plan_enabled, memory_zero_policy): the default first, then the
#: settings that switch slot sharing / private scratch / fill waivers off.
MEMORY_BINDINGS = ((True, "auto"), (True, "always"), (False, "auto"), (False, "always"))


def _with_temporaries_freed(seed):
    """A random program whose unsynced bases are freed at the end.

    The generators never free anything, so nothing in their programs is a
    temporary; with the frees the shard plan finds kernel-local bases and
    the memory plan waives fills.  (Slot sharing needs temporaries that
    cross kernel boundaries: the stencil below has them.)
    """
    if seed < 1000:
        program, synced = random_elementwise_program(
            seed, num_instructions=12, vector_length=24
        )
    else:
        program, synced = random_mixed_program(seed, num_instructions=10)
    observed = {id(view.base) for view in synced}
    for base in program_base_order(program):
        if id(base) not in observed:
            program.append(Instruction(OpCode.BH_FREE, (View.full(base),)))
    return program, synced


def _bound(seed, workers, plan_enabled, zero_policy):
    program, synced = _with_temporaries_freed(seed)
    with config_override(
        **TINY_TILES,
        dist_num_workers=workers,
        memory_plan_enabled=plan_enabled,
        memory_zero_policy=zero_policy,
    ):
        engine = ExecutionEngine(backend="dist", optimize=True)
        result = engine.execute(program)
        return [result.value(view) for view in synced], engine.last_plan


@pytest.mark.parametrize("plan_enabled, zero_policy", MEMORY_BINDINGS)
def test_memory_binding_axes_are_bitwise(plan_enabled, zero_policy):
    """Every binding equals dedicated zero-filled segments, bit for bit."""
    private = 0
    for seed in ELEMENTWISE_SEEDS[::2] + MIXED_SEEDS[::2]:
        baseline, _ = _bound(seed, 1, plan_enabled=False, zero_policy="always")
        if seed < 1000:
            oracle = _oracle(*_with_temporaries_freed(seed))
            for actual, reference in zip(baseline, oracle):
                assert np.array_equal(actual, reference, equal_nan=True), seed
        for workers in WORKER_COUNTS:
            values, plan = _bound(seed, workers, plan_enabled, zero_policy)
            if plan_enabled:
                private += len(plan.dist_plan.private_positions)
            for index, (actual, reference) in enumerate(zip(values, baseline)):
                assert np.array_equal(actual, reference, equal_nan=True), (
                    f"plan {plan_enabled}, zero policy {zero_policy}, "
                    f"{workers} workers, seed {seed}, output {index}"
                )
    if plan_enabled:
        assert private > 0, "no program kept a kernel-local base out of shared memory"


@pytest.mark.parametrize("plan_enabled, zero_policy", MEMORY_BINDINGS)
def test_stencil_memory_binding_axes_are_bitwise(plan_enabled, zero_policy):
    session = Session(backend="interpreter", optimize=False)
    expected = heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
    for workers in WORKER_COUNTS:
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=workers,
            memory_plan_enabled=plan_enabled,
            memory_zero_policy=zero_policy,
        ):
            dist_session = Session(backend="dist", optimize=True)
            for _ in range(2):  # the second flush frees the first's result
                actual = heat_equation(
                    grid_size=24, iterations=3, session=dist_session
                ).to_numpy()
                assert np.array_equal(actual, expected), (
                    f"stencil, {workers} workers, plan "
                    f"{plan_enabled}, zero policy {zero_policy}"
                )
            stats = dist_session.stats_history[-1]
            plan = dist_session.engine.last_plan
        if plan_enabled:
            assert plan.memory_plan.aliased_bases > 0, "no slot segment was shared"
            assert plan.dist_plan.private_positions, "no base stayed out of shared memory"
        # 13 bases besides the previous result (each step stores straight
        # into the next grid); the 9 kernel-local ones stay out.
        assert stats.dist_bases_adopted == (4 if plan_enabled else 13)
        assert (stats.dist_zero_fill_bytes == 0) == (plan_enabled and zero_policy == "auto")


def test_axis_is_not_vacuous():
    """Multi-process shard launches actually happened, stencil steps too."""
    program, synced = random_elementwise_program(3, num_instructions=12, vector_length=24)
    _, stats = _dist(program, synced, 2)
    assert stats.dist_workers_used == 2
    assert stats.dist_shard_launches >= 2, "no multi-process shard launches"
    assert stats.dist_payload_bytes == 0, "array payload crossed the control channel"
    with config_override(
        parallel_tile_elements=64,
        parallel_serial_threshold=4,
        dist_num_workers=2,
    ):
        session = Session(backend="dist", optimize=True)
        heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
        plan = session.engine.last_plan
    fused = [
        step for step in plan.dist_plan.steps if plan.optimized[step.index].is_fused()
    ]
    assert fused, "the stencil has no fused step"
    assert all(
        isinstance(step, MapShardStep) and len(step.shards) == 2 for step in fused
    ), "a stencil step stayed on the master"


# --------------------------------------------------------------------------- #
# The map-reduce axis on worker processes
# --------------------------------------------------------------------------- #

#: ``(producer dtype, reduction, shape, axis, converted dtype)``: sizes on
#: both sides of the shard threshold (64 below) and of one span (512), both
#: 2-D axes, a one-wide dim, and PR 20's class — a bool and an int32 sum at
#: a sharded size.
DIST_MAP_REDUCE_CELLS = {
    "bool_count": ("bool", "add", (1700,), 0, None),
    "bool_any": ("bool", "maximum", (1700,), 0, None),
    "int32_sum": ("int32", "add", (1700,), 0, None),
    "int64_product": ("int64", "multiply", (1700,), 0, None),
    "float32_sum": ("float32", "add", (1700,), 0, None),
    "float64_sum": ("float64", "add", (1700,), 0, None),
    "float64_min": ("float64", "minimum", (1700,), 0, None),
    "float64_sum_below_threshold": ("float64", "add", (63,), 0, None),
    "float64_sum_one_span": ("float64", "add", (500,), 0, None),
    "float64_rows_axis0": ("float64", "add", (30, 40), 0, None),
    "float64_rows_axis1": ("float64", "maximum", (30, 40), 1, None),
    "bool_rows_axis0": ("bool", "add", (30, 40), 0, None),
    "int32_one_column": ("int32", "add", (600, 1), 0, None),
    "converting_float64_to_int32": ("float64", "add", (1700,), 0, "int32"),
    "converting_bool_to_float64": ("bool", "add", (1700,), 0, "float64"),
}


MASTER_CELLS = ("float64_sum_below_threshold", "int32_one_column")


@pytest.mark.parametrize("planned", [True, False], ids=["plan", "planless"])
@pytest.mark.parametrize("name", sorted(DIST_MAP_REDUCE_CELLS))
def test_map_reduce_axis_on_workers(name, planned, map_reduce_program):
    """A kernel ending in a reduction, sharded: per worker count and flush
    bitwise the tail-free schedule, bitwise across worker counts and flushes
    (:func:`runs`), the oracle's bits or the reduction tolerance — and the
    producers' bases never mapped."""
    from repro.bytecode import dtypes
    from repro.runtime.backend import get_backend

    dtype, reduction, shape, axis, convert = DIST_MAP_REDUCE_CELLS[name]

    def build():
        return map_reduce_program(
            dtypes.from_name(f"BH_{dtype.upper()}"),
            reduction,
            shape,
            axis,
            dtypes.from_name(f"BH_{convert.upper()}") if convert else None,
        )

    program, out = build()
    oracle = _oracle(program, [out])[0]
    per_workers = {}
    for workers in WORKER_COUNTS:
        values = {}
        for scheduler in ("dag", "consecutive"):
            program, out = build()
            with config_override(
                parallel_tile_elements=512,
                parallel_serial_threshold=64,
                dist_num_workers=workers,
                fusion_scheduler=scheduler,
            ):
                if planned:
                    engine = ExecutionEngine(backend="dist", optimize=True)
                    execute = engine.execute
                else:
                    execute = get_backend("dist").execute
                flushes = [execute(program) for _ in range(runs("dist"))]
                result = flushes[-1]
                if planned:
                    plan = engine.last_plan
                for flush in flushes:
                    assert flush.value(out).tobytes() == result.value(out).tobytes(), name
                values[scheduler] = result.value(out)
            assert result.stats.dist_payload_bytes == 0
            if planned and scheduler == "dag":
                assert plan.fusion_schedule.reduction_tails == 1
                sharded = [
                    step for step in plan.dist_plan.distributed_steps if step.private
                ]
                # Below the threshold, or one row to tile: the master's.  Else
                # every base the members store stays out of shared memory.
                assert len(sharded) == (name not in MASTER_CELLS), name
                assert all(len(step.private) >= 2 for step in sharded), name
        assert values["dag"].tobytes() == values["consecutive"].tobytes(), (name, workers)
        per_workers[workers] = values["dag"]
    for workers in WORKER_COUNTS[1:]:
        assert per_workers[workers].tobytes() == per_workers[1].tobytes(), (name, workers)
    if oracle.dtype.kind == "f":
        rtol = max(RTOL, shape[axis] * float(np.finfo(oracle.dtype).eps))
        np.testing.assert_allclose(per_workers[2], oracle, rtol=rtol, err_msg=name)
    else:
        assert per_workers[2].tobytes() == oracle.tobytes(), (name, per_workers[2], oracle)


@pytest.mark.parametrize("length,sharded", [(8191, False), (8192, True)])
def test_map_reduce_at_the_default_shard_threshold(length, sharded, map_reduce_program):
    """Nothing scaled down: one element decides master or workers, for the
    kernel that ends in the reduction as for the bare reduction."""
    from repro.bytecode import dtypes
    from repro.dist.planner import ReduceShardStep

    program, out = map_reduce_program(dtypes.bool_, "add", (length,))
    oracle = _oracle(program, [out])[0]
    for scheduler in ("dag", "consecutive"):
        with config_override(dist_num_workers=2, fusion_scheduler=scheduler):
            engine = ExecutionEngine(backend="dist", optimize=True)
            actual = engine.execute(program).value(out)
        shards = [
            step for step in engine.last_plan.dist_plan.steps
            if isinstance(step, ReduceShardStep)
        ]
        assert len(shards) == int(sharded), scheduler
        assert actual.tobytes() == oracle.tobytes(), scheduler


def _row_reversed(builder):
    """``out = g + g[::-1]``: two views of g with opposite row strides."""
    grid = builder.new_matrix(12, 8, name="grid")
    builder.random(grid, 5)
    out = builder.new_matrix(12, 8, name="out")
    builder.add(out, grid, View(grid.base, 11 * 8, (12, 8), (-8, 1)))
    return out


def _column_strided(builder):
    """``out = g.T[:-1] + g.T[1:]``: rows one element apart, columns a
    whole row of g apart."""
    grid = builder.new_matrix(12, 12, name="grid")
    builder.random(grid, 5)
    out = builder.new_matrix(11, 12, name="out")
    builder.add(
        out, View(grid.base, 0, (11, 12), (1, 12)), View(grid.base, 1, (11, 12), (1, 12))
    )
    return out


def _written_beside_its_reads(builder):
    """``g[128:192] = g[0:64] + g[1:65]``: one base, written and read
    through disjoint windows in one step."""
    grid = builder.new_vector(192, name="grid")
    builder.random(grid, 5)
    builder.add(
        View(grid.base, 128, (64,), (1,)),
        View(grid.base, 0, (64,), (1,)),
        View(grid.base, 1, (64,), (1,)),
    )
    return grid


def _shifted_producer(builder):
    """``sum(g[:-1] + g[1:])``: a kernel that ends in the reduction, its
    producer reading two windows of one base."""
    grid = builder.new_vector(1701, name="grid")
    builder.random(grid, 5)
    pairs = builder.new_vector(1700, name="pairs")
    builder.add(pairs, View(grid.base, 0, (1700,), (1,)), View(grid.base, 1, (1700,), (1,)))
    total = builder.new_vector(1, name="total")
    builder.add_reduce(total, pairs)
    builder.free(pairs)
    builder.free(grid)
    return total


#: name -> (program body returning the synced view, tile settings).
READS_IN_PLACE = {
    "row_reversed": (_row_reversed, TINY_TILES),
    "column_strided": (_column_strided, TINY_TILES),
    "written_beside_its_reads": (_written_beside_its_reads, TINY_TILES),
    "shifted_producer": (
        _shifted_producer,
        dict(parallel_tile_elements=512, parallel_serial_threshold=64),
    ),
}


@pytest.mark.parametrize("name", sorted(READS_IN_PLACE))
def test_a_shard_reads_beyond_its_rows_in_place(name):
    """Steps whose views reach past a shard's rows — reversed, strided,
    beside a write of their base, feeding a reduction — are shard steps at
    every worker count, with no ``dist:`` fallback reason, and their bits
    are the oracle's (a reduction: the tail-free schedule's, within the
    reduction tolerance of the oracle)."""
    body, tiles = READS_IN_PLACE[name]

    def build():
        builder = ProgramBuilder()
        out = body(builder)
        builder.sync(out)
        return builder.build(), out

    program, out = build()
    oracle = _oracle(program, [out])[0]
    for workers in WORKER_COUNTS:
        values = {}
        for scheduler in ("dag", "consecutive"):
            program, out = build()
            with config_override(**tiles, dist_num_workers=workers, fusion_scheduler=scheduler):
                engine = ExecutionEngine(backend="dist", optimize=True)
                result = engine.execute(program)
                values[scheduler] = result.value(out)
            plan = engine.last_plan
            kept = [
                step.reason
                for step in plan.dist_plan.steps
                if isinstance(step, MasterStep) and step.reason not in ("system", "generator")
            ]
            assert kept == [], (name, workers, scheduler)
            if scheduler == "dag":
                # One step reads the windows: the shifted producer's kernel
                # ends in its reduction.
                kind = ReduceShardStep if name == "shifted_producer" else MapShardStep
                sharded = [type(step) for step in plan.dist_plan.distributed_steps]
                assert sharded == [kind], (name, workers)
            assert not any(
                reason.startswith("dist:") for reason in result.stats.native_fallback_reasons
            ), (name, workers, scheduler)
        assert values["dag"].tobytes() == values["consecutive"].tobytes(), (name, workers)
        if name == "shifted_producer":
            np.testing.assert_allclose(values["dag"], oracle, rtol=RTOL)
        else:
            assert values["dag"].tobytes() == oracle.tobytes(), (name, workers)
