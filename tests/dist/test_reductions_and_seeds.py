"""Sharded reductions whose result is wider than their source, and seeded
flushes on a warm pool.

Two things that only show at a *sharded* size:

* NumPy's ``add.reduce`` / ``multiply.reduce`` count bools and widen
  ``int32`` in the platform integer, so one span's partial does not fit the
  source dtype.  The shared scratch the workers write their partials into
  is typed and sized with the dtype NumPy's reduce yields; typed by the
  source, ``monte_carlo_pi`` summed booleans and answered ``4/n``.
* A plan token is seed-free: a Monte-Carlo loop ships one ``load`` frame,
  not one per flush, the workers' plan tables stay flat, and the warm
  frames carry nothing of the seed.  What still accumulates — structurally
  distinct programs — is bounded by the master, which names what it evicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode import dtypes
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.dist import backend as dist_backend
from repro.dist.planner import MasterStep, ReduceShardStep, build_dist_plan
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.tiling import TileDecomposition, TileSpan, TiledMapStep, decompose
from repro.utils.config import config_override, get_config
from repro.workloads import monte_carlo_pi

WORKER_COUNTS = (1, 2, 4)

#: Above the default serial threshold (8192) and tile size: several spans.
SHARDED = 50_000


def _oracle_pi(samples):
    session = Session(backend="interpreter", optimize=False)
    return monte_carlo_pi(samples, session=session).to_numpy()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("samples", [20_000, 200_000])
def test_monte_carlo_pi_at_a_sharded_size(samples, workers):
    expected = _oracle_pi(samples)
    with config_override(dist_num_workers=workers):
        session = Session(backend="dist")
        actual = monte_carlo_pi(samples, session=session).to_numpy()
        stats = session.stats_history[-1]
    # The count of hits is an integer sum: exact in any combine order.
    assert np.array_equal(actual, expected), (actual, expected)
    assert abs(float(actual[0]) - np.pi) < 0.05
    assert stats.dist_shard_launches > 0, "the reduction never left the master"


def _reduction_program(source_dtype, reduce_name):
    """``source = f(random)`` stored as ``source_dtype``; ``out = reduce(source)``.

    Values are chosen so the reduction leaves the source dtype: thousands
    of ``True``, int32 terms whose sum passes 2**31 (and whose product
    wraps, like NumPy's), float32 factors around one.  The last arithmetic
    byte-code stores straight into the typed source (the interpreter's
    ``casting="unsafe"`` store), so no converting copy stands between them.
    """
    adding = reduce_name == "add_reduce"
    builder = ProgramBuilder()
    uniform = builder.new_vector(SHARDED)
    builder.random(uniform, 7)
    source = builder.new_vector(SHARDED, source_dtype)
    if source_dtype is dtypes.bool_:
        # add counts the True; multiply needs all True to say anything.
        builder.emit_binary(OpCode.BH_LESS, source, uniform, 0.5 if adding else 2.0)
    else:
        scale, shift = {
            (dtypes.int32, True): (2_000_000.0, 1.0),
            (dtypes.int32, False): (3.0, 1.0),
            (dtypes.float32, True): (1.0, 0.25),
            (dtypes.float32, False): (2e-4, 0.9999),
        }[source_dtype, adding]
        scaled = builder.new_vector(SHARDED)
        builder.multiply(scaled, uniform, scale)
        builder.add(source, scaled, shift)
    out = builder.new_vector(1)
    getattr(builder, reduce_name)(out, source, axis=0)
    builder.sync(out)
    return builder.build(), out


@pytest.mark.parametrize("reduce_name", ["add_reduce", "multiply_reduce"])
@pytest.mark.parametrize(
    "source_dtype", [dtypes.bool_, dtypes.int32, dtypes.float32], ids=lambda d: d.name
)
def test_sharded_reduction_keeps_numpys_result_dtype(source_dtype, reduce_name):
    program, out = _reduction_program(source_dtype, reduce_name)
    oracle = ExecutionEngine(backend="interpreter", optimize=False)
    expected = oracle.execute(program).value(out)
    if source_dtype is dtypes.int32 and reduce_name == "add_reduce":
        assert expected[0] > 2**31, "the sum never left int32; the case is vacuous"
    for workers in WORKER_COUNTS:
        program, out = _reduction_program(source_dtype, reduce_name)
        with config_override(dist_num_workers=workers):
            engine = ExecutionEngine(backend="dist", optimize=True)
            result = engine.execute(program)
            plan = engine.last_plan
        reduce_steps = [s for s in plan.dist_plan.steps if isinstance(s, ReduceShardStep)]
        assert reduce_steps and reduce_steps[0].combine, "the reduction was not sharded"
        reduced = plan.optimized[reduce_steps[0].index].inputs[0]
        assert reduced.dtype is source_dtype, "the optimizer reduced something else"
        actual = result.value(out)
        context = f"{reduce_name} over {source_dtype.name} at {workers} workers"
        if source_dtype is dtypes.float32:
            # Tree-combined float partials reassociate, as on the thread tier.
            np.testing.assert_allclose(actual, expected, rtol=1e-4, err_msg=context)
        else:
            assert np.array_equal(actual, expected), (context, actual, expected)


def test_a_step_that_reads_a_data_operand_stays_on_the_master():
    """The worker's program is the token's first flush's: whatever reads a
    seed runs where the program is rebound, whatever the tiling says."""
    builder = ProgramBuilder()
    noise = builder.new_vector(64)
    builder.random(noise, 11)
    builder.sync(noise)
    program = builder.build()
    tiling = decompose(program, get_config())
    assert isinstance(build_dist_plan(program, tiling, 2).steps[0], MasterStep)
    # Even a tiling that (wrongly) called the generator splittable.
    forged = TileDecomposition(
        steps=(TiledMapStep(index=0, spans=(TileSpan(0, 32), TileSpan(32, 32))),)
        + tiling.steps[1:]
    )
    step = build_dist_plan(program, forged, 2).steps[0]
    assert isinstance(step, MasterStep) and step.reason == "reads a data operand"


def _integers(value):
    """Every integer reachable inside a frame."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _integers(key)
            yield from _integers(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _integers(item)


@pytest.fixture
def fresh_pools():
    """Worker plan tables are per pool and pools are process-wide: start
    from none, and leave none behind with a table another test would meet."""
    dist_backend._shutdown_all_pools()
    yield
    dist_backend._shutdown_all_pools()


def test_seeded_flushes_ship_one_plan_and_no_seed(fresh_pools, monkeypatch):
    oracle = Session(backend="interpreter", optimize=False)
    frames = []
    send = dist_backend.WorkerPool.send

    def tapped(pool, worker_id, frame, stats):
        frames.append(frame)
        return send(pool, worker_id, frame, stats)

    with config_override(dist_num_workers=2):
        session = Session(backend="dist")
        # Two flush shapes: the first frees nothing, the rest free the
        # previous result.
        for _ in range(2):
            monte_carlo_pi(20_000, session=session).to_numpy()
            monte_carlo_pi(20_000, session=oracle).to_numpy()
        monkeypatch.setattr(dist_backend.WorkerPool, "send", tapped)
        first_seed = session.next_seed() + 1
        oracle.next_seed()
        for _ in range(300):
            actual = monte_carlo_pi(20_000, session=session).to_numpy()
            expected = monte_carlo_pi(20_000, session=oracle).to_numpy()
            assert np.array_equal(actual, expected)
        seeds = set(range(first_seed, session.next_seed()))
        stats = session.cache_stats()
    assert stats["dist_loads_shipped"] <= 2
    assert stats["dist_worker_plans"] <= 2
    assert stats["plan_builds"] <= 2
    assert {frame["kind"] for frame in frames} == {"map", "step"}
    assert len(seeds) == 600 and not seeds.intersection(_integers(frames))


def _distinct_program(length):
    builder = ProgramBuilder()
    vector = builder.new_vector(length)
    builder.identity(vector, 1.0)
    builder.add(vector, vector, 2.0)
    builder.sync(vector)
    return builder.build(), vector


def test_the_plan_table_is_bounded_by_the_master(fresh_pools, monkeypatch):
    capacity = 4
    monkeypatch.setattr(dist_backend, "PLAN_TABLE_CAPACITY", capacity)
    lengths = [10_000 + 16 * index for index in range(capacity + 3)]
    with config_override(dist_num_workers=2):
        engine = ExecutionEngine(backend="dist", optimize=True)
        for length in lengths:
            program, vector = _distinct_program(length)
            assert np.array_equal(engine.execute(program).value(vector), np.full(length, 3.0))
        stats = engine.cache_stats()
        assert stats["dist_loads_shipped"] == len(lengths)
        assert stats["dist_worker_plans"] <= capacity
        assert stats["dist_plan_table_size"] <= capacity
        assert stats["dist_plan_table_evictions"] == 3
        # The first token was evicted on both sides: using it again loads
        # it again, and runs correctly.
        program, vector = _distinct_program(lengths[0])
        assert np.array_equal(engine.execute(program).value(vector), np.full(lengths[0], 3.0))
        stats = engine.cache_stats()
        assert stats["dist_loads_shipped"] == len(lengths) + 1
        assert stats["dist_worker_plans"] <= capacity
        # A token still in the table does not.
        program, vector = _distinct_program(lengths[-1])
        engine.execute(program)
        assert engine.cache_stats()["dist_loads_shipped"] == len(lengths) + 1
