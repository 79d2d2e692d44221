"""Differential testing: the distributed backend against the NumPy oracle.

The sixth backend axis.  The dist backend executes across worker
*processes* over shared memory, which multiplies the ways results can
diverge beyond what the in-process backends exercise: a shard descriptor
can mis-slice, a halo exchange can fetch the wrong rows (or not fire at
all), a recycled segment can leak a previous tenant's bytes, combine
partials can be dealt to workers in an order that changes the reduction
tree.  The comparison discipline matches the in-process harness exactly:

* element-wise programs must be **bitwise** identical to the unoptimized
  reference interpreter at 1, 2 and 4 workers — sharding slices rows but
  never reorders arithmetic;
* the stencil workload (halo exchange on every iteration) must be bitwise
  at every worker count;
* mixed programs with full 1-D reductions get the same tolerance as the
  parallel backend (tree-combined partials reassociate) and **no looser**
  — and because the shard plan keeps the *plan's* span set at any worker
  count, dist results must additionally be bitwise stable across worker
  counts.

The memory-binding axes ride along: slot-shared segments, worker-private
scratch and waived zero fills (memory plan on, zero policy ``auto``) must be
bitwise what dedicated, zero-filled segments produce (plan off / policy
``always``) at every worker count and in both halo modes.

Non-vacuity is asserted separately: multi-process shard launches and at
least one halo exchange must actually have happened, otherwise a backend
that silently ran everything on the master would pass every comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.plan import program_base_order
from repro.utils.config import config_override
from repro.workloads import heat_equation
from repro.workloads.generators import random_elementwise_program, random_mixed_program

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
@pytest.mark.parametrize("halo_mode", ["overlap", "blocking"])
def test_stencil_memory_binding_axes_are_bitwise(plan_enabled, zero_policy, halo_mode):
    session = Session(backend="interpreter", optimize=False)
    expected = heat_equation(grid_size=24, iterations=3, session=session).to_numpy()
    for workers in WORKER_COUNTS:
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=4,
            dist_num_workers=workers,
            dist_halo_mode=halo_mode,
            memory_plan_enabled=plan_enabled,
            memory_zero_policy=zero_policy,
        ):
            dist_session = Session(backend="dist", optimize=True)
            for _ in range(2):  # the second flush frees the first's result
                actual = heat_equation(
                    grid_size=24, iterations=3, session=dist_session
                ).to_numpy()
                assert np.array_equal(actual, expected), (
                    f"stencil, {workers} workers, {halo_mode}, plan "
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
    """Multi-process shard launches and halo exchanges actually happened."""
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
        stencil_stats = session.stats_history[-1]
    assert stencil_stats.dist_halo_exchanges >= 1, "no halo exchange fired"
