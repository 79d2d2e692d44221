"""Property: the memory plan never changes a bit any caller can see.

Two flushes over one :class:`MemoryManager`, built on
:func:`~repro.workloads.generators.random_mixed_program`:

* flush 1 runs the generated program with a drawn fate for each of its
  outputs (synced, freed, or simply left) and a tail whose result ``r`` is
  born after a temporary of its size class died — so the plan puts it on
  that slot as its final occupant — next to a matrix ``kept`` carried to
  flush 2;
* flush 2 reads ``kept`` (storage from outside the program) and wholly
  redefines ``r`` — while it still holds flush 1's storage — after a slot
  was released: the plan's directive for it must simply be ignored and the
  slot it never claimed must go home with the plan.

Planned and unplanned (``memory_plan_enabled=False``) runs must leave every
live base with the same bytes on every executing tier, the plan check must
accept every plan, and freeing the results must return every byte.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.checks.plancheck import check_memory_plan
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import MemoryManager
from repro.utils.config import config_override
from repro.workloads.generators import random_mixed_program
from tests.tiers import on_tier

#: Every tier that executes for real (``parallel4``: see ``tests/tiers.py``).
EXECUTING_BACKENDS = ("interpreter", "parallel", "parallel4", "native", "dist")
ROWS, COLS = 8, 6
FATES = ("sync", "free", "leave")
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4, dist_num_workers=2)


def _two_flushes(seed, fates, sync_result, free_kept):
    generated, outputs = random_mixed_program(seed, num_instructions=8, rows=ROWS, cols=COLS)
    body = [i for i in generated if i.opcode is not OpCode.BH_SYNC]
    matrix = outputs[0]

    first = ProgramBuilder()
    product = first.new_matrix(ROWS, COLS, name="product")
    colsum = first.new_vector(COLS, name="colsum")
    total = first.new_vector(1, name="total")
    result = first.new_vector(1, name="r")
    kept = first.new_matrix(ROWS, COLS, name="kept")
    first.multiply(product, matrix, 0.5)
    first.multiply(kept, matrix, 0.25)
    first.add_reduce(colsum, product, axis=0)
    first.add_reduce(total, colsum)             # colsum (48 bytes) dies here
    first.multiply(result, total, 2.0)          # ... and r is born in its slot
    for view in (product, colsum, total):
        first.free(view)
    if sync_result:
        first.sync(result)
    for view, fate in zip(outputs, fates):
        if fate == "sync":
            first.sync(view)
        elif fate == "free":
            first.free(view)

    second = ProgramBuilder()
    shifted = second.new_matrix(ROWS, COLS, name="shifted")
    colsum2 = second.new_vector(COLS, name="colsum2")
    total2 = second.new_vector(1, name="total2")
    extra = second.new_vector(1, name="y")
    second.add(shifted, kept, 1.0)              # kept arrives from flush 1
    second.add_reduce(colsum2, shifted, axis=0)
    second.add_reduce(total2, colsum2)
    second.multiply(result, total2, 3.0)        # r redefined, storage in hand
    second.add(extra, total2, 1.0)
    for view in (shifted, colsum2, total2):
        second.free(view)
    if free_kept:
        second.free(kept)
    second.sync(result)
    second.sync(extra)
    return Program(body + list(first.build(validate=False))), second.build(validate=False)


def _run(tier, programs, planned):
    """Both flushes on one manager; per-flush snapshots of every live base."""
    memory = MemoryManager()
    snapshots, adopted = [], 0
    with config_override(
        **TINY_TILES, memory_plan_enabled=planned, check_ir=planned
    ), on_tier(tier) as backend:
        engine = ExecutionEngine(backend=backend, optimize=True)
        for program in programs:
            result = engine.execute(program, memory)
            snapshots.append(
                {id(base): memory.allocate(base).copy() for base in memory.live_bases()}
            )
            if planned:
                plan = engine.last_plan
                check_memory_plan(plan.optimized, plan.memory_plan)
                assert result.stats.plan_checks_run > 0
                adopted += plan.memory_plan.stats()["memory_plan_adopted_bases"]
    return memory, snapshots, adopted


@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fates=st.tuples(*[st.sampled_from(FATES)] * 4),
    sync_result=st.booleans(),
    free_kept=st.booleans(),
)
def test_planned_flushes_equal_unplanned_ones(backend, seed, fates, sync_result, free_kept):
    programs = _two_flushes(seed, fates, sync_result, free_kept)
    _, expected, _ = _run(backend, programs, planned=False)
    memory, actual, adopted = _run(backend, programs, planned=True)
    # Non-vacuous in every example: r took the dead column sums' slot.
    assert adopted > 0
    for flush, (planned, unplanned) in enumerate(zip(actual, expected)):
        assert planned.keys() == unplanned.keys(), f"flush {flush}: other bases live"
        for key in planned:
            assert planned[key].tobytes() == unplanned[key].tobytes(), f"flush {flush}"
    # The slot r did not claim in flush 2 went home with the plan, and
    # every result sends its buffer (an adopted slot's included) home.
    memory.clear_plan()
    assert not memory._slots
    for base in memory.live_bases():
        memory.free(base)
    assert memory.bytes_allocated == 0
