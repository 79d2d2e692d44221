"""Differential testing: the seed axis.

A ``BH_RANDOM`` seed is an argument of a plan, not part of its identity:
flushes that differ only in their seeds share one plan (and one schedule,
one tiling, one pricing, one dist plan token), and each still draws its own
stream.  Every way that can go wrong is a wrong answer, not a crash — a
replay that repeats the *first* flush's seed, a seed re-seated on the wrong
generator after the optimizer retargeted, reordered or dropped one — so the
axis compares every flush against the unoptimized interpreter oracle
stepped to the same seeds:

* three consecutive flushes per program — seeds ``s``, ``s'`` and ``s``
  again (a sibling session on the same engine starts over at ``s``) — on
  every executing backend, through the plan path (``optimize=True``) and
  plan-less (``optimize=False`` hands ``backend.execute`` the raw program);
* bitwise where the program has no floating-point reduction, the harness's
  usual tolerance otherwise;
* flushes two and three build nothing: ``plan_builds`` and the plan-less
  caches' miss counters stay where flush one left them, and ``dist`` ships
  no further ``load`` frame.

*Nobody looked* is checked rather than trusted: each program is built once
more — fingerprint, optimizer, memory plan, tiling, native lowering, dist
planner — with every data operand replaced by a constant whose value raises
when read.  The build must complete; executing the same program must raise.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import Constant
from repro.bytecode.program import Program
from repro.core.pipeline import default_pipeline
from repro.frontend import random as bh_random
from repro.frontend.session import Session
from repro.runtime.backend import Backend
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.plan import canonical_program_walk, data_operand_positions
from repro.utils.config import config_override
from repro.utils.errors import ExecutionError
from repro.workloads import black_scholes, gaussian_blur, monte_carlo_pi
from repro.workloads.generators import random_mixed_program
from tests.tiers import on_tier

#: Every backend that computes results (and ``parallel4``, see ``tests/tiers.py``).
BACKENDS = ("interpreter", "parallel", "parallel4", "native", "dist")

#: Same relaxation the other axes give reassociated reductions.
RTOL, ATOL = 1e-6, 1e-8

#: Tiny tiles force multi-tile / multi-shard paths on small arrays.
SETTINGS = dict(parallel_tile_elements=16, parallel_serial_threshold=4, dist_num_workers=2)

#: ``random_mixed_program`` seeds whose programs contain generators (three
#: and five of them, interleaved with reductions and element-wise kernels).
MIXED_SEEDS = (1007, 1016)


# --------------------------------------------------------------------------- #
# The programs.  Each records through ``session``, flushes once and returns
# ``(what must stay alive, observed arrays)``: results are kept alive so
# that consecutive flushes have one shape (no BH_FREE of a previous result).
# --------------------------------------------------------------------------- #


def _observe(array):
    return array, [array.to_numpy()]


def _pi(session):
    return _observe(monte_carlo_pi(600, session=session))


def _black_scholes(session):
    return _observe(black_scholes(500, session=session))


def _blur(session):
    return _observe(gaussian_blur(20, 18, iterations=2, session=session))


def _generator_copied(session):
    """Store forwarding's shape: a producer whose only reader is a full copy."""
    return _observe(bh_random.random(400, session=session).copy())


def _generator_nobody_reads(session):
    """DCE drops the first generator; the second must keep *its* seed."""
    unread = bh_random.random(400, session=session)
    kept = bh_random.random(400, session=session)
    result = kept + 1.0
    del unread, kept  # freed by this flush, not at the front of the next
    return _observe(result)


def _two_generators_one_kernel(session):
    """The fusion scheduler is free to reorder the two generators."""
    first = bh_random.random(400, session=session)
    second = bh_random.random(400, session=session)
    result = first * 2.0 - second
    del first, second
    return _observe(result)


def _mixed(seed, session):
    """``random_mixed_program`` with its generators drawing session seeds."""
    program, synced = random_mixed_program(seed, num_instructions=10)
    generators = 0
    for instruction in program:
        if instruction.opcode is OpCode.BH_RANDOM:
            generators += 1
            instruction = instruction.replace(
                operands=(instruction.out, Constant(session.next_seed()))
            )
        session.record(instruction)
    assert generators, f"random_mixed_program({seed}) has no generator"
    result = session.flush()
    return program, [result.value(view) for view in synced]


#: name -> (program, bitwise against the oracle?)
CASES = {
    "monte_carlo_pi": (_pi, False),
    "black_scholes": (_black_scholes, True),
    "gaussian_blur": (_blur, True),
    "generator_copied": (_generator_copied, True),
    "generator_nobody_reads": (_generator_nobody_reads, True),
    "two_generators_one_kernel": (_two_generators_one_kernel, True),
    **{
        f"random_mixed_program_{seed}": (partial(_mixed, seed), False)
        for seed in MIXED_SEEDS
    },
}


def _builds(engine) -> tuple:
    """Everything a flush can build: plans, and what the plan-less paths cache."""
    stats = engine.cache_stats()
    return (
        stats["plan_builds"],
        stats.get("tiling_cache_misses", 0),
        stats.get("schedule_cache_misses", 0),
        stats.get("dist_loads_shipped", 0),
    )


def _three_flushes(case, backend, optimize):
    """Seeds ``s``, ``s'``, ``s``: two flushes of one session, then one of a
    sibling session on the same engine (its seed counter starts over)."""
    first = Session(backend=backend, optimize=optimize)
    alive, outputs, builds = [], [], []
    for session in (first, first, Session(engine=first.engine)):
        keep, values = case(session)
        alive.append(keep)
        outputs.append(values)
        builds.append(_builds(first.engine))
    return outputs, builds


@pytest.mark.parametrize("optimize", [True, False], ids=["plan", "planless"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_flush_draws_its_own_seeds_from_one_plan(name, backend, optimize):
    case, exact = CASES[name]
    with config_override(**SETTINGS):
        expected, _ = _three_flushes(case, "interpreter", optimize=False)
        with on_tier(backend) as tier:
            actual, builds = _three_flushes(case, tier, optimize)
    for flush, (values, references) in enumerate(zip(actual, expected)):
        for index, (value, reference) in enumerate(zip(values, references)):
            context = f"{name} on {backend}, flush {flush}, output {index}"
            if exact:
                assert np.array_equal(value, reference, equal_nan=True), context
            else:
                np.testing.assert_allclose(
                    value, reference, rtol=RTOL, atol=ATOL, equal_nan=True, err_msg=context
                )
    # The axis is not vacuous: the second flush really drew other numbers.
    assert not all(
        np.array_equal(first, second, equal_nan=True)
        for first, second in zip(expected[0], expected[1])
    )
    assert builds[1] == builds[0] and builds[2] == builds[0], (
        f"{name} on {backend}: a seeded flush built something "
        f"(plan builds, tiling / schedule / pricing misses, dist loads): {builds}"
    )


# --------------------------------------------------------------------------- #
# Nobody looked
# --------------------------------------------------------------------------- #


class _Looked(Exception):
    """Something read the value of a data operand."""


class _Poisoned(Constant):
    """A data operand that may be carried anywhere and read by nobody."""

    __slots__ = ()

    def __init__(self, dtype) -> None:
        self.dtype = dtype

    @property
    def value(self):
        raise _Looked("the value of a data operand was read")


class _Capture(Backend):
    """Runs flushes on the interpreter and keeps the programs it was handed."""

    name = "capture"

    def __init__(self) -> None:
        self.programs = []
        self._interpreter = NumPyInterpreter()

    def execute(self, program, memory=None):
        self.programs.append(program)
        return self._interpreter.execute(program, memory)


def _poisoned(program: Program) -> Program:
    def swap(instruction):
        operands = list(instruction.operands)
        for position in data_operand_positions(instruction):
            operands[position] = _Poisoned(operands[position].dtype)
        return instruction.replace(operands=operands)

    return Program(swap(instruction) for instruction in program)


@pytest.mark.parametrize("backend", ["native", "dist"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_build_reads_no_data_operand(name, backend):
    capture = _Capture()
    with config_override(**SETTINGS):
        keep = CASES[name][0](Session(backend=capture, optimize=False))
        program = _poisoned(capture.programs[-1])
        poisoned = canonical_program_walk(program)[2]
        assert poisoned and all(isinstance(value, _Poisoned) for value in poisoned)
        engine = ExecutionEngine(backend=backend, optimize=True)
        # Fingerprint, optimizer, then the backend's whole prepare_plan:
        # memory plan, tiling, native lowering, dist planner.
        plan = engine.prime(program, default_pipeline().run(program))
        assert plan.source_values == poisoned
        if backend == "native":
            # The poison is live: executing the very same program reads it.
            with pytest.raises(ExecutionError) as raised:
                engine.execute(program)
            assert isinstance(raised.value.__cause__, _Looked)
    del keep
