"""Differential axis: the static checking layer must be observationally inert.

``check_ir`` turns on the between-pass IR verifier and the plan-artifact
soundness checks.  Both are read-only analyzers, so two properties must
hold simultaneously on the randomized program corpus:

1. every backend produces bitwise-identical results with checks on and
   off (the checks may abort a broken compile, never perturb a sound one),
2. the checks actually ran (non-vacuity) — an axis where the analyzers
   silently short-circuited would prove nothing about the real pipeline.

A clean run over this corpus is also the strongest false-positive test we
have: every legal pass output and every planner artifact the corpus can
produce flows through the analyzers, and a single spurious
``IRCheckError``/``PlanCheckError`` fails the axis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checks import COUNTERS
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override
from repro.workloads.generators import random_elementwise_program, random_mixed_program

BACKENDS = ("interpreter", "jit", "parallel", "native")

#: Tiny tiles force the tiled/planned code paths (and therefore the tiling
#: and memory-plan checkers) even on the generator's small arrays.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

ELEMENTWISE_SEEDS = tuple(range(12))
MIXED_SEEDS = tuple(range(1000, 1008))


def _execute(program, views, backend, check_ir):
    with config_override(**TINY_TILES, check_ir=check_ir, memory_plan_enabled=True):
        engine = ExecutionEngine(backend=backend, optimize=True)
        result = engine.execute(program)
        return [result.value(view) for view in views], result.stats


def _assert_bitwise(actual, expected, context):
    assert np.array_equal(actual, expected, equal_nan=True), (
        f"{context}: results differ bitwise\nexpected={expected!r}\nactual={actual!r}"
    )


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS + MIXED_SEEDS)
def test_check_ir_is_bitwise_invisible(seed):
    """checks on vs. off: bitwise-identical results on every backend."""
    generator = random_elementwise_program if seed < 1000 else random_mixed_program
    program, synced = generator(seed)
    for backend in BACKENDS:
        unchecked, _ = _execute(program, synced, backend, check_ir=False)
        checked, _ = _execute(program, synced, backend, check_ir=True)
        for index, (actual, expected) in enumerate(zip(checked, unchecked)):
            _assert_bitwise(
                actual,
                expected,
                f"{backend} checked vs unchecked (seed {seed}), output {index}",
            )


def test_check_ir_axis_is_not_vacuous():
    """The axis above must have exercised both analyzer families.

    Replays a slice of the corpus and asserts the process-wide counters
    moved: between-pass IR checks during optimization, plan-artifact
    checks at prepare/execute time, and the per-flush statistics the
    engine attributes to a cache miss.
    """
    COUNTERS.reset()
    miss_ir_checks = 0
    plan_checks = 0
    for seed in (0, 3, 1000, 1003):
        generator = random_elementwise_program if seed < 1000 else random_mixed_program
        program, synced = generator(seed)
        for backend in ("interpreter", "parallel"):
            _, stats = _execute(program, synced, backend, check_ir=True)
            miss_ir_checks += stats.ir_checks_run
            plan_checks += stats.plan_checks_run
    totals = COUNTERS.snapshot()
    assert totals["ir_checks_run"] > 0, "the between-pass IR verifier never ran"
    assert totals["plan_checks_run"] > 0, "the plan-artifact checks never ran"
    assert totals["ir_check_failures"] == 0
    assert totals["plan_check_failures"] == 0
    assert miss_ir_checks > 0, "no flush attributed IR checks to its stats"
    assert plan_checks > 0, "no flush attributed plan checks to its stats"
