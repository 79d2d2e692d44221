"""Differential testing: every backend against the NumPy oracle.

A second *real* execution backend multiplies the ways results can diverge:
tiling can mis-slice a view, a rebound plan can alias the wrong base, an
optimization pass can interact badly with a backend-specific execution
strategy.  This harness pits every in-process backend — interpreter,
tiled parallel (at the host's thread count and with four pooled tile
workers, see ``tests/tiers.py``), native codegen — and both optimization
levels against a single oracle on randomly generated programs.

The native backend runs compiled C loop nests for every kernel form that
lowers bitwise-safely and silently degrades to the parallel backend's
interpreted templates otherwise (including on hosts with no C compiler),
so its parity obligations are exactly the parallel backend's; a dedicated
non-vacuity test pins that compiled kernels actually executed.

The oracle is the unoptimized reference interpreter: it executes one
byte-code per NumPy operation in program order, which *is* the NumPy
semantics of the program.  Three layers of assertion:

1. every backend × optimization level matches the oracle within the
   semantic verifier's tolerances (optimization may legitimately reorder
   floating-point work, e.g. power expansion),
2. all backends executing the *same* optimized program agree bit-for-bit
   on element-wise programs (they run the same NumPy ops; tiling slices
   rows but never reorders arithmetic),
3. the tiled parallel backend actually tiled something (the configuration
   pins tiny tiles), so the parity statement covers the parallel code
   path rather than a wall of serial fallbacks.

The only relaxation: programs with full 1-D reductions compare the
parallel backend within tight tolerances instead of bitwise, because
tree-combining per-tile partials legitimately reassociates the reduction.

Adding a backend to the harness: register it (see
``docs/architecture.md``), append its name to ``BACKENDS`` below, and — if
it reorders floating-point arithmetic — to ``REASSOCIATING_BACKENDS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode import dtypes
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.runtime.backend import get_backend
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override, get_config
from repro.workloads.generators import random_elementwise_program, random_mixed_program
from tests.tiers import on_tier, runs

#: Every tier the harness checks (a backend name, or a tier of ``tests/tiers.py``).
BACKENDS = ("interpreter", "parallel", "parallel4", "native")

#: Backends allowed to reassociate floating-point reductions (tree-combined
#: tile partials); they get tolerance instead of bitwise comparison on
#: programs containing full 1-D reductions.  The native backend inherits
#: the parallel backend's reduction paths unchanged.
REASSOCIATING_BACKENDS = ("parallel", "parallel4", "native")

#: Tolerances matching the semantic verifier's defaults.
RTOL, ATOL = 1e-6, 1e-8

#: Force multi-tile execution paths even on the small arrays the generator
#: produces, so parity covers tiling rather than serial fallbacks.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)
#: Vector length of the thread axis: four of ``TINY_TILES``' tiles, so a
#: compiled step runs in four parts at four threads (a step threads with one
#: part per tile at most; at 24 elements it would be one serial call), and
#: in three row blocks of 22, 21 and 21 at three.
THREADED_LENGTH = 64
#: The thread axis' codegen thread counts; 1 is the serial call.
THREAD_COUNTS = (1, 2, 3, 4)
#: Rows of the thread axis' matrix column: fewer than three or four threads,
#: so the part count clamps to one block per row.
FEW_ROWS = 2

ELEMENTWISE_SEEDS = tuple(range(60))
MIXED_SEEDS = tuple(range(1000, 1040))


def elementwise_program(seed, num_instructions=12, vector_length=16):
    """:func:`random_elementwise_program` over inputs that are not constants.

    The generator starts each of its three vectors with a constant, and
    lowering folds every step computed from constants alone: on those
    inputs the native column ran fills and compiled no arithmetic.  Here
    each vector starts as its own ``BH_RANDOM`` draw, uniform in [0, 1).
    """
    program, synced = random_elementwise_program(
        seed, num_instructions=num_instructions, vector_length=vector_length
    )
    head, rest = list(program)[:3], list(program)[3:]
    assert all(step.opcode is OpCode.BH_IDENTITY for step in head)
    draws = [
        Instruction(OpCode.BH_RANDOM, (step.out, 1000 * seed + index))
        for index, step in enumerate(head)
    ]
    return Program(draws + rest), synced


def _execute(program, views, tier, optimize):
    """``(values, stats)`` of the last of the tier's :func:`runs` on one
    engine.  Every earlier run's values are bitwise the last one's: a first
    run templates a form the second compiles, and both fold a reduction
    with NumPy over the same spans."""
    with on_tier(tier) as backend:
        engine = ExecutionEngine(backend=backend, optimize=optimize)
        results = [engine.execute(program) for _ in range(runs(tier))]
    values = [[result.value(view) for view in views] for result in results]
    for earlier in values[:-1]:
        for index, (actual, expected) in enumerate(zip(earlier, values[-1])):
            _assert_bitwise(actual, expected, f"{tier} earlier run vs last, output {index}")
    return values[-1], results[-1].stats


def _assert_close(actual, expected, context):
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=ATOL, equal_nan=True, err_msg=context
    )


def _assert_bitwise(actual, expected, context):
    assert np.array_equal(actual, expected, equal_nan=True), (
        f"{context}: results differ bitwise\nexpected={expected!r}\nactual={actual!r}"
    )


def _check_program(program, synced, bitwise_backends, close_backends):
    """Run the full backend × optimization matrix for one program; return
    each backend's optimized values."""
    oracle, _ = _execute(program, synced, "interpreter", optimize=False)
    optimized_results = {}
    parallel_tiles = 0
    for backend in BACKENDS:
        for optimize in (False, True):
            values, stats = _execute(program, synced, backend, optimize)
            for index, (actual, expected) in enumerate(zip(values, oracle)):
                _assert_close(
                    actual,
                    expected,
                    f"{backend} (optimize={optimize}) vs oracle, output {index}",
                )
            if optimize:
                optimized_results[backend] = values
            if backend == "parallel":
                parallel_tiles += stats.tiles_executed
    # All backends executed the same optimized program: results must agree
    # exactly (modulo documented reduction reassociation).
    reference = optimized_results["interpreter"]
    for backend in bitwise_backends:
        for index, (actual, expected) in enumerate(
            zip(optimized_results[backend], reference)
        ):
            _assert_bitwise(actual, expected, f"{backend} vs interpreter, output {index}")
    for backend in close_backends:
        for index, (actual, expected) in enumerate(
            zip(optimized_results[backend], reference)
        ):
            _assert_close(actual, expected, f"{backend} vs interpreter, output {index}")
    assert parallel_tiles > 0, "parallel backend never tiled; parity proves nothing"
    return optimized_results


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS)
def test_elementwise_program_parity(seed):
    """Element-wise programs: every backend bit-identical to the others."""
    program, synced = elementwise_program(
        seed, num_instructions=12, vector_length=24
    )
    with config_override(**TINY_TILES):
        _check_program(
            program,
            synced,
            bitwise_backends=("parallel", "parallel4", "native"),
            close_backends=(),
        )


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_mixed_program_parity(seed):
    """Programs with reductions and generators: tolerance for tree combines
    against the interpreter, and the parallel tier's bits on ``native``, at
    the same thread count: both fold with NumPy over the plan's spans."""
    program, synced = random_mixed_program(seed, num_instructions=10)
    with config_override(**TINY_TILES):
        results = _check_program(
            program,
            synced,
            bitwise_backends=(),
            close_backends=REASSOCIATING_BACKENDS,
        )
    for index, (actual, expected) in enumerate(zip(results["native"], results["parallel"])):
        _assert_bitwise(actual, expected, f"native vs parallel, output {index}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_planning_is_bitwise_invisible(backend):
    """Planning on vs. off: bitwise-identical results on every backend.

    Slot aliasing and zero-fill waivers may only rearrange *where*
    temporaries live, never what any observable view contains — the
    planner waives a zero fill only where liveness proves no element can
    be read uninitialised, so even bit patterns must match.
    """
    for seed in (3, 11, 1003, 1011):
        generator = elementwise_program if seed < 1000 else random_mixed_program
        program, synced = generator(seed)
        with config_override(**TINY_TILES, memory_plan_enabled=True):
            planned, _ = _execute(program, synced, backend, optimize=True)
        with config_override(
            **TINY_TILES, memory_plan_enabled=False, memory_pool_max_bytes=0
        ):
            unplanned, _ = _execute(program, synced, backend, optimize=True)
        for index, (actual, expected) in enumerate(zip(planned, unplanned)):
            _assert_bitwise(
                actual,
                expected,
                f"{backend} planned vs unplanned (seed {seed}), output {index}",
            )


@pytest.mark.parametrize("seed", MIXED_SEEDS[:12])
def test_fusion_scheduler_parity(seed):
    """DAG scheduling on vs. off: bitwise-identical on every backend.

    Mixed programs interleave reductions between element-wise byte-codes,
    so the dependency-graph scheduler's non-adjacent clustering genuinely
    reorders work; legality demands that not a single bit moves relative
    to the consecutive-only policy, on any backend.  (Tree-combined 1-D
    reduction partials are unaffected: the reduction instruction and its
    tile spans are identical under both schedules, so even the parallel
    backend must match bitwise.)
    """
    program, synced = random_mixed_program(seed, num_instructions=12)
    per_backend = {}
    for scheduler in ("dag", "consecutive"):
        with config_override(**TINY_TILES, fusion_scheduler=scheduler):
            for backend in BACKENDS:
                values, _ = _execute(program, synced, backend, optimize=True)
                per_backend.setdefault(backend, {})[scheduler] = values
    for backend, by_scheduler in per_backend.items():
        for index, (actual, expected) in enumerate(
            zip(by_scheduler["dag"], by_scheduler["consecutive"])
        ):
            _assert_bitwise(
                actual, expected, f"{backend} dag vs consecutive, output {index}"
            )


def test_fusion_scheduler_exercises_non_adjacent_clustering():
    """At least some mixed seeds must make the DAG scheduler reorder work.

    Without this the parity axis above could pass vacuously (identical
    schedules under both policies).
    """
    reordered = 0
    clustered_non_adjacent = 0
    for seed in MIXED_SEEDS[:12]:
        program, _ = random_mixed_program(seed, num_instructions=12)
        with config_override(fusion_scheduler="dag"):
            from repro.core.schedule import compute_schedule

            schedule = compute_schedule(program, get_config())
        reordered += schedule.bytecodes_reordered
        clustered_non_adjacent += sum(
            1
            for item in schedule.items
            if len(item) > 1
            and any(b != a + 1 for a, b in zip(item, item[1:]))
        )
    assert reordered > 0, "no seed made the DAG scheduler reorder anything"
    assert clustered_non_adjacent > 0, "no non-adjacent cluster was formed"


def test_native_backend_actually_compiles_kernels():
    """The native parity axis must not pass vacuously via fallbacks.

    With a C compiler present, the element-wise seeds must drive a
    substantial number of launches through compiled loop nests; a harness
    where every step fell back to interpreted templates would reduce the
    native column to a re-run of the parallel one.
    """
    from repro.codegen import find_c_compiler

    if find_c_compiler() is None:
        pytest.skip("no C compiler on this host; native backend runs fallbacks only")
    native_launches = 0
    fallbacks = 0
    for seed in ELEMENTWISE_SEEDS[:8]:
        program, synced = elementwise_program(
            seed, num_instructions=12, vector_length=24
        )
        with config_override(**TINY_TILES):
            _, stats = _execute(program, synced, "native", optimize=True)
        native_launches += stats.native_kernel_launches
        fallbacks += stats.native_fallbacks
    assert native_launches > 0, "no kernel ever executed through compiled code"
    assert native_launches >= fallbacks, (
        f"compiled launches ({native_launches}) swamped by fallbacks ({fallbacks}); "
        "the lowering coverage regressed"
    )


def _as_rows(program, rows):
    """``program`` with every vector view of ``THREADED_LENGTH`` elements
    read as a ``rows``-row matrix of the same base: the same element-wise
    arithmetic over a step whose outermost loop has ``rows`` iterations."""
    from repro.bytecode.view import View

    def reshape(operand):
        if isinstance(operand, View) and operand.shape == (THREADED_LENGTH,):
            columns = THREADED_LENGTH // rows
            return View(operand.base, operand.offset, (rows, columns), (columns, 1))
        return operand

    return Program(
        [
            Instruction(instruction.opcode, tuple(reshape(op) for op in instruction.operands))
            for instruction in program
        ]
    )


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS[:20])
def test_native_thread_axis_elementwise_bitwise(seed):
    """native × threads∈{1,2,3,4}: splitting a step into row blocks may not
    move a bit.

    Element-wise kernels compute each output element independently, so
    calling the kernel once per row block must be invisible: every thread
    count compares bitwise against the serial call and against the
    interpreter running the same optimized program (the unoptimized oracle
    is the main parity axis' business: power expansion reassociates) —
    over 64 rows (three threads give blocks of 22, 21 and 21) and over 2
    rows of 32, where three and four threads clamp to two blocks.
    """
    program, synced = elementwise_program(
        seed, num_instructions=12, vector_length=THREADED_LENGTH
    )
    for rows in (THREADED_LENGTH, FEW_ROWS):
        if rows != THREADED_LENGTH:
            program = _as_rows(program, rows)
        oracle, _ = _execute(program, synced, "interpreter", optimize=True)
        results = {}
        for threads in THREAD_COUNTS:
            with config_override(**TINY_TILES, codegen_threads=threads):
                results[threads], _ = _execute(program, synced, "native", optimize=True)
            for index, (actual, serial, expected) in enumerate(
                zip(results[threads], results[1], oracle)
            ):
                context = f"native threads={threads} (seed {seed}, {rows} rows), output {index}"
                _assert_bitwise(actual, serial, context + " vs threads=1")
                _assert_bitwise(actual.ravel(), expected.ravel(), context + " vs oracle")


@pytest.mark.parametrize("seed", MIXED_SEEDS[:20])
def test_native_thread_axis_mixed_is_bitwise(seed):
    """native × threads∈{1,4} on reduction-bearing programs.

    The codegen thread count splits compiled map steps only: a reduction
    folds with NumPy over the plan's spans whatever it is, so the bits do
    not move.
    """
    program, synced = random_mixed_program(seed, num_instructions=10)
    results = {}
    for threads in (1, 4):
        with config_override(**TINY_TILES, codegen_threads=threads):
            results[threads], _ = _execute(program, synced, "native", optimize=True)
    for index, (actual, expected) in enumerate(zip(results[4], results[1])):
        _assert_bitwise(
            actual, expected, f"native threads=4 vs threads=1 (seed {seed}), output {index}"
        )


def test_native_mt_entry_point_actually_fired():
    """The thread axis must not pass vacuously on the serial path.

    At four threads the column above must have split compiled steps into
    row blocks: ``native_mt_launches`` counts steps launched in two or more
    parts, and ``tiles_executed`` is the summed part count — four row
    blocks per compiled step of 64 rows, one call per NumPy fill or copy.
    """
    from repro.codegen import find_c_compiler
    from repro.runtime.tiling import TiledMapStep

    if find_c_compiler() is None:
        pytest.skip("no C compiler on this host; native backend runs fallbacks only")
    mt_launches = 0
    for seed in ELEMENTWISE_SEEDS[:8]:
        program, _ = elementwise_program(
            seed, num_instructions=12, vector_length=THREADED_LENGTH
        )
        with config_override(**TINY_TILES, codegen_threads=4):
            engine = ExecutionEngine(backend="native", optimize=True)
            stats = [engine.execute(program) for _ in range(runs("native"))][-1].stats
        map_steps = sum(
            isinstance(step, TiledMapStep) for step in engine.last_plan.tiling.steps
        )
        compiled = stats.native_kernel_launches
        assert stats.native_fallbacks == 0 and compiled > 0, f"seed {seed}"
        assert stats.tiles_executed == 4 * compiled + (map_steps - compiled), f"seed {seed}"
        mt_launches += stats.native_mt_launches
    assert mt_launches > 0, "no compiled step was split; the thread axis is vacuous"


def test_optimization_levels_agree_per_backend():
    """Optimized and unoptimized pipelines agree within tolerance per backend."""
    for seed in (7, 21, 1007):
        generator = elementwise_program if seed < 1000 else random_mixed_program
        program, synced = generator(seed)
        with config_override(**TINY_TILES):
            for backend in BACKENDS:
                plain, _ = _execute(program, synced, backend, optimize=False)
                optimized, _ = _execute(program, synced, backend, optimize=True)
                for index, (actual, expected) in enumerate(zip(optimized, plain)):
                    _assert_close(
                        actual, expected, f"{backend} optimized vs plain, output {index}"
                    )


#: Every tier that executes for real; all of them count a launch through
#: ``ExecutionStats.record_launch``.
EXECUTING_BACKENDS = ("interpreter", "parallel", "parallel4", "native", "dist")


def _stencils(session):
    """The three stencil workloads, every output observed."""
    from repro.workloads import gaussian_blur, heat_equation, heat_equation_with_norm

    outputs = [heat_equation(24, 3, session=session).to_numpy()]
    grid, norms = heat_equation_with_norm(24, 3, session=session)
    outputs += [grid.to_numpy()] + [norm.to_numpy() for norm in norms]
    outputs.append(gaussian_blur(24, 24, 2, session=session).to_numpy())
    return outputs


@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
def test_store_forwarding_axis_is_bitwise(backend, monkeypatch):
    """Copy propagation on vs. off on the stencil idiom, per tier.

    Forwarding retargets a kernel's store at a strided window of another
    base and reorders the full copy above it; neither may move a bit on
    any tier, against the pass-less pipeline or the unoptimized oracle.
    (The per-step norms are one full 2-D reduction each: tile partials
    combine in a fixed order, identical with the pass on and off.)
    """
    from repro.core.rules import DEFAULT_PASS_ORDER
    from repro.frontend import random as random_module
    from repro.frontend.session import Session

    monkeypatch.setattr(random_module, "_EXPLICIT_SEED", None)
    without = [name for name in DEFAULT_PASS_ORDER if name != "copy_propagation"]
    # A session's next run draws the blur's next input: one oracle per run.
    reference = Session(backend="interpreter", optimize=False)
    oracles = [_stencils(reference) for _ in range(runs(backend))]
    with config_override(parallel_tile_elements=64, parallel_serial_threshold=4):
        with on_tier(backend) as name:
            session = Session(backend=name, optimize=True)
            forwarded = [_stencils(session)]
            fired = sum(
                note.startswith("forwarded store")
                for plan in session.engine.plan_cache.values()
                for run in plan.report.stats_for("copy_propagation")
                for note in run.notes
            )
            forwarded += [_stencils(session) for _ in range(runs(backend) - 1)]
            with config_override(enabled_passes=without):
                pass_less = Session(backend=name, optimize=True)
                kept = [_stencils(pass_less) for _ in range(runs(backend))]
    assert fired == 3 + 3 + 1, "the axis is vacuous: no store was forwarded"
    for index, (on, off) in enumerate(zip(forwarded[-1], kept[-1])):
        _assert_bitwise(on, off, f"{backend} forwarding on vs off, output {index}")
    for forwarded_run, oracle in zip(forwarded + kept, oracles * 2):
        for index, (on, expected) in enumerate(zip(forwarded_run, oracle)):
            if on.size > 1 or backend not in REASSOCIATING_BACKENDS + ("dist",):
                _assert_bitwise(on, expected, f"{backend} vs oracle, output {index}")
            else:
                _assert_close(on, expected, f"{backend} vs oracle, output {index}")


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS[:6] + MIXED_SEEDS[:6])
def test_launch_accounting_is_identical_on_every_tier(seed):
    """One engine-planned program, five tiers: the same launches, byte-codes,
    elements and traffic, and the same op-code histogram — how a tier runs a
    launch (template, tiles, compiled loop, worker shards) never changes what
    the launch is counted as."""
    generator = elementwise_program if seed < 1000 else random_mixed_program
    program, _ = generator(seed)
    records = {}
    with config_override(**TINY_TILES):
        for backend in EXECUTING_BACKENDS:
            _, stats = _execute(program, [], backend, optimize=True)
            records[backend] = (
                stats.instructions_executed,
                stats.kernel_launches,
                stats.elements_processed,
                stats.bytes_read,
                stats.bytes_written,
                dict(stats.opcode_counts),
            )
    reference = records["interpreter"]
    assert reference[1] > 0 and reference[3] > 0, "nothing launched; vacuous"
    for backend in EXECUTING_BACKENDS[1:]:
        assert records[backend] == reference, backend


#: Backends whose plan-less ``execute`` wraps the program in an ordinary
#: plan and rides ``execute_plan``.
TILED_BACKENDS = ("parallel", "native", "dist")


def _count_calls(monkeypatch, target: str, calls: dict) -> None:
    """Wrap the function at dotted path ``target`` so each call is counted."""
    module_path, name = target.rsplit(".", 1)
    module = __import__(module_path, fromlist=[name])
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("backend_name", TILED_BACKENDS)
@pytest.mark.parametrize("seed", (3, 1003))
def test_planless_execution_is_the_planned_path(backend_name, seed, monkeypatch):
    """``backend.execute(p)`` and an engine flush of the same scheduled
    program run the same steps: bitwise-equal outputs, equal tile / native
    launch / shard launch counts — and the second plan-less call re-derives
    nothing (no tiling, no shard planning, no lowering)."""
    from repro.runtime.backend import get_backend

    generator = elementwise_program if seed < 1000 else random_mixed_program
    calls: dict = {}
    for target in (
        "repro.runtime.parallel.decompose",
        "repro.dist.backend.build_dist_plan",
        "repro.runtime.native.lower_kernel",
    ):
        _count_calls(monkeypatch, target, calls)
    # With only the fusion pass enabled the engine plans exactly the program
    # the backend schedules for itself.
    # On ``native`` the first run of a one-step kernel form runs its
    # template and the second compiles it: both sides run the tier's runs,
    # and the plan-less call after them is the one that derives nothing.
    with config_override(**TINY_TILES, enabled_passes=["fusion"]):
        program, synced = generator(seed)
        engine = ExecutionEngine(backend=backend_name, optimize=True)
        for _ in range(runs(backend_name)):
            planned = engine.execute(program)
        expected = [planned.value(view) for view in synced]

        backend = get_backend(backend_name)
        results = []
        for _ in range(runs(backend_name) + 1):
            program, synced = generator(seed)  # fresh bases, same structure
            after_previous = dict(calls)
            result = backend.execute(program)
            results.append(result)
            for index, (view, reference) in enumerate(zip(synced, expected)):
                _assert_bitwise(
                    result.value(view), reference, f"{backend_name} plan-less, output {index}"
                )
    for result in results[runs(backend_name) - 1 :]:
        for counter in ("tiles_executed", "native_kernel_launches", "dist_shard_launches"):
            assert getattr(result.stats, counter) == getattr(planned.stats, counter), counter
    assert planned.stats.tiles_executed > 0, "nothing tiled; the comparison is vacuous"
    assert calls == after_previous, "the last plan-less call re-derived plan artifacts"
    # Non-vacuity: the planned flush and the first plan-less call each did
    # derive them, once.
    assert calls["decompose"] == 2
    if backend_name == "dist":
        assert calls["build_dist_plan"] == 2
    if backend_name == "native":
        assert calls["lower_kernel"] >= 2
    cache = backend.cache_stats()
    assert (cache["tiling_cache_misses"], cache["tiling_cache_hits"]) == (1, runs(backend_name))


# --------------------------------------------------------------------------- #
# The map-reduce axis: a kernel may end in a reduction
# --------------------------------------------------------------------------- #

#: Thresholds scaled down 128x: sizes below sit on both sides of the serial
#: threshold and of one span, at 2-D shapes that stay cheap.
SMALL_TILES = dict(parallel_tile_elements=512, parallel_serial_threshold=64)

PRODUCER_DTYPES = {
    "bool": dtypes.bool_,
    "int32": dtypes.int32,
    "int64": dtypes.int64,
    "float32": dtypes.float32,
    "float64": dtypes.float64,
}
REDUCTIONS = ("add", "multiply", "maximum", "minimum")

#: ``id -> (shape, axis)``: rank-1 below the threshold (serial), inside one
#: span and across several; 2-D along each axis; one-wide dims.
GEOMETRIES = {
    "rank1_serial": ((63,), 0),
    "rank1_one_span": ((500,), 0),
    "rank1_spans": ((1700,), 0),
    "rows_axis0": ((30, 40), 0),
    "rows_axis1": ((30, 40), 1),
    "one_column_axis0": ((600, 1), 0),
    "one_row_axis0": ((1, 600), 0),
    "one_row_axis1": ((1, 600), 1),
}
#: Every reduction where the fold is tiled; a sum and a maximum elsewhere.
FULL_CROSS = ("rank1_spans", "rows_axis0", "rows_axis1")


def _map_reduce_cell(build, backend, planned, **config):
    """One cell of the axis: ``(tail-fused, tail-free, oracle, tails)`` of
    the program ``build()`` returns, on ``backend``, once per run of the
    tier (:func:`runs`)."""
    program, out = build()
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    values = {}
    tails = 0
    for scheduler in ("dag", "consecutive"):
        with config_override(**config, fusion_scheduler=scheduler), on_tier(backend) as name:
            if planned:
                engine = ExecutionEngine(backend=name, optimize=True)
                execute = engine.execute
            else:
                execute = get_backend(name).execute
            values[scheduler] = [execute(program).value(out) for _ in range(runs(backend))]
            if planned:
                tails += engine.last_plan.fusion_schedule.reduction_tails
    return [
        (fused, unfused, oracle.value(out), tails)
        for fused, unfused in zip(values["dag"], values["consecutive"])
    ]


def _assert_map_reduce_cell(cell, elements, context):
    fused, unfused, oracle, _ = cell
    assert fused.dtype == unfused.dtype == oracle.dtype, context
    # The tail keeps the bare reduction's spans and combine tree: same bits
    # as the tail-free schedule on the same tier, whatever the dtype and
    # whichever of the two runs a form compiled and which its template.
    assert fused.tobytes() == unfused.tobytes(), (context, fused, unfused)
    for value in (fused, unfused):
        if oracle.dtype.kind != "f":
            assert value.tobytes() == oracle.tobytes(), (context, value, oracle)
        else:
            # Tiled tiers reassociate: the harness's tolerance, or the dtype's
            # rounding over the reduced elements (float32 accumulates in float32).
            rtol = max(RTOL, elements * float(np.finfo(oracle.dtype).eps))
            np.testing.assert_allclose(value, oracle, rtol=rtol, err_msg=context)


#: (A plan-less interpreter schedules nothing: there is no tail to compare;
#: the other plan-less cells cross the tiled geometries only.)
TEMPLATE_TIER_CELLS = [
    pytest.param(
        geometry, backend, planned, id=f"{geometry}-{backend}" + ("" if planned else "-planless")
    )
    for geometry in sorted(GEOMETRIES)
    for backend, planned in (
        ("interpreter", True),
        ("parallel", True),
        ("parallel4", True),
        ("parallel", False),
        ("parallel4", False),
    )
    if planned or geometry in FULL_CROSS
]


@pytest.mark.parametrize("geometry,backend,planned", TEMPLATE_TIER_CELLS)
@pytest.mark.parametrize("dtype", sorted(PRODUCER_DTYPES))
def test_map_reduce_axis_template_tiers(dtype, geometry, backend, planned, map_reduce_program):
    """Producer dtype x geometry x tier x plan/plan-less x reduction."""
    shape, axis = GEOMETRIES[geometry]
    reductions = REDUCTIONS if geometry in FULL_CROSS else ("add", "maximum")
    tails = 0
    for reduction in reductions:
        (cell,) = _map_reduce_cell(
            lambda: map_reduce_program(PRODUCER_DTYPES[dtype], reduction, shape, axis),
            backend,
            planned,
            **SMALL_TILES,
        )
        _assert_map_reduce_cell(cell, shape[axis], f"{backend} {dtype} {reduction} {geometry}")
        tails += cell[3]
    assert tails == (len(reductions) if planned else 0), "the axis is vacuous: no tail"


#: The compiled tier pays one ``cc`` run per canonical producer form, so
#: it crosses fewer cells: every dtype with a sum, every reduction on
#: float64 and int32, each 2-D axis, a one-wide dim.
NATIVE_CELLS = (
    [(dtype, "add", "rank1_spans") for dtype in sorted(PRODUCER_DTYPES)]
    + [(dtype, reduction, "rank1_spans") for dtype in ("float64", "int32") for reduction in REDUCTIONS[1:]]
    + [("bool", "maximum", "rank1_spans")]  # NumPy's logical or of a compiled mask
    + [(dtype, "add", geometry) for dtype in ("float64", "bool") for geometry in ("rows_axis0", "rows_axis1")]
    + [("float32", "maximum", "rows_axis0"), ("int64", "add", "one_column_axis0")]
    + [("float64", "add", "rank1_serial"), ("float64", "add", "rank1_one_span")]
)


@pytest.mark.parametrize("planned", [True, False], ids=["plan", "planless"])
@pytest.mark.parametrize("dtype,reduction,geometry", NATIVE_CELLS)
def test_map_reduce_axis_native(dtype, reduction, geometry, planned, map_reduce_program):
    shape, axis = GEOMETRIES[geometry]
    for threads in (1, 4):
        cells = _map_reduce_cell(
            lambda: map_reduce_program(PRODUCER_DTYPES[dtype], reduction, shape, axis),
            "native",
            planned,
            **SMALL_TILES,
            codegen_threads=threads,
        )
        for run, cell in enumerate(cells, 1):
            context = f"native({threads}) run {run} {dtype} {reduction} {geometry}"
            _assert_map_reduce_cell(cell, shape[axis], context)
            assert cell[0].tobytes() == cells[0][0].tobytes(), context


@pytest.mark.parametrize("backend", ("parallel", "native"))
@pytest.mark.parametrize(
    "length,threads,tiled",
    [(8191, 2, False), (8192, 2, True), (65536, 1, False), (65537, 1, True)],
)
def test_map_reduce_axis_at_the_default_thresholds(
    length, threads, tiled, backend, map_reduce_program
):
    """Both sides of ``parallel_serial_threshold`` and of one
    ``parallel_tile_elements`` span, nothing scaled down: the kernel's step
    is the bare reduction's step — tiled exactly when that one is."""
    from repro.runtime.tiling import TiledReduceStep

    for dtype in ("bool", "float64"):
        program, out = map_reduce_program(PRODUCER_DTYPES[dtype], "add", (length,))
        oracle, _ = _execute(program, [out], "interpreter", optimize=False)
        values, steps = {}, {}
        for scheduler in ("dag", "consecutive"):
            with config_override(parallel_num_threads=threads, fusion_scheduler=scheduler):
                engine = ExecutionEngine(backend=backend, optimize=True)
                values[scheduler] = [
                    engine.execute(program).value(out) for _ in range(runs(backend))
                ]
                steps[scheduler] = [
                    step for step in engine.last_plan.tiling.steps
                    if isinstance(step, TiledReduceStep)
                ]
        assert len(steps["dag"]) == len(steps["consecutive"]) == int(tiled)
        if tiled:
            (fused,), (bare,) = steps["dag"], steps["consecutive"]
            assert (fused.spans, fused.tile_axis, fused.combine) == (
                bare.spans, bare.tile_axis, bare.combine
            )
            assert fused.local_slots and not bare.local_slots
        for run, (fused, unfused) in enumerate(zip(values["dag"], values["consecutive"]), 1):
            _assert_map_reduce_cell(
                (fused, unfused, oracle[0], 1), length, f"{backend} run {run} {dtype}"
            )


# --------------------------------------------------------------------------- #
# The literal axis: a float constant is a launch operand of the artifact
# --------------------------------------------------------------------------- #

#: Values a kernel must compute with, not merely print: the ones C spells
#: specially (or cannot spell), both ends of the range, a float32 constant
#: that is not its own float64 neighbour, an integer NumPy promotes.
LITERALS = {
    "nan": float("nan"),
    "inf": float("inf"),
    "neg_inf": float("-inf"),
    "neg_zero": -0.0,
    "denormal": 5e-324,
    "dbl_max": float(np.finfo(np.float64).max),
    "float32_inexact": np.float32(0.1),
    "int": 3,
}

#: tier -> (backend, planned, codegen_threads)
LITERAL_TIERS = {
    "interpreter": ("interpreter", True, None),
    "parallel": ("parallel", True, None),
    "parallel-planless": ("parallel", False, None),
    "native1": ("native", True, 1),
    "native2": ("native", True, 2),
    "native1-planless": ("native", False, 1),
    "native2-planless": ("native", False, 2),
}


#: ``(kind, storage dtype)`` cells: a fill stores into every dtype, the
#: kinds that divide by the literal into the float ones.
LITERAL_CELLS = [
    (kind, dtype) for kind in ("map", "tail", "axis") for dtype in ("float32", "float64")
] + [("fill", dtype) for dtype in sorted(PRODUCER_DTYPES)]


def _literal_tiers(program, out, **settings):
    """Yield ``(tier, backend, value, stats)`` of ``out`` on every literal
    tier's last run, after checking every run's bits against the
    unoptimized interpreter's."""
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program).value(out)
    for tier, (backend, planned, threads) in LITERAL_TIERS.items():
        with config_override(**SMALL_TILES, **settings, codegen_threads=threads):
            if planned:
                execute = ExecutionEngine(backend=backend, optimize=True).execute
            else:
                execute = get_backend(backend).execute
            results = [execute(program) for _ in range(runs(backend))]
        for result in results:
            value = result.value(out)
            assert value.dtype == oracle.dtype, tier
            assert value.tobytes() == oracle.tobytes(), (tier, value, oracle)
        yield tier, backend, value, result.stats


def _assert_fill(stats, context):
    """A native fill: no artifact resolved, no compiled launch, no fallback."""
    resolved = stats.native_compiles + stats.native_disk_hits + stats.native_memory_hits
    assert resolved == stats.native_kernel_launches == 0, context
    assert stats.native_fallbacks == 0, (context, stats.native_fallback_reasons)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's overflow and x / 0 notes
@pytest.mark.parametrize("kind,dtype", LITERAL_CELLS)
@pytest.mark.parametrize("literal", sorted(LITERALS))
def test_literal_axis_is_bitwise(literal, kind, dtype, literal_program):
    """Value x kernel kind x dtype x tier x plan/plan-less, every cell the
    unoptimized interpreter's bits — and on ``native`` a compiled launch,
    except for a fill, which is written by NumPy and resolves no artifact."""
    program, out = literal_program(kind, PRODUCER_DTYPES[dtype], LITERALS[literal])
    for tier, backend, _, stats in _literal_tiers(program, out):
        if backend != "native":
            continue
        context = f"{tier} {kind} {dtype} {literal}"
        if kind == "fill":
            _assert_fill(stats, context)
            continue
        assert stats.native_kernel_launches > 0, context
        assert stats.native_fallbacks == 0, (context, stats.native_fallback_reasons)


#: A float64 NaN whose payload is not the default quiet NaN's, in bits a
#: float32 keeps too.
NAN_PAYLOAD = np.frombuffer((0x7FF8_1234_5000_0000).to_bytes(8, "little"), np.float64)[0]


def _fill_case(case):
    """``(program, observed view)`` of one fill the literal axis does not
    build, run with only the fusion pass so each store stays in the kernel."""
    from repro.bytecode.builder import ProgramBuilder
    from repro.bytecode.view import View

    n = 1700
    builder = ProgramBuilder()
    if case == "stored_twice":
        out = builder.new_vector(n, dtypes.int32)
        builder.identity(out, 2.75)
        builder.identity(out, -7.5)  # the last store wins, cast unsafely
    elif case == "beside_an_elided_slot":
        local = builder.new_vector(n)
        out = builder.new_vector(n)
        builder.identity(local, 2.0)
        builder.multiply(out, local, 1.5)
        builder.free(local)
    elif case == "zero_size":
        out = View(builder.new_base(n), 0, (0, 17), (17, 1))
        builder.identity(out, 1.5)
    elif case == "negative_stride":
        out = View.full(builder.new_base(2 * n))
        builder.identity(View(out.base, 2 * n - 1, (n,), (-2,)), -0.0)
    else:  # "bits-<dtype>": a NaN payload beside a signed zero
        out = View.full(builder.new_base(2 * n, PRODUCER_DTYPES[case[5:]]))
        builder.identity(View(out.base, 0, (n,), (2,)), NAN_PAYLOAD)
        builder.identity(View(out.base, 1, (n,), (2,)), -0.0)
    builder.sync(out)
    return builder.build(), out


@pytest.mark.parametrize(
    "case",
    (
        "stored_twice",
        "beside_an_elided_slot",
        "zero_size",
        "negative_stride",
        "bits-float32",
        "bits-float64",
    ),
)
def test_fill_cases_are_bitwise(case):
    program, out = _fill_case(case)
    fills = 0
    for tier, backend, value, stats in _literal_tiers(program, out, enabled_passes=["fusion"]):
        if backend == "native":
            _assert_fill(stats, f"{tier} {case}")
            # Nothing but the observed output was ever allocated: an elided
            # local slot of a fill has no storage either.
            assert stats.actual_peak_bytes <= out.base.nbytes, tier
            fills += stats.kernel_launches
    if case.startswith("bits"):
        payload = NAN_PAYLOAD.astype(value.dtype)
        assert payload.tobytes() != np.array(np.nan, value.dtype).tobytes()
        assert np.signbit(value[1::2]).all()
        assert value[::2].tobytes() == payload.tobytes() * (out.nelem // 2)
    assert fills or case == "zero_size", "the case is vacuous: no step was launched"


def test_launches_of_one_artifact_keep_their_own_literals(
    thread_hammer, literal_program, tmp_path
):
    """Four threads, each launching its own ``minimum(x / c, c)`` through its own
    engine 200 times: one compiled artifact between them (the numbers are
    operands of the launch, not state of the artifact), every result its own."""
    from repro.codegen import clear_memory_cache, find_c_compiler

    if find_c_compiler() is None:
        pytest.skip("no C compiler on this host")
    clear_memory_cache()
    constants = (1.5, -2.25, 1e300, float("nan"))
    cells = []
    for constant in constants:
        program, out = literal_program("map", dtypes.float64, constant)
        oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
        cells.append((program, out, oracle.value(out).tobytes()))
    assert len({expected for _, _, expected in cells}) == len(cells)
    engines = [ExecutionEngine(backend="native", optimize=True) for _ in cells]

    def body(index):
        program, out, expected = cells[index]
        for _ in range(200):
            assert engines[index].execute(program).value(out).tobytes() == expected, index

    with config_override(**SMALL_TILES, codegen_threads=2, codegen_cache_dir=str(tmp_path)):
        thread_hammer(len(cells), body)
    compiles = [engine.backend.native_compiles for engine in engines]
    assert sum(compiles) == 1, f"the axis is vacuous: {compiles} artifacts, not one shared"


REFUSAL_LENGTH = 1700


def _refusal_program(name):
    """``(program, observed views)``: a reduction of a kernel's store that
    must stay a launch of its own, one program per legality condition."""
    from repro.bytecode.builder import ProgramBuilder
    from repro.bytecode.view import View

    n = REFUSAL_LENGTH
    builder = ProgramBuilder()
    draw = builder.new_vector(n + 1, name="draw")
    builder.random(draw, 7)
    head = View(draw.base, 0, (n,), (1,))
    total = builder.new_vector(1, name="total")
    observed = [total]
    frees = [draw]
    if name == "output_aliases_an_input":
        product = builder.new_vector(n, name="product")
        builder.multiply(product, head, 2.0)
        total = View(draw.base, 0, (1,), (1,))  # a window the kernel reads
        builder.add_reduce(total, product)
        observed, frees = [View.full(draw.base)], [product]
    elif name == "producer_stores_a_sub_view":
        product = builder.new_vector(n, name="product")
        half = View(product.base, 0, (n // 2,), (1,))
        builder.multiply(half, View(draw.base, 0, (n // 2,), (1,)), 2.0)
        builder.add_reduce(total, product)  # the stored half and the zeros beside it
        frees.append(product)
    elif name == "source_updated_in_place":
        builder.multiply(head, head, 2.0)
        builder.add_reduce(total, head)
    elif name == "producer_shifts_its_own_window":
        tail = View(draw.base, 1, (n,), (1,))
        builder.multiply(tail, head, 0.5)  # serial semantics: reads before it writes
        builder.add_reduce(total, tail)
    else:
        product = builder.new_vector(n, name="product")
        builder.multiply(product, head, 2.0)
        if name == "another_store_is_observed":
            shifted = builder.new_vector(n, name="shifted")
            builder.add(shifted, product, 1.0)
            builder.add_reduce(total, shifted)
            observed.append(product)
            frees.append(shifted)
        else:
            builder.add_reduce(total, product)
        if name == "source_synced":
            observed.append(product)
        if name == "source_read_again":
            largest = builder.new_vector(1, name="largest")
            builder.maximum_reduce(largest, product)
            observed.append(largest)
        if name in ("source_read_again",):  # the observed ones stay readable
            frees.append(product)
    for view in observed:
        builder.sync(view)
    for view in frees:
        builder.free(view)
    return builder.build(), observed


#: Program -> the reason ``FusionSchedule.stats()`` must give for it.
REFUSALS = {
    "source_synced": "reduction source is synced",
    "source_read_again": "reduction source is accessed again after the kernel",
    "source_not_freed": "reduction source is not freed",
    "output_aliases_an_input": "reduction output aliases a kernel operand",
    "producer_stores_a_sub_view": "reduction reads no store of its kernel",
    "source_updated_in_place": "kernel updates a base in place",
    "producer_shifts_its_own_window": "overlapping windows of one base",
    "another_store_is_observed": "another store of the kernel is synced",
}


@pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_refused_reduction_stays_unfused_and_correct(name, backend):
    """One program per legality condition of a reduction tail: the scheduler
    says why it refused, no kernel ends in the reduction, and every tier
    still answers what the tail-free schedule and the oracle answer."""
    program, observed = _refusal_program(name)
    oracle, _ = _execute(program, observed, "interpreter", optimize=False)
    values = {}
    for scheduler in ("dag", "consecutive"):
        with config_override(**SMALL_TILES, fusion_scheduler=scheduler), on_tier(backend) as tier:
            engine = ExecutionEngine(backend=tier, optimize=True)
            values[scheduler] = [
                [result.value(view) for view in observed]
                for result in [engine.execute(program) for _ in range(runs(backend))]
            ]
            if scheduler == "dag":
                schedule = engine.last_plan.fusion_schedule.stats()
                assert schedule["fusion_reduction_tails"] == 0
                assert schedule["fusion_tail_refusals"].get(REFUSALS[name]), schedule
                assert not any(
                    instruction.is_fused() and instruction.kernel[-1].is_reduction()
                    for instruction in engine.last_plan.optimized
                )
    # Every run meets the oracle; the two schedules share their bits on the
    # last run (an earlier native run may template what the other compiled).
    for index, (fused, unfused) in enumerate(zip(values["dag"][-1], values["consecutive"][-1])):
        _assert_bitwise(fused, unfused, f"{backend} {name}, output {index}")
    for run in values["dag"] + values["consecutive"]:
        for index, (value, reference) in enumerate(zip(run, oracle)):
            _assert_close(value, reference, f"{backend} {name} vs oracle, output {index}")
