"""Differential testing: every backend against the NumPy oracle.

A second *real* execution backend multiplies the ways results can diverge:
tiling can mis-slice a view, a rebound plan can alias the wrong base, an
optimization pass can interact badly with a backend-specific execution
strategy.  This harness pits every in-process backend — interpreter,
fusing JIT, tiled parallel, native codegen — and both
optimization levels against a single oracle on randomly generated programs.

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
from repro.utils.config import config_override
from repro.workloads.generators import random_elementwise_program, random_mixed_program

#: Every backend the harness checks.
BACKENDS = ("interpreter", "jit", "parallel", "native")

#: Backends allowed to reassociate floating-point reductions (tree-combined
#: tile partials); they get tolerance instead of bitwise comparison on
#: programs containing full 1-D reductions.  The native backend inherits
#: the parallel backend's reduction paths unchanged.
REASSOCIATING_BACKENDS = ("parallel", "native")

#: Tolerances matching the semantic verifier's defaults.
RTOL, ATOL = 1e-6, 1e-8

#: Force multi-tile execution paths even on the small arrays the generator
#: produces, so parity covers tiling rather than serial fallbacks.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

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


def _execute(program, views, backend, optimize):
    engine = ExecutionEngine(backend=backend, optimize=optimize)
    result = engine.execute(program)
    return [result.value(view) for view in views], result.stats


def _assert_close(actual, expected, context):
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=ATOL, equal_nan=True, err_msg=context
    )


def _assert_bitwise(actual, expected, context):
    assert np.array_equal(actual, expected, equal_nan=True), (
        f"{context}: results differ bitwise\nexpected={expected!r}\nactual={actual!r}"
    )


def _check_program(program, synced, bitwise_backends, close_backends):
    """Run the full backend × optimization matrix for one program."""
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
            bitwise_backends=("jit", "parallel", "native"),
            close_backends=(),
        )


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_mixed_program_parity(seed):
    """Programs with reductions and generators: tolerance for tree combines."""
    program, synced = random_mixed_program(seed, num_instructions=10)
    with config_override(**TINY_TILES):
        _check_program(
            program,
            synced,
            bitwise_backends=("jit",),
            close_backends=REASSOCIATING_BACKENDS,
        )


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
                engine = ExecutionEngine(backend=backend, optimize=True)
                result = engine.execute(program)
                values = [result.value(view) for view in synced]
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

            schedule = compute_schedule(program)
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


@pytest.mark.parametrize("seed", ELEMENTWISE_SEEDS[:20])
def test_native_thread_axis_elementwise_bitwise(seed):
    """native × threads∈{1,4}: in-kernel threading may not move a bit.

    Element-wise kernels compute each output element independently, so the
    block partition performed inside ``repro_kernel_mt`` must be invisible:
    the threads=4 run compares bitwise against the threads=1 run (and both
    against the oracle via the main parity axis).
    """
    program, synced = elementwise_program(
        seed, num_instructions=12, vector_length=24
    )
    results = {}
    for threads in (1, 4):
        with config_override(**TINY_TILES, codegen_threads=threads):
            results[threads], _ = _execute(program, synced, "native", optimize=True)
    for index, (actual, expected) in enumerate(zip(results[4], results[1])):
        _assert_bitwise(
            actual, expected, f"native threads=4 vs threads=1 (seed {seed}), output {index}"
        )


@pytest.mark.parametrize("seed", MIXED_SEEDS[:20])
def test_native_thread_axis_mixed_within_contract(seed):
    """native × threads∈{1,4} on reduction-bearing programs.

    Thread count changes how a compiled 1-D combine reduction chunks its
    partials, which reassociates floating-point folds — exactly the
    relaxation the parallel backend already has.  No new tolerance is
    introduced: the comparison uses the established RTOL/ATOL.
    """
    program, synced = random_mixed_program(seed, num_instructions=10)
    results = {}
    for threads in (1, 4):
        with config_override(**TINY_TILES, codegen_threads=threads):
            results[threads], _ = _execute(program, synced, "native", optimize=True)
    for index, (actual, expected) in enumerate(zip(results[4], results[1])):
        _assert_close(
            actual, expected, f"native threads=4 vs threads=1 (seed {seed}), output {index}"
        )


def test_native_mt_entry_point_actually_fired():
    """The thread axis must not pass vacuously on the single-thread path.

    With a threading-capable toolchain, the threads=4 column above must
    have routed launches through ``repro_kernel_mt``; if every launch took
    the per-tile path the axis would compare the serial path to itself.
    """
    from repro.codegen import find_c_compiler
    from repro.codegen.compiler import select_mt_mode

    if find_c_compiler() is None:
        pytest.skip("no C compiler on this host; native backend runs fallbacks only")
    if select_mt_mode() == "serial":
        pytest.skip("toolchain supports neither -pthread nor OpenMP")
    mt_launches = 0
    for seed in ELEMENTWISE_SEEDS[:8]:
        program, synced = elementwise_program(
            seed, num_instructions=12, vector_length=24
        )
        with config_override(**TINY_TILES, codegen_threads=4):
            _, stats = _execute(program, synced, "native", optimize=True)
        mt_launches += stats.native_mt_launches
    assert mt_launches > 0, "repro_kernel_mt never fired; the thread axis is vacuous"


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
EXECUTING_BACKENDS = ("interpreter", "jit", "parallel", "native", "dist")


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
    oracle = _stencils(Session(backend="interpreter", optimize=False))
    with config_override(parallel_tile_elements=64, parallel_serial_threshold=4):
        session = Session(backend=backend, optimize=True)
        forwarded = _stencils(session)
        with config_override(enabled_passes=without):
            kept = _stencils(Session(backend=backend, optimize=True))
    fired = sum(
        note.startswith("forwarded store")
        for plan in session.engine.plan_cache.values()
        for run in plan.report.stats_for("copy_propagation")
        for note in run.notes
    )
    assert fired == 3 + 3 + 1, "the axis is vacuous: no store was forwarded"
    for index, (on, off, reference) in enumerate(zip(forwarded, kept, oracle)):
        _assert_bitwise(on, off, f"{backend} forwarding on vs off, output {index}")
        if on.size > 1 or backend not in REASSOCIATING_BACKENDS + ("dist",):
            _assert_bitwise(on, reference, f"{backend} vs oracle, output {index}")
        else:
            _assert_close(on, reference, f"{backend} vs oracle, output {index}")


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
            stats = ExecutionEngine(backend=backend, optimize=True).execute(program).stats
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
        "repro.runtime.native.lower_reduction",
    ):
        _count_calls(monkeypatch, target, calls)
    # With only the fusion pass enabled the engine plans exactly the program
    # the backend schedules for itself.
    with config_override(**TINY_TILES, enabled_passes=["fusion"]):
        program, synced = generator(seed)
        planned = ExecutionEngine(backend=backend_name, optimize=True).execute(program)
        expected = [planned.value(view) for view in synced]

        backend = get_backend(backend_name)
        results = []
        for _ in range(2):
            program, synced = generator(seed)  # fresh bases, same structure
            after_first = dict(calls)
            result = backend.execute(program)
            results.append(result)
            for index, (view, reference) in enumerate(zip(synced, expected)):
                _assert_bitwise(
                    result.value(view), reference, f"{backend_name} plan-less, output {index}"
                )
    for result in results:
        for counter in ("tiles_executed", "native_kernel_launches", "dist_shard_launches"):
            assert getattr(result.stats, counter) == getattr(planned.stats, counter), counter
    assert planned.stats.tiles_executed > 0, "nothing tiled; the comparison is vacuous"
    assert calls == after_first, "the second plan-less call re-derived plan artifacts"
    # Non-vacuity: the planned flush and the first plan-less call each did
    # derive them, once.
    assert calls["decompose"] == 2
    if backend_name == "dist":
        assert calls["build_dist_plan"] == 2
    if backend_name == "native":
        assert calls["lower_kernel"] >= 2
    cache = backend.cache_stats()
    assert (cache["tiling_cache_misses"], cache["tiling_cache_hits"]) == (1, 1)


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
    the program ``build()`` returns, on ``backend``."""
    program, out = build()
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    values = {}
    tails = 0
    for scheduler in ("dag", "consecutive"):
        with config_override(**config, fusion_scheduler=scheduler):
            if planned:
                engine = ExecutionEngine(backend=backend, optimize=True)
                values[scheduler] = engine.execute(program).value(out)
                tails += engine.last_plan.fusion_schedule.reduction_tails
            else:
                values[scheduler] = get_backend(backend).execute(program).value(out)
    return values["dag"], values["consecutive"], oracle.value(out), tails


def _assert_map_reduce_cell(cell, elements, context):
    fused, unfused, oracle, _ = cell
    assert fused.dtype == unfused.dtype == oracle.dtype, context
    # The tail keeps the bare reduction's spans and combine tree: same bits
    # as the tail-free schedule on the same tier, whatever the dtype.
    assert fused.tobytes() == unfused.tobytes(), (context, fused, unfused)
    if oracle.dtype.kind != "f":
        assert fused.tobytes() == oracle.tobytes(), (context, fused, oracle)
    else:
        # Tiled tiers reassociate: the harness's tolerance, or the dtype's
        # rounding over the reduced elements (float32 accumulates in float32).
        rtol = max(RTOL, elements * float(np.finfo(oracle.dtype).eps))
        np.testing.assert_allclose(fused, oracle, rtol=rtol, err_msg=context)


#: (A plan-less interpreter schedules nothing: there is no tail to compare;
#: the other plan-less cells cross the tiled geometries only.)
TEMPLATE_TIER_CELLS = [
    pytest.param(
        geometry, backend, planned, id=f"{geometry}-{backend}" + ("" if planned else "-planless")
    )
    for geometry in sorted(GEOMETRIES)
    for backend, planned in (
        ("interpreter", True), ("jit", True), ("parallel", True), ("jit", False), ("parallel", False)
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
        cell = _map_reduce_cell(
            lambda: map_reduce_program(PRODUCER_DTYPES[dtype], reduction, shape, axis),
            backend,
            planned,
            **SMALL_TILES,
        )
        _assert_map_reduce_cell(cell, shape[axis], f"{backend} {dtype} {reduction} {geometry}")
        tails += cell[3]
    assert tails == (len(reductions) if planned else 0), "the axis is vacuous: no tail"


#: The compiled tier pays one ``cc`` run per canonical map-reduce form, so
#: it crosses fewer cells: every dtype with a sum, every reduction on
#: float64 and int32, each 2-D axis, a one-wide dim.
NATIVE_CELLS = (
    [(dtype, "add", "rank1_spans") for dtype in sorted(PRODUCER_DTYPES)]
    + [(dtype, reduction, "rank1_spans") for dtype in ("float64", "int32") for reduction in REDUCTIONS[1:]]
    + [("bool", "maximum", "rank1_spans")]  # no compiled form: the counted fallback
    + [(dtype, "add", geometry) for dtype in ("float64", "bool") for geometry in ("rows_axis0", "rows_axis1")]
    + [("float32", "maximum", "rows_axis0"), ("int64", "add", "one_column_axis0")]
    + [("float64", "add", "rank1_serial"), ("float64", "add", "rank1_one_span")]
)


@pytest.mark.parametrize("planned", [True, False], ids=["plan", "planless"])
@pytest.mark.parametrize("dtype,reduction,geometry", NATIVE_CELLS)
def test_map_reduce_axis_native(dtype, reduction, geometry, planned, map_reduce_program):
    shape, axis = GEOMETRIES[geometry]
    for threads in (1, 4):
        cell = _map_reduce_cell(
            lambda: map_reduce_program(PRODUCER_DTYPES[dtype], reduction, shape, axis),
            "native",
            planned,
            **SMALL_TILES,
            codegen_threads=threads,
        )
        _assert_map_reduce_cell(
            cell, shape[axis], f"native({threads}) {dtype} {reduction} {geometry}"
        )


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
                values[scheduler] = engine.execute(program).value(out)
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
        _assert_map_reduce_cell(
            (values["dag"], values["consecutive"], oracle[0], 1), length, f"{backend} {dtype}"
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
    tier, after checking its bits against the unoptimized interpreter's."""
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program).value(out)
    for tier, (backend, planned, threads) in LITERAL_TIERS.items():
        with config_override(**SMALL_TILES, **settings, codegen_threads=threads):
            if planned:
                result = ExecutionEngine(backend=backend, optimize=True).execute(program)
            else:
                result = get_backend(backend).execute(program)
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
        assert stats.native_kernel_launches + stats.native_reductions_compiled > 0, context
        assert stats.native_fallbacks + stats.native_reduction_fallbacks == 0, (
            context,
            stats.native_fallback_reasons,
        )


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
        with config_override(**SMALL_TILES, fusion_scheduler=scheduler):
            engine = ExecutionEngine(backend=backend, optimize=True)
            result = engine.execute(program)
            values[scheduler] = [result.value(view) for view in observed]
            if scheduler == "dag":
                schedule = engine.last_plan.fusion_schedule.stats()
                assert schedule["fusion_reduction_tails"] == 0
                assert schedule["fusion_tail_refusals"].get(REFUSALS[name]), schedule
                assert not any(
                    instruction.is_fused() and instruction.kernel[-1].is_reduction()
                    for instruction in engine.last_plan.optimized
                )
    for index, (fused, unfused, reference) in enumerate(
        zip(values["dag"], values["consecutive"], oracle)
    ):
        _assert_bitwise(fused, unfused, f"{backend} {name}, output {index}")
        _assert_close(fused, reference, f"{backend} {name} vs oracle, output {index}")
