"""E16 — in-kernel multithreading for the native C tier.

PR 5 made warm element-wise flushes compile to C; this experiment measures
moving the *thread split* into the compiled artifact.  With
``codegen_threads=N`` a whole fused map step is ONE ``repro_kernel_mt``
ctypes call — the artifact block-partitions its outermost loop across a
persistent in-kernel pthread pool — instead of one Python-side launch per
tile.  Tiled reductions, which previously always ran on the interpreted
parallel paths, now lower to compiled kernels whose per-chunk partials
tree-combine in the parallel backend's fixed order.

Assertions are layered by flakiness, as everywhere in this harness:

* **deterministic, hard** — launch accounting: on a threading-capable
  toolchain every fused map step of the warm flush is exactly one
  ``repro_kernel_mt`` call (no per-tile launches), and the reduction
  workload compiles its reductions with **zero** interpreter fallbacks.
  Element-wise results are bit-identical across thread counts and to the
  unoptimized oracle; reduction results stay within the established
  reduction contract (tree combines legitimately reassociate).
* **wall-clock, soft** — on a multi-core host, warm threaded-native must
  beat warm single-thread native by >= 1.3x (a failure under
  ``REPRO_BENCH_STRICT=1``, a warning otherwise; the soft target 2.5x
  always warns).  The comparison is skipped on single-core
  hosts, where an in-kernel thread split cannot win by construction.
"""

import os
import time
import warnings

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.codegen.compiler import select_mt_mode
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.tiling import TiledMapStep
from repro.utils.config import config_override
from repro.workloads import heat_equation

from conftest import record_table, wall_clock_floor

GRID = 1200
ITERATIONS = 20
VECTOR_LENGTH = 1 << 22
MATRIX_ROWS, MATRIX_COLS = 2048, 1024
THREADS = 4
HARD_FLOOR = 1.3
SOFT_TARGET = 2.5
ROUNDS = 3
RTOL, ATOL = 1e-6, 1e-8

requires_compiler = pytest.mark.skipif(
    find_c_compiler() is None,
    reason="no C compiler on this host; the native backend would only run fallbacks",
)

requires_mt_toolchain = pytest.mark.skipif(
    find_c_compiler() is None or select_mt_mode() == "serial",
    reason="toolchain supports neither -pthread nor OpenMP; artifacts are serial-mode",
)

requires_multicore = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="single-core host: an in-kernel thread split cannot win wall-clock",
)


def _best_stencil_time(session, rounds=ROUNDS):
    best = float("inf")
    out = None
    for _ in range(rounds):
        start = time.perf_counter()
        grid = heat_equation(grid_size=GRID, iterations=ITERATIONS, session=session)
        out = grid.to_numpy()
        best = min(best, time.perf_counter() - start)
    return best, out


@requires_mt_toolchain
@requires_multicore
def test_threaded_native_beats_single_thread_on_heat_equation(benchmark, tmp_path):
    with config_override(codegen_cache_dir=str(tmp_path)):
        clear_memory_cache()

        # Warm both configurations fully before measuring.  The artifact is
        # the SAME compiled library in both columns (nthreads is a runtime
        # argument, never a digest input), so the single-thread warmup also
        # compiled everything the threaded run launches.
        with config_override(codegen_threads=1):
            single = Session(backend="native", optimize=True)
            heat_equation(
                grid_size=GRID, iterations=ITERATIONS, session=single
            ).to_numpy()
        with config_override(codegen_threads=THREADS):
            threaded = Session(backend="native", optimize=True)
            heat_equation(
                grid_size=GRID, iterations=ITERATIONS, session=threaded
            ).to_numpy()
            warm = threaded.stats_history[-1]
        assert warm.native_compiles == 0  # same artifacts as the 1-thread column
        assert warm.native_fallbacks == 0
        assert warm.native_mt_launches > 0

        def measure():
            with config_override(codegen_threads=1):
                single_seconds, single_out = _best_stencil_time(single)
            with config_override(codegen_threads=THREADS):
                threaded_seconds, threaded_out = _best_stencil_time(threaded)
            return single_seconds, single_out, threaded_seconds, threaded_out

        single_seconds, single_out, threaded_seconds, threaded_out = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        benchmark.group = "E16 in-kernel threading"

    # Element-wise stencil: the in-kernel block partition may not move a bit.
    assert np.array_equal(single_out, threaded_out)

    speedup = single_seconds / threaded_seconds if threaded_seconds else float("inf")
    record_table(
        benchmark,
        f"E16: heat equation, {GRID}x{GRID} grid, {ITERATIONS} steps, "
        f"threads 1 vs {THREADS} (warm flushes)",
        [
            {
                "threads": 1,
                "warm_ms": single_seconds * 1e3,
                "mt_launches": 0,
                "speedup": 1.0,
            },
            {
                "threads": THREADS,
                "warm_ms": threaded_seconds * 1e3,
                "mt_launches": warm.native_mt_launches,
                "speedup": speedup,
            },
        ],
        ["threads", "warm_ms", "mt_launches", "speedup"],
    )
    if speedup < SOFT_TARGET:
        warnings.warn(
            f"E16 soft target missed: in-kernel threading speedup {speedup:.2f}x "
            f"< {SOFT_TARGET}x over single-thread native on the stencil "
            "(few cores? noisy host?)",
            stacklevel=1,
        )
    wall_clock_floor(
        "E16",
        speedup,
        HARD_FLOOR,
        f"threaded native ({threaded_seconds * 1e3:.1f} ms) over "
        f"single-thread native ({single_seconds * 1e3:.1f} ms)",
    )


def _two_kernel_program():
    """Two differently-shaped fused chains → two distinct tiled map steps,
    each over a random draw (over a constant it would fold to a fill, which
    is no ``repro_kernel_mt`` call)."""
    builder = ProgramBuilder()
    a = builder.new_vector(VECTOR_LENGTH)
    b = builder.new_vector(VECTOR_LENGTH // 2)
    builder.random(a, 16)
    builder.random(b, 17)
    for _ in range(6):
        builder.multiply(a, a, 1.0009765625)
        builder.add(a, a, 0.25)
    for _ in range(4):
        builder.add(b, b, 0.125)
        builder.multiply(b, b, 0.99951171875)
    builder.sync(a)
    builder.sync(b)
    return builder.build(), a, b


@requires_mt_toolchain
def test_one_ctypes_launch_per_fused_map_step(benchmark, tmp_path):
    """Hard accounting: a fused map step is ONE repro_kernel_mt call.

    Valid on any core count — the counter contract is about how many
    foreign calls the warm flush makes, not about wall-clock.
    """
    program, a, b = _two_kernel_program()
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    with config_override(codegen_cache_dir=str(tmp_path), codegen_threads=THREADS):
        clear_memory_cache()
        engine = ExecutionEngine(backend="native", optimize=True)
        engine.execute(program)

        def measure():
            return engine.execute(program)

        warm = benchmark.pedantic(measure, rounds=1, iterations=1)
        benchmark.group = "E16 in-kernel threading"

    map_steps = [
        step
        for step in engine.last_plan.tiling.steps
        if isinstance(step, TiledMapStep)
    ]
    assert len(map_steps) >= 2, "workload must decompose into several map steps"
    assert any(len(step.spans) > 1 for step in map_steps), (
        "no step tiled; the one-launch assert would be vacuous"
    )
    # Exactly one ctypes launch per fused map step — the per-tile path
    # never ran, and every launch went through the chunked entry point.
    assert warm.stats.native_mt_launches == len(map_steps)
    assert warm.stats.tiles_executed == len(map_steps)
    assert warm.stats.native_fallbacks == 0
    # Bit-identical to the unoptimized oracle (element-wise program).
    assert np.array_equal(warm.value(a), oracle.value(a))
    assert np.array_equal(warm.value(b), oracle.value(b))

    record_table(
        benchmark,
        "E16: launch accounting (warm flush)",
        [
            {
                "map_steps": len(map_steps),
                "mt_launches": warm.stats.native_mt_launches,
                "tiles_executed": warm.stats.tiles_executed,
                "spans_total": sum(len(step.spans) for step in map_steps),
            }
        ],
        ["map_steps", "mt_launches", "tiles_executed", "spans_total"],
    )


def _reduction_program():
    """Matrix chain → row sums → scalar total: n-D and 1-D combine forms."""
    builder = ProgramBuilder()
    matrix = builder.new_matrix(MATRIX_ROWS, MATRIX_COLS)
    rows = builder.new_vector(MATRIX_ROWS)
    total = builder.new_vector(1)
    builder.identity(matrix, 0.001953125)
    builder.multiply(matrix, matrix, 1.5)
    builder.add(matrix, matrix, 0.0625)
    builder.add_reduce(rows, matrix, axis=1)
    builder.add_reduce(total, rows, axis=0)
    builder.sync(rows)
    builder.sync(total)
    return builder.build(), rows, total


@requires_compiler
def test_compiled_reduction_workload(benchmark, tmp_path):
    program, rows, total = _reduction_program()
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    with config_override(
        codegen_cache_dir=str(tmp_path),
        codegen_threads=THREADS,
        # Let the 1-D scalar reduction tile too (its source is only
        # MATRIX_ROWS elements), so BOTH reduction forms run compiled.
        # Tile geometry is irrelevant to the compiled paths — every map
        # and reduction below is one foreign call regardless of spans.
        parallel_serial_threshold=512,
        parallel_tile_elements=1024,
    ):
        clear_memory_cache()
        engine = ExecutionEngine(backend="native", optimize=True)
        cold = engine.execute(program)

        def measure():
            return engine.execute(program)

        warm = benchmark.pedantic(measure, rounds=1, iterations=1)
        benchmark.group = "E16 in-kernel threading"

    # Both reduction forms (n-D slice and 1-D combine) compiled; the
    # interpreted tiled reduction path never ran — cold or warm.
    assert cold.stats.native_reductions_compiled == 2
    assert cold.stats.native_reduction_fallbacks == 0
    assert warm.stats.native_reductions_compiled == 2
    assert warm.stats.native_reduction_fallbacks == 0
    assert warm.stats.native_compiles == 0

    # Within the established reduction contract versus the unoptimized
    # oracle (chunked partials legitimately reassociate float adds).
    np.testing.assert_allclose(
        warm.value(rows), oracle.value(rows), rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        warm.value(total), oracle.value(total), rtol=RTOL, atol=ATOL
    )

    record_table(
        benchmark,
        f"E16: compiled reductions, {MATRIX_ROWS}x{MATRIX_COLS} matrix (warm flush)",
        [
            {
                "reductions_compiled": warm.stats.native_reductions_compiled,
                "reduction_fallbacks": warm.stats.native_reduction_fallbacks,
                "mt_launches": warm.stats.native_mt_launches,
                "compiles_cold": cold.stats.native_compiles,
            }
        ],
        [
            "reductions_compiled",
            "reduction_fallbacks",
            "mt_launches",
            "compiles_cold",
        ],
    )
