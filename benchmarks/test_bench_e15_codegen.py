"""E15 — native codegen backend versus the tiled parallel backend.

The native backend lowers each fused kernel form to a C loop nest once and
then launches the compiled artifact on every warm flush, so the per-element
cost drops from NumPy dispatch (one full-array traversal and one
materialised temporary per byte-code, even inside a fused kernel) to a
single fused loop that keeps instruction-local temporaries in registers.

Two workloads, both dominated by fused element-wise kernels:

* the heat-equation stencil (the paper's flagship workload) at a grid large
  enough that both backends are memory-bound — the native win here is
  eliminating materialised stencil temporaries, and
* the E12 element-wise chain (24 fused operations over 4M-element vectors),
  where interpreted execution pays 24 array traversals per tile and the
  compiled loop pays one.

Assertions are layered by flakiness, as everywhere in this harness:

* **deterministic, hard** — compile/cache counters, pinned exactly for
  the first, second and third launch: a kernel form is compiled (into a
  per-test temporary cache dir) once it is known to run twice — the
  stencil's forms recur in its plan and compile on the cold flush, the
  chain's one form runs its template first and compiles on its second
  flush — every warm flush performs **zero** compiler invocations and zero
  fallbacks, and a fresh backend restores every artifact from the on-disk
  cache on its first launch without invoking the compiler once — the
  acceptance criterion for warm services.  Results are bit-identical to
  the parallel backend (same tiling, same plans, the loop nest lowering is
  bitwise-safe by construction).
* **wall-clock, soft** — the acceptance target is >= 5x over the parallel
  backend on warm flushes (measured ~5-10x single-core).  Missing the
  target warns loudly instead of flaking CI; the 1.5x floor guards against
  catastrophic regression only, and fails only under
  ``REPRO_BENCH_STRICT=1`` (it warns otherwise).
"""

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.codegen import clear_memory_cache, find_c_compiler
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import MemoryManager
from repro.runtime.native import FIRST_LAUNCH
from repro.utils.config import config_override
from repro.workloads import heat_equation

from conftest import record_table, wall_clock_floor

GRID = 1200
ITERATIONS = 20
VECTOR_LENGTH = 1 << 22
CHAIN_OPS = 24
SPEEDUP_TARGET = 5.0
ROUNDS = 3

requires_compiler = pytest.mark.skipif(
    find_c_compiler() is None,
    reason="no C compiler on this host; the native backend would only run fallbacks",
)


def _native_counters(stats) -> dict:
    return {
        key: value
        for key, value in stats.as_dict().items()
        if key.startswith("native_")
    }


def _best_stencil_time(session, rounds=ROUNDS):
    """Best-of-N warm wall time for the full stencil flush on ``session``."""
    best = float("inf")
    out = None
    for _ in range(rounds):
        start = time.perf_counter()
        grid = heat_equation(grid_size=GRID, iterations=ITERATIONS, session=session)
        out = grid.to_numpy()
        best = min(best, time.perf_counter() - start)
    return best, out


@requires_compiler
def test_native_backend_beats_parallel_on_heat_equation(benchmark, tmp_path):
    with config_override(codegen_cache_dir=str(tmp_path)):
        clear_memory_cache()

        parallel = Session(backend="parallel", optimize=True)
        heat_equation(grid_size=GRID, iterations=ITERATIONS, session=parallel).to_numpy()

        native = Session(backend="native", optimize=True)
        cold_grid = heat_equation(
            grid_size=GRID, iterations=ITERATIONS, session=native
        ).to_numpy()
        cold = native.stats_history[-1]

        # ---------------- deterministic assertions (hard) ----------------- #
        # Cold flush against an empty cache dir: of an iteration's two
        # steps, the grid copy is written by NumPy and the stencil form
        # recurs in the plan, so the compiler ran once, the disk had nothing
        # to offer, and compiled kernels (not fallbacks) did the work.
        assert cold.native_compiles == 1
        assert cold.native_disk_hits == 0
        assert cold.native_fallbacks == 0
        assert cold.native_kernel_launches == ITERATIONS

        def measure():
            parallel_seconds, parallel_out = _best_stencil_time(parallel)
            native_seconds, native_out = _best_stencil_time(native)
            return parallel_seconds, parallel_out, native_seconds, native_out

        parallel_seconds, parallel_out, native_seconds, native_out = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        benchmark.group = "E15 native codegen"
        warm = native.stats_history[-1]

        # Warm flushes replay the cached plan and launch straight into the
        # already-bound artifacts: zero compiler invocations, zero lowering
        # work, zero fallbacks — the acceptance criterion for warm services.
        assert warm.plan_cache_hits == 1
        assert warm.native_compiles == 0
        assert warm.native_disk_hits == 0
        assert warm.native_memory_hits == 0
        assert warm.native_fallbacks == 0
        assert warm.native_kernel_launches == ITERATIONS

        # Bit-identical to the parallel backend: same plans, same tiling,
        # and only bitwise-safe kernel forms are lowered.
        assert np.array_equal(parallel_out, native_out)
        assert np.array_equal(cold_grid, native_out)

        # A fresh backend instance with the in-process artifact memo wiped
        # must restore every kernel from the on-disk cache: zero compiler
        # invocations on a warm disk cache, one disk hit per cold compile.
        clear_memory_cache()
        restored = Session(backend="native", optimize=True)
        restored_grid = heat_equation(
            grid_size=GRID, iterations=ITERATIONS, session=restored
        ).to_numpy()
        disk = restored.stats_history[-1]
        assert disk.native_compiles == 0
        assert disk.native_disk_hits == cold.native_compiles
        assert disk.native_fallbacks == 0
        assert disk.native_kernel_launches == ITERATIONS
        assert np.array_equal(restored_grid, native_out)

    # ---------------- wall-clock comparison (soft) -------------------- #
    speedup = parallel_seconds / native_seconds if native_seconds else float("inf")
    record_table(
        benchmark,
        f"E15: heat equation, {GRID}x{GRID} grid, {ITERATIONS} steps (warm flushes)",
        [
            {
                "backend": "parallel",
                "warm_ms": parallel_seconds * 1e3,
                "compiles": 0,
                "disk_hits": 0,
                "native_launches": 0,
                "speedup": 1.0,
            },
            {
                "backend": "native",
                "warm_ms": native_seconds * 1e3,
                "compiles": cold.native_compiles,
                "disk_hits": disk.native_disk_hits,
                "native_launches": warm.native_kernel_launches,
                "speedup": speedup,
            },
        ],
        ["backend", "warm_ms", "compiles", "disk_hits", "native_launches", "speedup"],
    )
    if speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"E15 soft target missed: native backend speedup {speedup:.2f}x "
            f"< {SPEEDUP_TARGET}x over the parallel backend on the stencil "
            "(noisy host?)",
            stacklevel=1,
        )
    # Compiled loop nests must never lose to interpreted tiles.
    wall_clock_floor("E15", speedup, 1.5, "native over parallel on the stencil")


@requires_compiler
def test_default_cache_directory_serves_every_launch_without_fallbacks(monkeypatch):
    """The warm-path proof CI re-runs under a ``REPRO_CC`` that only fails.

    Unlike its siblings this one uses the user-level artifact directory
    (``~/.cache/repro-codegen`` or ``REPRO_CODEGEN_CACHE``), the one CI
    restores between runs.  After any earlier run has populated it, a fresh
    process — even one whose compiler exits 1 on every call — must find the
    kernels there: zero fallbacks at one thread and at two, where the grid
    is large enough for the stencil to split into row blocks (two tiles of
    ``parallel_tile_elements`` or more).  No thread count asks for the
    kernel runtime: a threaded step calls the same kernels.  Deterministic
    asserts only.
    """
    resolved = []
    monkeypatch.setattr(
        "repro.codegen.cache.resolve_runtime",
        lambda *args, **kwargs: resolved.append(args) or (None, None),
    )
    clear_memory_cache()
    oracle = Session(backend="parallel", optimize=True)
    expected = heat_equation(grid_size=512, iterations=4, session=oracle).to_numpy()
    for threads in (1, 2):
        with config_override(codegen_threads=threads):
            native = Session(backend="native", optimize=True)
            grid = heat_equation(grid_size=512, iterations=4, session=native).to_numpy()
            stats = native.stats_history[-1]
        assert stats.native_fallbacks == 0
        assert stats.native_kernel_launches > 0
        assert stats.native_compiles + stats.native_disk_hits + stats.native_memory_hits > 0
        assert (stats.native_mt_launches > 0) == (threads > 1)
        assert np.array_equal(grid, expected)
    assert resolved == [], "a native flush resolved the kernel runtime"


#: ``y = x * c + d`` for eight ``(c, d)``: one kernel form, eight programs.
SWEEP = [(1.5 + index, 0.25 * (index + 1)) for index in range(8)]

_SWEEP_TILES = dict(parallel_tile_elements=512, parallel_serial_threshold=64)


#: The counters of one launch that ``_run_sweep`` reports.
_LAUNCH_COUNTERS = (
    "native_compiles", "native_disk_hits", "native_memory_hits",
    "native_fallbacks", "native_kernel_launches",
)


def _run_sweep(cache_dir):
    """Execute the sweep on one fresh ``native`` engine — its first pair
    twice, so that the form runs a second time — and return its counters,
    those of its first three launches, bitwise agreement with the
    unoptimized interpreter, and what the directory holds."""
    clear_memory_cache()
    bitwise = True
    launches = []
    with config_override(**_SWEEP_TILES, codegen_cache_dir=str(cache_dir)):
        engine = ExecutionEngine(backend="native", optimize=True)
        oracle = ExecutionEngine(backend="interpreter", optimize=False)
        for c, d in SWEEP[:1] + SWEEP:
            builder = ProgramBuilder()
            x, y = builder.new_vector(4096), builder.new_vector(4096)
            builder.random(x, seed=15)
            builder.multiply(y, x, c)
            builder.add(y, y, d)
            builder.sync(y)
            program = builder.build()
            result = engine.execute(program)
            got, want = result.value(y), oracle.execute(program).value(y)
            bitwise = bitwise and got.tobytes() == want.tobytes()
            launches.append([getattr(result.stats, key) for key in _LAUNCH_COUNTERS])
        counters = engine.backend.cache_stats()
    kernels = [name for name in os.listdir(cache_dir) if name.endswith(".c")]
    return {
        "bitwise": bitwise,
        "kernels": len(kernels),
        "first_launches": launches[:3],
        **{key: counters[key] for key in _LAUNCH_COUNTERS},
    }


@requires_compiler
def test_a_constant_sweep_compiles_once(tmp_path):
    """A kernel artifact is named by its form, not by its numbers: eight
    ``(c, d)`` pairs are one ``cc`` run and seven memo hits in the process
    that starts cold, and no ``cc`` run at all in the next process.

    Launch by launch (compiles, disk hits, memo hits, fallbacks, compiled
    launches): in the cold process the first pair's first launch runs the
    template, its second compiles, and the next pair's first launch loads
    that artifact from the memo; in the next process the first launch is a
    disk hit, not a template."""
    cold = _run_sweep(tmp_path)
    assert cold == {
        "bitwise": True,
        "kernels": 1,
        "first_launches": [[0, 0, 0, 1, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 1]],
        "native_compiles": 1,
        "native_disk_hits": 0,
        "native_memory_hits": len(SWEEP) - 1,
        "native_fallbacks": 1,
        "native_kernel_launches": len(SWEEP),
    }
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{os.path.join(root, 'src')!r}, {os.path.join(root, 'benchmarks')!r}]\n"
        "from test_bench_e15_codegen import _run_sweep\n"
        f"print(json.dumps(_run_sweep({str(tmp_path)!r})))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=180
    )
    assert fresh.returncode == 0, fresh.stderr
    warm = json.loads(fresh.stdout.strip().splitlines()[-1])
    assert warm == dict(
        cold,
        first_launches=[[0, 1, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 1, 0, 1]],
        native_compiles=0,
        native_disk_hits=1,
        native_fallbacks=0,
        native_kernel_launches=len(SWEEP) + 1,
    )


def _build_chain():
    """The E12 workload: two vectors through a 24-op fused chain.

    ``a`` is an input, uniform in [0, 1) in the returned memory (execute on
    a clone): over constants alone lowering folds the chain to a fill, and
    the comparison would time one NumPy assignment against 24 interpreted
    passes.  Returns ``(program, a, b, inputs)``.
    """
    builder = ProgramBuilder()
    a = builder.new_vector(VECTOR_LENGTH)
    b = builder.new_vector(VECTOR_LENGTH)
    builder.identity(b, 1.5)
    for i in range(CHAIN_OPS):
        if i % 3 == 0:
            builder.multiply(a, a, b)
        elif i % 3 == 1:
            builder.add(a, a, 0.125)
        else:
            builder.maximum(b, b, a)
    builder.sync(a)
    builder.sync(b)
    inputs = MemoryManager()
    inputs.set_data(a.base, np.random.default_rng(15).random(VECTOR_LENGTH))
    return builder.build(), a, b, inputs


def _best_engine_time(engine, program, inputs, rounds=ROUNDS):
    return min(
        engine.execute(program, inputs.clone()).stats.wall_time_seconds
        for _ in range(rounds)
    )


@requires_compiler
def test_native_backend_beats_parallel_on_elementwise_chain(benchmark, tmp_path):
    program, a, b, inputs = _build_chain()
    with config_override(codegen_cache_dir=str(tmp_path)):
        clear_memory_cache()

        parallel = ExecutionEngine(backend="parallel", optimize=True)
        native = ExecutionEngine(backend="native", optimize=True)
        reference = parallel.execute(program, inputs.clone())

        # The chain is one kernel form in one step: its first launch runs
        # the template, its second compiles it, its third is warm.
        first = native.execute(program, inputs.clone())
        assert first.stats.native_compiles == first.stats.native_kernel_launches == 0
        assert first.stats.native_fallbacks == 1
        assert first.stats.native_fallback_reasons == {FIRST_LAUNCH: 1}

        cold = native.execute(program, inputs.clone())
        assert cold.stats.native_compiles == 1
        assert cold.stats.native_disk_hits == 0
        assert cold.stats.native_fallbacks == 0
        assert cold.stats.native_kernel_launches == 1

        warm = native.execute(program, inputs.clone())
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.native_compiles == 0
        assert warm.stats.native_fallbacks == 0
        assert warm.stats.native_kernel_launches == 1

        # The whole chain is one fused kernel: bit-identical outputs, from
        # the template and from the compiled loop alike.
        for result in (first, warm):
            assert np.array_equal(reference.value(a), result.value(a))
            assert np.array_equal(reference.value(b), result.value(b))

        def measure():
            return (
                _best_engine_time(parallel, program, inputs),
                _best_engine_time(native, program, inputs),
            )

        parallel_seconds, native_seconds = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        benchmark.group = "E15 native codegen"

    speedup = parallel_seconds / native_seconds if native_seconds else float("inf")
    record_table(
        benchmark,
        f"E15: {VECTOR_LENGTH} elements x {CHAIN_OPS}-op fused chain (warm flushes)",
        [
            {
                "backend": "parallel",
                "warm_ms": parallel_seconds * 1e3,
                "compiles": 0,
                "speedup": 1.0,
            },
            {
                "backend": "native",
                "warm_ms": native_seconds * 1e3,
                "compiles": cold.stats.native_compiles,
                "speedup": speedup,
            },
        ],
        ["backend", "warm_ms", "compiles", "speedup"],
    )
    if speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"E15 soft target missed: native backend speedup {speedup:.2f}x "
            f"< {SPEEDUP_TARGET}x over the parallel backend on the fused chain "
            "(noisy host?)",
            stacklevel=1,
        )
    wall_clock_floor("E15", speedup, 1.5, "native over parallel on the fused chain")
