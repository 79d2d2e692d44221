"""Tests for the tile decomposition and the tiled parallel backend."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.runtime import parallel as parallel_module
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.runtime.parallel import ParallelBackend
from repro.runtime.tiling import (
    SerialStep,
    TiledMapStep,
    TiledReduceStep,
    TileSpan,
    combine_partials,
    decompose,
    partition_length,
    reduce_tile,
    slice_view,
    spans_for,
)
from repro.utils.config import config_override, get_config
from repro.utils.errors import ClusterError

_SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def elementwise_program(length=64, ops=4):
    builder = ProgramBuilder()
    a = builder.new_vector(length)
    b = builder.new_vector(length)
    builder.identity(a, 0.5)
    builder.identity(b, 2.0)
    for i in range(ops):
        (builder.add if i % 2 else builder.multiply)(a, a, b)
    builder.sync(a)
    return builder.build(), a


class TestSpansAndSlicing:
    def test_spans_cover_rows_exactly(self):
        spans = spans_for(rows=10, row_elements=1, tile_elements=4)
        assert sum(span.count for span in spans) == 10
        assert spans[0].start == 0
        for prev, nxt in zip(spans, spans[1:]):
            assert nxt.start == prev.start + prev.count

    def test_spans_balance_like_partition_length(self):
        # 10 rows in tiles of ~4 -> 3 tiles block-distributed as 4/3/3.
        spans = spans_for(rows=10, row_elements=1, tile_elements=4)
        assert [span.count for span in spans] == [4, 3, 3]

    def test_row_elements_scale_tile_rows(self):
        # 8 rows of 32 elements with 64-element tiles -> 2 rows per tile.
        spans = spans_for(rows=8, row_elements=32, tile_elements=64)
        assert [span.count for span in spans] == [2, 2, 2, 2]

    def test_single_span_when_tile_larger_than_data(self):
        assert spans_for(rows=5, row_elements=1, tile_elements=1000) == (TileSpan(0, 5),)

    def test_min_tiles_feeds_every_worker(self):
        # Large tiles would give 1 tile; min_tiles=4 (the worker count)
        # still splits the rows so no thread idles.
        spans = spans_for(rows=100, row_elements=1, tile_elements=1000, min_tiles=4)
        assert len(spans) == 4
        # ... but never more tiles than rows.
        assert len(spans_for(rows=3, row_elements=1, tile_elements=1, min_tiles=8)) == 3

    def test_slice_view_first_axis(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(6, 4)
        part = slice_view(matrix, TileSpan(2, 3))
        assert part.offset == matrix.offset + 2 * matrix.strides[0]
        assert part.shape == (3, 4)
        assert part.strides == matrix.strides

    def test_slice_view_other_axis(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(6, 4)
        part = slice_view(matrix, TileSpan(1, 2), axis=1)
        assert part.offset == matrix.offset + 1 * matrix.strides[1]
        assert part.shape == (6, 2)


class TestPartitionLength:
    def test_even_split(self):
        assert partition_length(12, 4) == [(0, 3), (3, 3), (6, 3), (9, 3)]

    def test_remainder_goes_to_first_workers(self):
        assert partition_length(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_more_workers_than_rows(self):
        # Regression: the old behavior padded with zero-count chunks
        # ((2, 0), (2, 0)), which the distributed backend would have
        # launched as empty shards.  Excess workers get no chunk at all.
        chunks = partition_length(2, 4)
        assert chunks == [(0, 1), (1, 1)]

    def test_no_chunk_is_ever_empty(self):
        # The dist planner's shard legality rests on this invariant.
        for length in range(0, 9):
            for workers in range(1, 9):
                chunks = partition_length(length, workers)
                assert all(count > 0 for _, count in chunks), (length, workers)
                covered = [
                    index
                    for start, count in chunks
                    for index in range(start, start + count)
                ]
                assert covered == list(range(length)), (length, workers)

    def test_zero_length_yields_no_chunks(self):
        assert partition_length(0, 4) == []

    def test_invalid_worker_count(self):
        with pytest.raises(ClusterError):
            partition_length(10, 0)


class TestDecomposition:
    def test_large_elementwise_is_tiled(self):
        program, _ = elementwise_program(length=64)
        with config_override(
            parallel_tile_elements=16,
            parallel_serial_threshold=8,
            parallel_num_threads=1,  # pin: tile counts must not vary per host
        ):
            tiling = decompose(program, get_config())
        maps = [s for s in tiling.steps if isinstance(s, TiledMapStep)]
        assert maps, "expected at least one tiled map step"
        assert all(len(step.spans) == 4 for step in maps)

    def test_below_threshold_is_serial(self):
        program, _ = elementwise_program(length=64)
        with config_override(parallel_tile_elements=16, parallel_serial_threshold=1000):
            tiling = decompose(program, get_config())
        assert not tiling.tiled_steps
        assert any(s.reason == "below serial threshold" for s in tiling.serial_steps)

    def test_fused_kernel_is_tiled_as_one_step(self):
        program, _ = elementwise_program(length=64, ops=6)
        report = ExecutionEngine(backend="interpreter")._build_pipeline(get_config()).run(program)
        fused = report.optimized
        assert fused.count(OpCode.BH_FUSED, include_fused=False) >= 1
        with config_override(parallel_tile_elements=16, parallel_serial_threshold=8):
            tiling = decompose(fused, get_config())
        fused_indices = [
            i for i, instr in enumerate(fused) if instr.opcode is OpCode.BH_FUSED
        ]
        for index in fused_indices:
            assert isinstance(tiling.steps[index], TiledMapStep)

    def test_shifted_overlapping_windows_fall_back_to_serial(self):
        # out and input are different, overlapping windows of one base:
        # tiles would read rows another tile writes.
        builder = ProgramBuilder()
        base = builder.new_base(65)
        lo = View(base, 0, (64,), (1,))
        hi = View(base, 1, (64,), (1,))
        builder.emit(OpCode.BH_ADD, lo, hi, 1.0)
        program = builder.build()
        with config_override(parallel_tile_elements=8, parallel_serial_threshold=4):
            tiling = decompose(program, get_config())
        assert isinstance(tiling.steps[0], SerialStep)
        assert tiling.steps[0].reason == "overlapping windows of one base"

    def test_fused_kernel_with_cross_window_dependency_is_serial_and_bitwise(self):
        # Regression: a fused kernel whose later instruction reads a view
        # overlapping an earlier instruction's output through a *different*
        # window must never be row-tiled — a tile would read rows another
        # tile writes.  (The fusion clusterer refuses to build such kernels
        # since the can_accept fix, but hand-built or legacy BH_FUSED
        # byte-codes can still carry them.)
        rows, cols = 16, 8
        builder = ProgramBuilder()
        base = builder.new_base((rows + 1) * cols)
        lo = View(base, 0, (rows, cols))
        hi = View(base, cols, (rows, cols))  # shifted one row down
        out = builder.new_matrix(rows, cols)
        write_lo = Instruction(OpCode.BH_ADD, (lo, lo, 1.0))
        read_hi = Instruction(OpCode.BH_MULTIPLY, (out, hi, 0.5))
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (View.full(base), 2.0)),
                Instruction(OpCode.BH_FUSED, (), kernel=[write_lo, read_hi]),
                Instruction(OpCode.BH_SYNC, (out,)),
            ]
        )
        with config_override(parallel_tile_elements=8, parallel_serial_threshold=4):
            tiling = decompose(program, get_config())
            assert isinstance(tiling.steps[1], SerialStep)
            assert tiling.steps[1].reason == "overlapping windows of one base"
            # The serial fallback must agree with the interpreter oracle
            # bit for bit.
            reference = NumPyInterpreter().execute(program)
            with config_override(parallel_num_threads=4):
                result = ParallelBackend().execute(program)
        assert np.array_equal(reference.value(out), result.value(out))
        assert np.array_equal(
            reference.value(View.full(base)), result.value(View.full(base))
        )

    def test_shape_mismatch_falls_back_to_serial(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(8, 8)
        row = builder.new_vector(8)
        builder.emit(OpCode.BH_ADD, matrix, matrix, row)  # broadcast-style read
        with config_override(parallel_tile_elements=8, parallel_serial_threshold=4):
            tiling = decompose(builder.build(), get_config())
        assert isinstance(tiling.steps[0], SerialStep)

    def test_reduction_modes(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(16, 8)
        row_out = builder.new_vector(8)
        col_out = builder.new_vector(16)
        vector = builder.new_vector(64)
        scalar = builder.new_vector(1)
        builder.add_reduce(row_out, matrix, axis=0)
        builder.add_reduce(col_out, matrix, axis=1)
        builder.add_reduce(scalar, vector, axis=0)
        with config_override(
            parallel_tile_elements=16,
            parallel_serial_threshold=4,
            parallel_num_threads=1,  # pin: tile counts must not vary per host
        ):
            tiling = decompose(builder.build(), get_config())
        axis0, axis1, full = tiling.steps
        # axis-0 reduce tiles along input columns (bit-identical slices).
        assert isinstance(axis0, TiledReduceStep) and not axis0.combine
        assert axis0.tile_axis == 1
        # axis-1 reduce tiles along input rows.
        assert isinstance(axis1, TiledReduceStep) and not axis1.combine
        assert axis1.tile_axis == 0
        # full 1-D reduce needs combined partials.
        assert isinstance(full, TiledReduceStep) and full.combine
        assert len(full.spans) == 4

    def test_generators_linalg_and_system_are_serial(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(16, 16)
        inverse = builder.new_matrix(16, 16)
        builder.random(matrix, seed=3)
        builder.matrix_inverse(inverse, matrix)
        builder.sync(inverse)
        with config_override(parallel_serial_threshold=4):
            tiling = decompose(builder.build(), get_config())
        assert [step.reason for step in tiling.steps] == [
            "generator",
            "extension",
            "system",
        ]


def _parity(program, views, **overrides):
    """Assert the parallel backend matches the interpreter bit-for-bit."""
    with config_override(**overrides):
        expected = ExecutionEngine(backend="interpreter", optimize=True).execute(
            program.copy()
        )
        actual = ExecutionEngine(backend="parallel", optimize=True).execute(
            program.copy()
        )
    for view in views:
        assert np.array_equal(expected.value(view), actual.value(view), equal_nan=True)
    return actual


class TestParallelExecution:
    def test_matches_interpreter_on_fused_chain(self):
        program, a = elementwise_program(length=4096, ops=8)
        result = _parity(
            program, [a], parallel_tile_elements=512, parallel_serial_threshold=16
        )
        assert result.stats.tiles_executed >= 8
        assert result.stats.tiled_instructions > 0
        assert result.stats.threads_used >= 1

    def test_matches_interpreter_with_multiple_threads(self):
        program, a = elementwise_program(length=4096, ops=8)
        result = _parity(
            program,
            [a],
            parallel_tile_elements=256,
            parallel_serial_threshold=16,
            parallel_num_threads=4,
        )
        assert result.stats.threads_used == 4

    def test_matches_interpreter_on_shifted_stencil_views(self):
        # Heat-equation-shaped kernel: shifted reads of one base feeding
        # writes into distinct bases; splittable because no written base
        # is also read through a different window.
        builder = ProgramBuilder()
        grid = builder.new_matrix(34, 32)
        up = View(grid.base, 0, (32, 32), (32, 1))
        down = View(grid.base, 64, (32, 32), (32, 1))
        acc = builder.new_matrix(32, 32)
        builder.identity(grid, 1.5)
        builder.emit(OpCode.BH_ADD, acc, up, down)
        builder.emit(OpCode.BH_MULTIPLY, acc, acc, 0.25)
        builder.sync(acc)
        result = _parity(
            builder.build(),
            [acc],
            parallel_tile_elements=128,
            parallel_serial_threshold=16,
        )
        assert result.stats.tiles_executed > 0

    def test_matches_interpreter_on_strided_views(self):
        builder = ProgramBuilder()
        base = builder.new_base(256)
        evens = View(base, 0, (128,), (2,))
        odds = View(base, 1, (128,), (2,))
        out = builder.new_vector(128)
        builder.identity(View.full(base), 0.75)
        builder.emit(OpCode.BH_ADD, out, evens, odds)
        builder.sync(out)
        _parity(
            builder.build(),
            [out],
            parallel_tile_elements=32,
            parallel_serial_threshold=8,
        )

    def test_reduction_slices_are_bit_identical(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(32, 16)
        row_out = builder.new_vector(16)
        col_out = builder.new_vector(32)
        builder.random(matrix, seed=11)
        builder.add_reduce(row_out, matrix, axis=0)
        builder.maximum_reduce(col_out, matrix, axis=1)
        builder.sync(row_out)
        builder.sync(col_out)
        result = _parity(
            builder.build(),
            [row_out, col_out],
            parallel_tile_elements=64,
            parallel_serial_threshold=8,
            parallel_num_threads=3,
        )
        assert result.stats.serial_fallbacks == 1  # the BH_RANDOM generator

    def test_combined_1d_reduction_matches_within_tolerance(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(10000)
        total = builder.new_vector(1)
        builder.random(vector, seed=5)
        builder.add_reduce(total, vector, axis=0)
        builder.sync(total)
        program = builder.build()
        with config_override(parallel_tile_elements=512, parallel_serial_threshold=8):
            expected = ExecutionEngine(backend="interpreter", optimize=True).execute(
                program.copy()
            )
            actual = ExecutionEngine(backend="parallel", optimize=True).execute(
                program.copy()
            )
        np.testing.assert_allclose(
            actual.value(total), expected.value(total), rtol=1e-12
        )

    def test_serial_program_executes_through_interpreter_fallback(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(8, 8)
        inverse = builder.new_matrix(8, 8)
        identity_check = builder.new_matrix(8, 8)
        builder.random(matrix, seed=2)
        builder.add(matrix, matrix, 8.0)  # diagonally dominant enough
        builder.matrix_inverse(inverse, matrix)
        builder.matmul(identity_check, matrix, inverse)
        builder.sync(identity_check)
        program = builder.build()
        result = ExecutionEngine(backend="parallel", optimize=True).execute(program)
        np.testing.assert_allclose(
            result.value(identity_check), np.eye(8), atol=1e-8
        )
        assert result.stats.serial_fallbacks > 0

    def test_num_threads_resolution_order(self):
        backend = ParallelBackend()
        with config_override(parallel_num_threads=5):
            assert backend.flush_config().parallel_num_threads == 5
        assert backend.flush_config().parallel_num_threads >= 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity mask on this platform"
    )
    def test_default_thread_width_follows_the_affinity_mask(self):
        # In a subprocess: pinning the test runner itself would narrow
        # every later test.  One allowed CPU means one thread, however
        # many the host has.
        script = (
            "import os, sys\n"
            f"sys.path.insert(0, {_SRC_ROOT!r})\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.runtime.parallel import ParallelBackend\n"
            "from repro.runtime.tiling import resolve_num_threads\n"
            "from repro.utils.config import get_config\n"
            "print(resolve_num_threads(get_config()),"
            " ParallelBackend().flush_config().parallel_num_threads)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "1"]

    def test_set_backend_releases_the_previous_pool(self):
        backend = ParallelBackend()
        engine = ExecutionEngine(backend=backend, optimize=True)
        program, _ = elementwise_program(length=4096)
        with config_override(
            parallel_num_threads=2, parallel_tile_elements=512, parallel_serial_threshold=16
        ):
            engine.execute(program)
        assert backend._pools
        engine.set_backend("interpreter")
        assert not backend._pools  # worker threads released eagerly

    def test_pool_is_persistent_and_resizes_on_config_change(self):
        backend = ParallelBackend()
        pool_a = backend._executor(2)
        assert backend._executor(2) is pool_a
        pool_b = backend._executor(3)
        assert pool_b is not pool_a
        # A resize leaves the first pool open for a flush still using it.
        assert pool_a.submit(int, 7).result() == 7
        backend.close()
        assert not backend._pools


class TestSharedReduceBody:
    """``reduce_tile`` / ``combine_partials``: the one tile body and the one
    combine tree the thread tier, the dist worker and the dist master run."""

    @pytest.mark.parametrize("axis, tile_axis", [(0, 1), (1, 0)])
    def test_disjoint_slices_are_bitwise_the_serial_reduction(self, axis, tile_axis):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(12, 8)
        out = builder.new_vector(8 if axis == 0 else 12)
        builder.add_reduce(out, matrix, axis=axis)
        program = builder.build()
        instruction = program[0]
        data = np.random.default_rng(7).standard_normal((12, 8)) * 1e3
        # 24-element tiles: two columns (axis 0) or three rows (axis 1) each.
        with config_override(parallel_tile_elements=24, parallel_serial_threshold=4):
            (step,) = decompose(program, get_config()).steps
        assert isinstance(step, TiledReduceStep) and not step.combine
        assert step.tile_axis == tile_axis and len(step.spans) > 2
        tiled, serial = MemoryManager(), MemoryManager()
        for memory in (tiled, serial):
            memory.write_view(matrix, data)
        for position in range(len(step.spans)):
            reduce_tile(tiled, instruction, step, position)
        NumPyInterpreter().execute(program, serial)
        assert tiled.read_view(out).tobytes() == serial.read_view(out).tobytes()

    @pytest.mark.parametrize("tile_elements", [4, 12, 16, 23])
    def test_axis0_tiles_are_never_one_column_wide(self, tile_elements):
        # tile_elements < 2 x rows used to give one-column tiles; NumPy sums
        # the coalesced 1-D slice pairwise (>= 8 rows), which is not bitwise
        # the row-by-row serial reduction.
        builder = ProgramBuilder()
        matrix = builder.new_matrix(12, 8)
        out = builder.new_vector(8)
        builder.add_reduce(out, matrix, axis=0)
        program = builder.build()
        data = np.random.default_rng(7).standard_normal((12, 8)) * 1e3
        with config_override(
            parallel_tile_elements=tile_elements, parallel_serial_threshold=4
        ):
            (step,) = decompose(program, get_config()).steps
        assert isinstance(step, TiledReduceStep) and not step.combine
        assert all(span.count >= 2 for span in step.spans)
        assert sum(span.count for span in step.spans) == 8
        tiled, serial = MemoryManager(), MemoryManager()
        for memory in (tiled, serial):
            memory.write_view(matrix, data)
        for position in range(len(step.spans)):
            reduce_tile(tiled, program[0], step, position)
        NumPyInterpreter().execute(program, serial)
        assert tiled.read_view(out).tobytes() == serial.read_view(out).tobytes()

    def test_an_axis0_reduction_too_narrow_for_two_column_tiles_runs_serially(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(12, 3)
        out = builder.new_vector(3)
        builder.add_reduce(out, matrix, axis=0)
        with config_override(parallel_tile_elements=4, parallel_serial_threshold=4):
            (step,) = decompose(builder.build(), get_config()).steps
        assert isinstance(step, SerialStep) and "one column" in step.reason

    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_partials_fold_in_the_fixed_pairwise_order(self, count):
        from repro.bytecode.dtypes import float32

        f = np.float32
        p = [f(1e8), f(1), f(-1e8), f(1), f(1), f(1), f(1)][:count]
        # The tree, spelled out: neighbours pair up, an odd tail rides along.
        expected = {
            1: lambda: p[0],
            2: lambda: p[0] + p[1],
            3: lambda: (p[0] + p[1]) + p[2],
            7: lambda: ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + p[6]),
        }[count]()
        builder = ProgramBuilder(dtype=float32)
        source = builder.new_vector(count)
        total = builder.new_vector(1)
        builder.add_reduce(total, source, axis=0)
        instruction = builder.build()[0]
        memory = MemoryManager()
        combine_partials(memory, instruction, np.array(p, dtype=f))
        assert memory.read_view(total)[0].tobytes() == f(expected).tobytes()
        if count == 7:
            left_fold = p[0]
            for value in p[1:]:
                left_fold = left_fold + value
            assert left_fold != expected, "values do not tell the tree from a fold"

    def test_partial_tiles_feed_the_combine(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(40)
        total = builder.new_vector(1)
        builder.add_reduce(total, vector, axis=0)
        program = builder.build()
        with config_override(parallel_tile_elements=8, parallel_serial_threshold=4):
            (step,) = decompose(program, get_config()).steps
        assert step.combine and len(step.spans) == 5
        memory = MemoryManager()
        data = np.arange(40, dtype=np.float64)
        memory.write_view(vector, data)
        partials = [None] * 5
        for position in range(5):
            reduce_tile(memory, program[0], step, position, partials)
        assert partials == [data[i : i + 8].sum() for i in range(0, 40, 8)]
        combine_partials(memory, program[0], partials)
        assert memory.read_view(total)[0] == data.sum()


class TestPlanTimeTiling:
    def test_decomposition_computed_once_per_plan(self, monkeypatch):
        calls = []
        original = parallel_module.decompose

        def counting(program, config=None):
            calls.append(1)
            return original(program, config)

        monkeypatch.setattr(parallel_module, "decompose", counting)
        with config_override(parallel_tile_elements=64, parallel_serial_threshold=8):
            engine = ExecutionEngine(backend="parallel", optimize=True)
            first, _ = elementwise_program(length=512)
            engine.execute(first)
            assert len(calls) == 1
            plan = engine.last_plan
            assert plan.tiling is not None
            # Structurally identical flush on fresh bases: plan hit, and
            # the decomposition is NOT recomputed.
            second, _ = elementwise_program(length=512)
            result = engine.execute(second)
            assert result.stats.plan_cache_hits == 1
            assert len(calls) == 1
            assert engine.last_plan.tiling is plan.tiling

    def test_tile_config_change_invalidates_plan_and_retiles(self):
        with config_override(
            parallel_tile_elements=64,
            parallel_serial_threshold=8,
            parallel_num_threads=1,  # pin: the 2x tile ratio below is exact
        ):
            engine = ExecutionEngine(backend="parallel", optimize=True)
            program, _ = elementwise_program(length=512)
            coarse = engine.execute(program)
            assert coarse.stats.plan_cache_misses == 1
            with config_override(parallel_tile_elements=32):
                fine = engine.execute(elementwise_program(length=512)[0])
            # The config change must miss (re-plan + re-tile), not replay
            # the stale coarse decomposition.
            assert fine.stats.plan_cache_misses == 1
            assert fine.stats.tiles_executed == 2 * coarse.stats.tiles_executed

    def test_differently_configured_instance_retiles_cached_plan(self):
        # The tile size is part of the resolved snapshot that keys the plan
        # (same backend name, another tile size): a new instance under it
        # plans and tiles afresh, never replaying the decomposition
        # computed under the old tile size.
        with config_override(parallel_serial_threshold=8, parallel_num_threads=1):
            engine = ExecutionEngine(backend=ParallelBackend(), optimize=True)
            with config_override(parallel_tile_elements=256):
                coarse = engine.execute(elementwise_program(length=512)[0])
            assert coarse.stats.tiles_executed == 2
            engine.set_backend(ParallelBackend())
            with config_override(parallel_tile_elements=64):
                fine = engine.execute(elementwise_program(length=512)[0])
            assert fine.stats.plan_cache_misses == 1
            assert fine.stats.tiles_executed == 8

    def test_planless_executions_cache_decompositions(self):
        backend = ParallelBackend()
        program, _ = elementwise_program(length=512)
        with config_override(parallel_tile_elements=64, parallel_serial_threshold=8):
            backend.execute(program.copy())
            backend.execute(program.copy())
        stats = backend.cache_stats()
        assert stats["tiling_cache_misses"] == 1
        assert stats["tiling_cache_hits"] == 1


class TestFrontendAndCLI:
    def test_session_with_parallel_backend(self):
        from repro.frontend import ones
        from repro.frontend.session import reset_session

        with config_override(parallel_tile_elements=128, parallel_serial_threshold=16):
            session = reset_session(backend="parallel")
            a = ones((64, 64))
            b = a * 2.0 + 1.0
            values = b.to_numpy()
        np.testing.assert_array_equal(values, np.full((64, 64), 3.0))
        total = session.total_stats()
        assert total.backend_name == "parallel"
        assert total.tiles_executed > 0

    def test_cli_parallel_backend_with_threads(self, capsys, tmp_path):
        from repro.tools.cli import main

        listing = tmp_path / "listing.bh"
        listing.write_text(
            "BH_IDENTITY a0[0:16384:1] 0\n"
            "BH_ADD a0[0:16384:1] a0[0:16384:1] 1\n"
            "BH_ADD a0[0:16384:1] a0[0:16384:1] 1\n"
            "BH_SYNC a0[0:16384:1]\n"
        )
        exit_code = main(
            [str(listing), "--backend", "parallel", "--threads", "2", "--repeat", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "execution (parallel backend, 3 run(s))" in captured
        assert "tiling:" in captured
        assert "thread(s)" in captured
        assert "tile templates:" in captured

    def test_cli_rejects_non_positive_threads(self, capsys, tmp_path):
        from repro.tools.cli import main

        listing = tmp_path / "listing.bh"
        listing.write_text("BH_IDENTITY a0[0:8:1] 0\nBH_SYNC a0[0:8:1]\n")
        exit_code = main([str(listing), "--backend", "parallel", "--threads", "0"])
        assert exit_code == 1
        assert "--threads" in capsys.readouterr().err
