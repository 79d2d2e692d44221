"""The template tier's blocked launch.

A row-sliceable kernel runs all of its byte-codes over one cache-sized
block of rows before the next, kernel-local slots live in block scratch
owned by the call, and a byte-code whose NumPy loop already yields the
slot's dtype writes with ``out=``.  None of it may change a bit: the oracle
throughout is the interpreter's per-byte-code dispatch.
"""

import numpy as np
import pytest

from repro.bytecode import dtypes
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.view import View
from repro.codegen import find_c_compiler
from repro.frontend import random as random_module
from repro.frontend.session import Session
from repro.runtime import interpreter as interpreter_module
from repro.runtime import kernel as kernel_module
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.kernel import compile_kernel_template, kernel_slot_views
from repro.runtime.memory import MemoryManager
from repro.utils.config import config_override
from repro.workloads import black_scholes, heat_equation

BLOCK = 8
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of eight elements, so tiny arrays still take several."""
    monkeypatch.setattr(kernel_module, "TEMPLATE_BLOCK_ELEMENTS", BLOCK)


def _run_both(builder, data, local=()):
    """The builder's byte-codes through the interpreter and a blocked launch.

    ``data`` maps input views to their contents.  Returns the two memory
    managers ``(oracle, blocked)``; slots viewing a base in ``local`` are
    launched as kernel-local ones.
    """
    instructions = list(builder.program)
    oracle, blocked = MemoryManager(), MemoryManager()
    for memory in (oracle, blocked):
        for view, values in data.items():
            memory.write_view(view, values)
    interpreter = NumPyInterpreter()
    for instruction in instructions:
        interpreter._dispatch(instruction, oracle)
    slots = kernel_slot_views(instructions)
    local_bases = {id(view.base) for view in local}
    local_slots = frozenset(
        position for position, view in enumerate(slots) if id(view.base) in local_bases
    )
    compile_kernel_template(instructions).blocked(local_slots)(blocked, slots)
    for view in local:
        assert not blocked.is_allocated(view.base), "a local slot reached memory"
    return oracle, blocked


def _assert_bitwise(oracle, blocked, *views):
    for view in views:
        want, have = oracle.read_view(view), blocked.read_view(view)
        assert want.dtype == have.dtype
        assert want.tobytes() == have.tobytes()


def _step_names(builder):
    template = compile_kernel_template(list(builder.program))
    return [step.__name__ for step in template._steps]


@pytest.mark.usefixtures("small_blocks")
class TestBitwiseAgainstTheInterpreter:
    def test_rows_not_a_multiple_of_the_block(self, rng):
        builder = ProgramBuilder()
        x, t, out = (builder.new_vector(27) for _ in range(3))
        builder.log(t, x)
        builder.multiply(t, t, 1.7)
        builder.exp(out, t)
        oracle, blocked = _run_both(builder, {x: rng.random(27) + 0.5}, local=(t,))
        _assert_bitwise(oracle, blocked, out)

    def test_a_row_wider_than_the_block_runs_one_row_at_a_time(self, rng):
        builder = ProgramBuilder()
        x, t, out = (builder.new_matrix(5, 13) for _ in range(3))
        builder.sin(t, x)
        builder.add(out, t, x)
        oracle, blocked = _run_both(builder, {x: rng.random((5, 13))}, local=(t,))
        _assert_bitwise(oracle, blocked, out)

    @pytest.mark.parametrize(
        "offset, shape, strides",
        [(0, (10, 6), (24, 1)), (6, (10, 3), (24, 2)), (239, (10, 6), (-24, -1))],
        ids=["every-other-row", "every-other-column", "reversed"],
    )
    def test_non_contiguous_strides(self, rng, offset, shape, strides):
        builder = ProgramBuilder()
        base = builder.new_base(20 * 12)
        window = View(base, offset, shape, strides)
        dense = builder.new_matrix(*shape)
        builder.sqrt(dense, window)
        builder.multiply(window, dense, 3.0)  # a strided store, in place
        builder.add(window, window, dense)
        oracle, blocked = _run_both(builder, {View.full(base): rng.random(base.nelem)})
        _assert_bitwise(oracle, blocked, View.full(base), dense)

    def test_a_zero_length_leading_dimension_touches_nothing(self):
        builder = ProgramBuilder()
        base, other = builder.new_base(8), builder.new_base(8)
        empty = View(base, 0, (0, 4), (4, 1))
        builder.add(View(other, 0, (0, 4), (4, 1)), empty, 1.0)
        oracle, blocked = _run_both(builder, {View.full(base): np.arange(8.0)})
        _assert_bitwise(oracle, blocked, View.full(base), View.full(other))

    def test_a_slot_updated_in_place(self, rng):
        # ``a = a*40; a = a+80`` as black_scholes scales its spot prices.
        builder = ProgramBuilder()
        a, out = builder.new_vector(30), builder.new_vector(30)
        builder.multiply(a, a, 40.0)
        builder.add(a, a, 80.0)
        builder.divide(out, a, a)
        assert _step_names(builder) == ["run_in_place"] * 3
        oracle, blocked = _run_both(builder, {a: rng.random(30)})
        _assert_bitwise(oracle, blocked, a, out)

    def test_dtype_changing_stores_compute_then_cast(self, rng):
        builder = ProgramBuilder()
        x = builder.new_vector(21)
        i, j = (builder.new_vector(21, dtype=dtypes.int64) for _ in range(2))
        inside, total, halves = (builder.new_vector(21) for _ in range(3))
        narrow = builder.new_vector(21, dtype=dtypes.float32)
        quotient = builder.new_vector(21, dtype=dtypes.int64)
        builder.emit(OpCode.BH_LESS_EQUAL, inside, x, 0.5)  # bool loop -> float64
        builder.add(total, i, j)  # int64 loop -> float64
        builder.multiply(narrow, x, 1.0 / 3.0)  # float64 loop -> float32
        builder.divide(quotient, i, j)  # float64 loop -> int64
        builder.divide(halves, x, 2.0)  # float64 loop -> float64: no cast
        assert _step_names(builder) == ["run_cast"] * 4 + ["run_in_place"]
        data = {
            x: rng.random(21),
            i: rng.integers(-50, 50, 21),
            j: rng.integers(1, 9, 21),
        }
        oracle, blocked = _run_both(builder, data)
        _assert_bitwise(oracle, blocked, inside, total, narrow, quotient, halves)

    def test_erf_without_scipy(self, rng, monkeypatch):
        monkeypatch.setattr(
            interpreter_module, "erf_helper", lambda config: (None, "erf: no compiled helper (test)")
        )
        builder = ProgramBuilder()
        x, t, out = (builder.new_vector(19) for _ in range(3))
        builder.emit(OpCode.BH_ERF, t, x)
        builder.add(out, t, 1.0)
        oracle, blocked = _run_both(builder, {x: rng.random(19) * 4 - 2}, local=(t,))
        _assert_bitwise(oracle, blocked, out)

    def test_evaluate_is_the_same_steps_in_one_block(self, rng):
        builder = ProgramBuilder()
        x, out = builder.new_vector(27), builder.new_vector(27)
        builder.exp(out, x)
        builder.multiply(out, out, x)
        instructions = list(builder.program)
        oracle, _ = _run_both(builder, {x: rng.random(27)})
        whole = MemoryManager()
        whole.write_view(x, oracle.read_view(x))
        slots = kernel_slot_views(instructions)
        result = compile_kernel_template(instructions).evaluate(
            whole, slots, frozenset(), slots.index(out)
        )
        assert result.tobytes() == oracle.read_view(out).tobytes()
        _assert_bitwise(oracle, whole, out)


def _engine_run(program, backend="parallel"):
    with config_override(**TINY_TILES):
        engine = ExecutionEngine(backend=backend, optimize=True)
        return engine.execute(program)


def _oracle_run(program):
    return ExecutionEngine(backend="interpreter", optimize=False).execute(program.copy())


@pytest.mark.usefixtures("small_blocks")
class TestWhichSlotsKeepTheirStorage:
    """``a = 2; t = a * 3; out = t + 1``: ``t`` is block scratch only when
    the kernel stores it first and nothing outside can observe it."""

    LENGTH = 64
    VECTOR_BYTES = LENGTH * 8

    def _chain(self, load_t_first=False, after=None, sync_t=False):
        builder = ProgramBuilder()
        a, t, out = (builder.new_vector(self.LENGTH) for _ in range(3))
        builder.identity(a, 2.0)
        if load_t_first:
            builder.add(t, t, a)  # reads t's zero-initialised storage
        else:
            builder.multiply(t, a, 3.0)
        builder.add(out, t, 1.0)
        extra = after(builder, t) if after is not None else None
        if sync_t:
            builder.sync(t)
        else:
            builder.free(t)
        builder.sync(out)
        return builder.build(), [view for view in (out, extra) if view is not None]

    def _check(self, program, views, elided, peak_vectors):
        expected = _oracle_run(program)
        result = _engine_run(program)
        assert result.stats.tiled_instructions > 0
        assert result.stats.template_slots_elided == elided
        assert result.stats.actual_peak_bytes == peak_vectors * self.VECTOR_BYTES
        for view in views:
            assert expected.value(view).tobytes() == result.value(view).tobytes()

    def test_a_freed_store_first_temporary_never_reaches_memory(self):
        self._check(*self._chain(), elided=1, peak_vectors=2)

    def test_a_slot_loaded_before_it_is_stored_keeps_its_storage(self):
        self._check(*self._chain(load_t_first=True), elided=0, peak_vectors=3)

    def test_a_base_a_later_step_reads_keeps_its_storage(self):
        def read_half_later(builder, t):
            half = builder.new_vector(self.LENGTH // 2)
            builder.identity(half, View(t.base, 0, (self.LENGTH // 2,), (1,)))
            builder.sync(half)
            return half

        program, views = self._chain(after=read_half_later)
        expected, result = _oracle_run(program), _engine_run(program)
        assert result.stats.template_slots_elided == 0
        for view in views:
            assert expected.value(view).tobytes() == result.value(view).tobytes()

    def test_a_synced_base_keeps_its_storage(self):
        program, views = self._chain(sync_t=True)
        self._check(program, views, elided=0, peak_vectors=3)


def _warm_stats(function, backend, optimize=True, **arguments):
    """Output and statistics of the third flush (``BH_RANDOM`` seeds advance
    per flush, so an oracle session is stepped the same way)."""
    session = Session(backend=backend, optimize=optimize)
    for _ in range(3):
        out = function(session=session, **arguments).to_numpy()
    return out, session.stats_history[-1]


class TestPeakBytesPerTenant:
    """What one warm ``black_scholes(200 000)`` flush holds: the spot
    prices and the result — not the fifteen temporaries between them, nor
    the previous result, whose free leads the flush."""

    OPTIONS = 200_000

    @pytest.fixture(autouse=True)
    def per_session_seeds(self, monkeypatch):
        """An earlier test's ``random.seed()`` is process-wide; without one
        every session counts its own seeds, so the oracle's line up."""
        monkeypatch.setattr(random_module, "_EXPLICIT_SEED", None)

    @pytest.mark.parametrize("backend", ["parallel", "native"])
    def test_black_scholes_two_arrays(self, backend, tmp_path):
        with config_override(codegen_cache_dir=str(tmp_path / "codegen")):
            out, stats = _warm_stats(black_scholes, backend, num_options=self.OPTIONS)
        assert stats.template_slots_elided == 15
        assert stats.actual_peak_bytes == 2 * self.OPTIONS * 8 == 3_200_000
        expected, _ = _warm_stats(
            black_scholes, "interpreter", optimize=False, num_options=self.OPTIONS
        )
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.skipif(find_c_compiler() is None, reason="no C compiler on this host")
    def test_the_stencils_launch_no_template(self, tmp_path):
        with config_override(codegen_cache_dir=str(tmp_path / "codegen")):
            _, stats = _warm_stats(heat_equation, "native", grid_size=200, iterations=2)
        assert stats.native_kernel_launches > 0
        assert stats.native_fallbacks == 0
        assert stats.template_slots_elided == 0
