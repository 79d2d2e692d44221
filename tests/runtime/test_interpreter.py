"""Tests for the NumPy reference interpreter."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.dtypes import bool_, int64
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.bytecode.base import BaseArray
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.utils.errors import ExecutionError


def execute(program, memory=None):
    return NumPyInterpreter().execute(program, memory)


class TestElementwise:
    def test_listing_2_semantics(self):
        builder = ProgramBuilder()
        a0 = builder.new_vector(10)
        builder.identity(a0, 0)
        for _ in range(3):
            builder.add(a0, a0, 1)
        builder.sync(a0)
        result = execute(builder.build())
        assert np.all(result.value(a0) == 3.0)

    def test_binary_with_two_views(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        y = builder.new_vector(4)
        z = builder.new_vector(4)
        builder.identity(x, 3)
        builder.identity(y, 4)
        builder.multiply(z, x, y)
        result = execute(builder.build())
        assert np.all(result.value(z) == 12.0)

    @pytest.mark.parametrize(
        "method, expected",
        [
            ("subtract", 1.0),
            ("divide", 1.5),
            ("maximum", 3.0),
            ("minimum", 2.0),
        ],
    )
    def test_binary_opcodes(self, method, expected):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        out = builder.new_vector(4)
        builder.identity(x, 3)
        getattr(builder, method)(out, x, 2)
        result = execute(builder.build())
        assert np.allclose(result.value(out), expected)

    def test_unary_opcodes(self):
        builder = ProgramBuilder()
        x = builder.new_vector(4)
        out = builder.new_vector(4)
        builder.identity(x, 4)
        builder.sqrt(out, x)
        result = execute(builder.build())
        assert np.allclose(result.value(out), 2.0)

    def test_power(self):
        builder = ProgramBuilder()
        x = builder.new_vector(5)
        y = builder.new_vector(5)
        builder.arange(x)
        builder.power(y, x, 3)
        result = execute(builder.build())
        assert list(result.value(y)) == [0.0, 1.0, 8.0, 27.0, 64.0]

    def test_erf_against_scipy(self):
        scipy_erf = pytest.importorskip("scipy.special").erf

        builder = ProgramBuilder()
        x = builder.new_vector(8)
        y = builder.new_vector(8)
        builder.arange(x)
        builder.multiply(x, x, 0.25)
        builder.emit_unary(OpCode.BH_ERF, y, x)
        result = execute(builder.build())
        assert np.allclose(result.value(y), scipy_erf(np.arange(8) * 0.25))

    def test_erf_without_scipy_uses_math_fallback(self, monkeypatch):
        # Simulate a host without a compiled helper through the resolver
        # seam; the fallback path must keep BH_ERF working.
        import math

        from repro.runtime import interpreter as interpreter_module

        monkeypatch.setattr(
            interpreter_module, "erf_helper", lambda config: (None, "erf: no compiled helper (test)")
        )
        builder = ProgramBuilder()
        x = builder.new_vector(8)
        y = builder.new_vector(8)
        builder.arange(x)
        builder.multiply(x, x, 0.25)
        builder.emit_unary(OpCode.BH_ERF, y, x)
        result = execute(builder.build())
        expected = [math.erf(v * 0.25) for v in range(8)]
        np.testing.assert_allclose(result.value(y), expected, rtol=1e-15)

    def test_erf_fallback_matches_scipy_bitwise_enough(self):
        import math

        scipy_erf = pytest.importorskip("scipy.special").erf

        from repro.runtime.interpreter import _erf, _erf_fallback

        values = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(
            _erf_fallback(values), scipy_erf(values), rtol=1e-14, atol=1e-15
        )
        # Whichever path _erf takes on this host, the bits are math.erf's.
        out = np.empty_like(values)
        _erf(values, out)
        assert np.array_equal(out, [math.erf(value) for value in values])

    def test_comparison_into_bool_base(self):
        builder = ProgramBuilder()
        x = builder.new_vector(6)
        mask = builder.new_vector(6, dtype=bool_)
        builder.arange(x)
        builder.emit_binary(OpCode.BH_GREATER, mask, x, 2)
        result = execute(builder.build())
        assert list(result.value(mask)) == [False, False, False, True, True, True]

    def test_writes_through_strided_views(self):
        base = BaseArray(10)
        evens = View(base, 0, (5,), (2,))
        odds = View(base, 1, (5,), (2,))
        program = Program(
            [
                Instruction(OpCode.BH_IDENTITY, (evens, 2.0)),
                Instruction(OpCode.BH_IDENTITY, (odds, 7.0)),
            ]
        )
        result = execute(program)
        assert list(result.memory.allocate(base)) == [2.0, 7.0] * 5

    def test_constant_broadcast_into_matrix(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(3, 4)
        builder.identity(matrix, 1.5)
        result = execute(builder.build())
        assert result.value(matrix).shape == (3, 4)
        assert np.all(result.value(matrix) == 1.5)


class TestReductionsAndGenerators:
    def test_add_reduce_axis0(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(2, 3)
        cols = builder.new_vector(3)
        builder.identity(matrix, 2)
        builder.add_reduce(cols, matrix, axis=0)
        result = execute(builder.build())
        assert np.all(result.value(cols) == 4.0)

    def test_add_reduce_axis1(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(2, 3)
        rows = builder.new_vector(2)
        builder.identity(matrix, 2)
        builder.add_reduce(rows, matrix, axis=1)
        result = execute(builder.build())
        assert np.all(result.value(rows) == 6.0)

    def test_full_reduction_to_scalar_view(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(5)
        total = builder.new_vector(1)
        builder.arange(vector)
        builder.add_reduce(total, vector, axis=0)
        result = execute(builder.build())
        assert result.scalar(total) == 10.0

    def test_multiply_and_maximum_reduce(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(4)
        product = builder.new_vector(1)
        top = builder.new_vector(1)
        builder.arange(vector)
        builder.add(vector, vector, 1)  # 1, 2, 3, 4
        builder.multiply_reduce(product, vector, axis=0)
        builder.maximum_reduce(top, vector, axis=0)
        result = execute(builder.build())
        assert result.scalar(product) == 24.0
        assert result.scalar(top) == 4.0

    def test_range(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(6)
        builder.arange(vector)
        result = execute(builder.build())
        assert list(result.value(vector)) == [0, 1, 2, 3, 4, 5]

    def test_random_is_deterministic_per_seed(self):
        builder = ProgramBuilder()
        first = builder.new_vector(16)
        second = builder.new_vector(16)
        builder.random(first, seed=123)
        builder.random(second, seed=123)
        result = execute(builder.build())
        assert np.array_equal(result.value(first), result.value(second))
        assert np.all((result.value(first) >= 0) & (result.value(first) < 1))

    @pytest.mark.parametrize(
        "destination",
        ["contiguous", "two_dimensional", "strided", "float32", "zero_size"],
    )
    def test_random_draws_one_stream_into_any_destination(self, destination):
        """A C-contiguous float64 destination is filled in place
        (``Generator.random(out=...)``), any other through a temporary: the
        stream is the same either way."""
        from repro.bytecode.base import BaseArray
        from repro.bytecode.dtypes import float32
        from repro.bytecode.view import View

        builder = ProgramBuilder()
        if destination == "contiguous":
            out = builder.new_vector(1000)
        elif destination == "two_dimensional":
            out = builder.new_matrix(25, 40)
        elif destination == "strided":
            out = View(BaseArray(2000), 1, (1000,), (2,))
        elif destination == "float32":
            out = builder.new_vector(1000, float32)
        else:
            out = View(builder.new_base(8), 0, (0,), (1,))
        builder.random(out, seed=77)
        value = execute(builder.build()).value(out)
        drawn = np.random.default_rng(77).random(out.shape)
        copied = np.zeros(out.shape, dtype=out.dtype.np_dtype)
        np.copyto(copied, drawn, casting="unsafe")
        assert value.dtype == copied.dtype and value.shape == copied.shape
        assert np.array_equal(value, copied)
        if destination == "strided":
            # The elements between the view's stay untouched.
            assert not np.any(execute(builder.build()).memory.allocate(out.base)[0::2])


class TestExtensionOps:
    def test_matmul(self):
        builder = ProgramBuilder()
        a = builder.new_matrix(2, 2)
        b = builder.new_vector(2)
        out = builder.new_vector(2)
        builder.matmul(out, a, b)
        program = builder.build()
        memory = MemoryManager()
        memory.set_data(a.base, np.array([[1.0, 2.0], [3.0, 4.0]]))
        memory.set_data(b.base, np.array([1.0, 1.0]))
        result = execute(program, memory)
        assert list(result.value(out)) == [3.0, 7.0]

    def test_matrix_inverse_and_lu_solve_agree(self):
        from repro.linalg.util import random_well_conditioned

        n = 8
        builder = ProgramBuilder()
        a = builder.new_matrix(n, n)
        b = builder.new_vector(n)
        inv = builder.new_matrix(n, n)
        x_inv = builder.new_vector(n)
        x_lu = builder.new_vector(n)
        builder.matrix_inverse(inv, a)
        builder.matmul(x_inv, inv, b)
        builder.lu_solve(x_lu, a, b)
        program = builder.build()
        memory = MemoryManager()
        memory.set_data(a.base, random_well_conditioned(n, seed=3))
        memory.set_data(b.base, np.arange(1.0, n + 1))
        result = execute(program, memory)
        assert np.allclose(result.value(x_inv), result.value(x_lu))

    def test_transpose(self):
        builder = ProgramBuilder()
        a = builder.new_matrix(2, 3)
        at = builder.new_matrix(3, 2)
        builder.transpose(at, a)
        program = builder.build()
        memory = MemoryManager()
        memory.set_data(a.base, np.arange(6.0).reshape(2, 3))
        result = execute(program, memory)
        assert np.array_equal(result.value(at), np.arange(6.0).reshape(2, 3).T)


class TestSystemAndStats:
    def test_free_releases_storage(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(4)
        builder.identity(vector, 1)
        builder.free(vector)
        result = execute(builder.build())
        assert not result.memory.is_allocated(vector.base)

    def test_fused_instruction_counts_one_launch(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(4)
        inner = [
            Instruction(OpCode.BH_IDENTITY, (vector, 1.0)),
            Instruction(OpCode.BH_ADD, (vector, vector, 2.0)),
        ]
        program = Program([Instruction(OpCode.BH_FUSED, (), kernel=inner)])
        result = execute(program)
        assert result.stats.kernel_launches == 1
        assert result.stats.instructions_executed == 3  # fused wrapper + 2 inner
        assert np.all(result.value(vector) == 3.0)

    def test_stats_counters(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(10)
        builder.identity(vector, 0)
        builder.add(vector, vector, 1)
        builder.sync(vector)
        result = execute(builder.build())
        stats = result.stats
        assert stats.kernel_launches == 2
        assert stats.elements_processed == 20
        assert stats.bytes_written == 160
        assert stats.bytes_read == 80
        assert stats.opcode_counts[OpCode.BH_ADD] == 1
        assert stats.wall_time_seconds > 0

    def test_unknown_failure_wrapped_as_execution_error(self):
        # Force a runtime failure via an extension op-code with corrupt
        # operands (1-D views where matrices are expected); the interpreter
        # must surface it as an ExecutionError, not a bare NumPy error.
        left = View.full(BaseArray(6), (2, 3))
        right = View.full(BaseArray(4), (2, 2))
        out = View.full(BaseArray(4), (2, 2))
        bad = Instruction(OpCode.BH_MATMUL, (out, left, right))
        with pytest.raises(ExecutionError):
            execute(Program([bad]))


class TestScalarHelpers:
    def test_result_scalar_requires_single_element(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(4)
        builder.identity(vector, 1)
        result = execute(builder.build())
        with pytest.raises(ValueError):
            result.scalar(vector)
