"""Tests for the backend registry and the sync-batch scheduler."""

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.frontend.session import Session
from repro.runtime.backend import available_backends, get_backend
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.plan import merge_batches, split_into_batches
from repro.utils.errors import ExecutionError

BUILT_INS = ("dist", "interpreter", "jit", "native", "parallel")


def simple_program(size=1000, adds=3):
    builder = ProgramBuilder()
    vector = builder.new_vector(size)
    builder.identity(vector, 0)
    for _ in range(adds):
        builder.add(vector, vector, 1)
    builder.sync(vector)
    return builder.build(), vector


class TestBackendRegistry:
    def test_available_backends(self):
        assert set(BUILT_INS) <= set(available_backends())

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("interpreter"), NumPyInterpreter)

    def test_get_backend_passthrough(self):
        backend = NumPyInterpreter()
        assert get_backend(backend) is backend

    def test_unknown_backend(self):
        with pytest.raises(ExecutionError):
            get_backend("tpu")

    @pytest.mark.parametrize("name", ["simulator", "cluster"])
    def test_pricing_is_not_a_backend(self, name):
        # Pricing is core.cost's report; the retired names resolve like any
        # unknown name, and the error lists every built-in.
        with pytest.raises(ExecutionError) as raised:
            get_backend(name)
        with pytest.raises(ExecutionError):
            Session(backend=name).backend
        assert all(repr(builtin) in str(raised.value) for builtin in BUILT_INS)


class TestScheduler:
    def test_split_on_sync(self):
        builder = ProgramBuilder()
        a = builder.new_vector(4)
        b = builder.new_vector(4)
        builder.identity(a, 1)
        builder.sync(a)
        builder.identity(b, 2)
        builder.sync(b)
        batches = split_into_batches(builder.build())
        assert len(batches) == 2
        assert all(batch[-1].opcode is OpCode.BH_SYNC for batch in batches)

    def test_trailing_instructions_form_final_batch(self):
        builder = ProgramBuilder()
        a = builder.new_vector(4)
        builder.identity(a, 1)
        builder.sync(a)
        builder.add(a, a, 1)
        batches = split_into_batches(builder.build())
        assert len(batches) == 2
        assert len(batches[1]) == 1

    def test_no_split(self):
        program, _ = simple_program()
        batches = split_into_batches(program, split_on_sync=False)
        assert len(batches) == 1
        assert len(batches[0]) == len(program)

    def test_merge_round_trip(self):
        program, _ = simple_program()
        assert merge_batches(split_into_batches(program)) == program

    def test_empty_program(self):
        assert split_into_batches(Program()) == []
