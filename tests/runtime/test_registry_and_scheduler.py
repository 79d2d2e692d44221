"""Tests for the backend registry."""

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.frontend.session import Session
from repro.runtime.backend import available_backends, get_backend
from repro.runtime.interpreter import NumPyInterpreter
from repro.utils.errors import ExecutionError

BUILT_INS = ("dist", "interpreter", "native", "parallel")


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
        from repro.runtime.backend import _BUILTIN_BACKENDS

        assert tuple(sorted(_BUILTIN_BACKENDS)) == BUILT_INS
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


    def test_jit_is_not_a_backend(self):
        # The template tier without tiles is ``parallel``'s plan-less
        # ``execute``; the retired name is unknown, on every entry point.
        import repro.runtime

        with pytest.raises(ExecutionError) as raised:
            get_backend("jit")
        with pytest.raises(ExecutionError):
            Session(backend="jit").backend
        available = str(raised.value).partition("available:")[2]
        assert all(repr(builtin) in available for builtin in BUILT_INS)
        assert "'jit'" not in available
        assert not hasattr(repro.runtime, "FusingJIT")
