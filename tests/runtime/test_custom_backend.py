"""Tests for extending the backend registry with user-defined backends."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.runtime.backend import Backend, get_backend, register_backend
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager


class CountingBackend(Backend):
    """A toy backend that delegates to the interpreter but counts executions."""

    name = "counting"

    def __init__(self):
        self.executions = 0
        self._inner = NumPyInterpreter()

    def execute(self, program, memory=None):
        self.executions += 1
        result = self._inner.execute(program, memory)
        result.stats.backend_name = self.name
        return result


@pytest.fixture
def counting_backend():
    backend = CountingBackend()
    register_backend("counting", lambda: backend)
    return backend


class TestCustomBackend:
    def test_registered_backend_resolves_by_name(self, counting_backend):
        assert get_backend("counting") is counting_backend

    def test_custom_backend_executes_programs(self, counting_backend):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 4)
        builder.multiply(v, v, 2)
        builder.sync(v)
        result = get_backend("counting").execute(builder.build())
        assert np.all(result.value(v) == 8.0)
        assert counting_backend.executions == 1
        assert result.stats.backend_name == "counting"

    def test_frontend_session_can_use_custom_backend(self, counting_backend):
        from repro import frontend as bh
        from repro.frontend.session import reset_session

        reset_session(backend="counting", optimize=True)
        a = bh.ones(16)
        a *= 3
        assert np.all(a.to_numpy() == 3.0)
        assert counting_backend.executions >= 1

    def test_execute_returns_a_result(self, counting_backend):
        builder = ProgramBuilder()
        v = builder.new_vector(4)
        builder.identity(v, 1)
        result = counting_backend.execute(builder.build())
        assert isinstance(result, ExecutionResult)
        assert isinstance(result.stats, ExecutionStats)
        assert isinstance(result.memory, MemoryManager)


class TestTheRegistryResolvesOnDemand:
    BUILT_INS = {"interpreter", "parallel", "native", "dist"}

    def test_all_four_are_listed(self):
        from repro.runtime.backend import available_backends

        assert self.BUILT_INS <= set(available_backends())

    def test_a_user_factory_under_a_built_in_name_keeps_precedence(self, monkeypatch):
        from repro.runtime import backend as registry

        mine = CountingBackend()
        monkeypatch.setitem(registry._BACKEND_FACTORIES, "native", lambda: mine)
        assert get_backend("native") is mine

    def test_unknown_names_list_what_exists(self):
        from repro.utils.errors import ExecutionError

        with pytest.raises(ExecutionError, match="dist"):
            get_backend("no-such-backend")
