"""Outside-in tracing: spans recorded from ``bench/`` around each layer's public calls.

Nothing under ``src/`` is edited or monkeypatched.  The seams are the ones
the library offers: ``ExecutionEngine(backend=<Backend instance>)`` takes a
:class:`TracingBackend` that delegates to the real backend, and
``pipeline=`` takes a :class:`TracedPipeline` whose passes are wrapped.
Workload code opens the ``op`` span and its ``frontend.record`` / ``flush``
/ ``frontend.read`` children itself.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Dict, List

from repro.core.pipeline import Pipeline, default_pipeline
from repro.core.rules import Pass
from repro.runtime.backend import Backend, get_backend


class Tracer:
    """In-memory span recorder; one per traced workload instance.

    Spans nest per thread (each tenant thread has its own stack) and carry
    the id of the op they belong to.  Appends are single bytecodes, so
    tenant threads share the span list without a lock; ``lock`` guards the
    read-modify-write bookkeeping of executed plans.
    """

    enabled = True

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget what was recorded so far (set-up), keeping span ids unique."""
        self.spans: List[tuple] = []
        #: ``ExecutionStats`` of every backend execution.  The engine fills
        #: the plan and pool fields in after the backend returns, so the
        #: objects are kept and read only once the window is over.
        self.stats: list = []
        #: id(plan) -> [plan, executions, built while recording].
        self.plans: Dict[int, list] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.op = -1
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self._local.op))

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one user-visible operation."""
        self._stack()
        self._local.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._local.op = -1


class NullTracer:
    """Tracing off: every span is one shared no-op context manager."""

    enabled = False
    spans: tuple = ()
    _noop = contextlib.nullcontext()

    def span(self, name: str):
        return self._noop

    def op(self, op_id: int):
        return self._noop


class TracingBackend(Backend):
    """Delegates to the real backend, recording spans, stats and plans."""

    def __init__(self, backend: str, tracer: Tracer) -> None:
        self.inner = get_backend(backend)
        self.name = self.inner.name  # plans are keyed by backend name
        self.tracer = tracer

    def prepare_plan(self, plan) -> None:
        # The engine calls this once per plan-cache miss.
        tracer = self.tracer
        with tracer.lock:
            tracer.plans[id(plan)] = [plan, 0, True]
        with tracer.span("backend.prepare_plan"):
            self.inner.prepare_plan(plan)

    def execute_plan(self, plan, program, memory=None):
        tracer = self.tracer
        with tracer.span("backend.execute"):
            result = self.inner.execute_plan(plan, program, memory)
        with tracer.lock:
            tracer.stats.append(result.stats)
            tracer.plans.setdefault(id(plan), [plan, 0, False])[1] += 1
        return result

    def execute(self, program, memory=None):
        with self.tracer.span("backend.execute"):
            result = self.inner.execute(program, memory)
        with self.tracer.lock:
            self.tracer.stats.append(result.stats)
        return result

    def cache_stats(self):
        return self.inner.cache_stats()

    def close(self) -> None:
        closer = getattr(self.inner, "close", None)
        if callable(closer):
            closer()


class _TracedPass(Pass):
    def __init__(self, inner: Pass, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._span_name = f"core.pass.{inner.name}"
        self.tracer = tracer

    def run(self, program):
        with self.tracer.span(self._span_name):
            return self.inner.run(program)


class TracedPipeline(Pipeline):
    """The default pipeline with a span around the run and around each pass."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__([_TracedPass(p, tracer) for p in default_pipeline().passes])
        self.tracer = tracer

    def run(self, program):
        with self.tracer.span("core.optimize"):
            return super().run(program)


def engine_options(backend: str, tracer) -> dict:
    """``backend=``/``pipeline=`` keywords for an engine, session or service."""
    if not tracer.enabled:
        return {"backend": backend}
    return {"backend": TracingBackend(backend, tracer), "pipeline": TracedPipeline(tracer)}
