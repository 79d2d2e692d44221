"""A flush runs under one configuration snapshot, read where it enters.

The engine reads the live configuration once per flush and resolves it
through the backend; the plan is keyed by that snapshot and every layer
below — schedule, memory plan, tiling, launches — receives it as an
argument.  A change made while a flush runs applies from the next one.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.frontend import zeros
from repro.frontend.session import Session
from repro.runtime import interpreter as interpreter_module
from repro.runtime.engine import ExecutionEngine
from repro.runtime.native import NativeBackend
from repro.runtime.parallel import ParallelBackend
from repro.runtime.plan import config_signature
from repro.runtime.tiling import TiledMapStep, decompose
from repro.utils.config import Config, config_override, get_config, set_config

ENTRY = dict(
    fusion_scheduler="dag",
    parallel_tile_elements=256,
    parallel_serial_threshold=8,
    parallel_num_threads=2,
    memory_plan_enabled=True,
)
#: Every knob the flush reads after its fingerprint, set to something else.
MID_FLUSH = dict(
    fusion_scheduler="consecutive",
    parallel_tile_elements=64,
    parallel_num_threads=3,
    memory_plan_enabled=False,
)


def _interleaved(length=2048):
    """An element-wise chain with a reduction in the middle: ``"dag"``
    hoists the chain past it into one kernel, ``"consecutive"`` does not."""
    builder = ProgramBuilder()
    v, w, u = (builder.new_vector(length) for _ in range(3))
    total = builder.new_vector(1)
    builder.identity(v, 1.5)
    builder.add_reduce(total, v, 0)
    builder.multiply(w, v, 2.0)
    builder.add(u, w, 1.0)
    builder.sync(u)
    builder.sync(total)
    return builder.build()


def test_a_change_mid_flush_does_not_reach_that_flush(monkeypatch):
    fingerprint = ExecutionEngine._fingerprint

    def fingerprint_then_change(self, *args):
        found = fingerprint(self, *args)
        set_config(get_config().replace(**MID_FLUSH))
        return found

    with config_override(**ENTRY) as entry:
        engine = ExecutionEngine(backend="parallel", optimize=True)
        monkeypatch.setattr(ExecutionEngine, "_fingerprint", fingerprint_then_change)
        result = engine.execute(_interleaved())
        monkeypatch.undo()
        plan = engine.last_plan
        # The whole flush ran under the entry configuration ...
        assert plan.fusion_schedule.scheduler == "dag"
        assert plan.fusion_schedule.bytecodes_reordered > 0
        assert plan.memory_plan is not None
        spans = [len(step.spans) for step in plan.tiling.steps if isinstance(step, TiledMapStep)]
        assert spans and all(count == 2048 // 256 for count in spans)
        assert result.stats.threads_used == 2
        snapshot = engine.backend.resolve_config(entry)
        assert plan.config == snapshot
        assert plan.tiling == decompose(plan.optimized, snapshot)
        # ... and published its plan under that configuration's signature.
        key = (plan.fingerprint, "parallel", ("default",), config_signature(snapshot))
        assert engine.plan_cache.peek(key) is plan
    # The change applies from the next flush.
    with config_override(**{**ENTRY, **MID_FLUSH}):
        after = engine.execute(_interleaved())
    assert after.stats.plan_cache_misses == 1 and after.stats.threads_used == 3
    assert engine.last_plan.memory_plan is None
    with config_override(**ENTRY):
        assert engine.execute(_interleaved()).stats.plan_cache_hits == 1


def test_the_interpreter_plan_path_runs_under_the_plan_configuration(monkeypatch, tmp_path):
    builder = ProgramBuilder()
    x, out = builder.new_vector(64), builder.new_vector(64)
    builder.arange(x)
    builder.emit_unary(OpCode.BH_ERF, out, x)
    builder.sync(out)
    fingerprint = ExecutionEngine._fingerprint

    def fingerprint_then_change(self, *args):
        found = fingerprint(self, *args)
        set_config(get_config().replace(codegen_cache_dir=str(tmp_path / "mid-flush")))
        return found

    received = []
    monkeypatch.setattr(
        interpreter_module,
        "erf_helper",
        lambda config: received.append(config) or (None, "erf: no compiled helper (test)"),
    )
    with config_override(codegen_cache_dir=str(tmp_path / "entry")) as entry:
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        monkeypatch.setattr(ExecutionEngine, "_fingerprint", fingerprint_then_change)
        engine.execute(builder.build())
        monkeypatch.undo()
    snapshot = engine.backend.resolve_config(entry)
    assert engine.last_plan.config == snapshot
    assert [config.codegen_cache_dir for config in received] == [snapshot.codegen_cache_dir]


def test_constructor_overrides_are_part_of_the_snapshot():
    backend = ParallelBackend(num_threads=3, tile_elements=128)
    snapshot = backend.resolve_config(Config(parallel_num_threads=5))
    assert (snapshot.parallel_num_threads, snapshot.parallel_tile_elements) == (3, 128)
    assert snapshot.codegen_cache_dir is not None
    # Memoised per configuration value.
    assert backend.resolve_config(Config(parallel_num_threads=5)) is snapshot


def _jacobi_step(work):
    interior = (work[0:-2, 1:-1] + work[2:, 1:-1] + work[1:-1, 0:-2] + work[1:-1, 2:]) * 0.25
    following = work.copy()
    following[1:-1, 1:-1] = interior
    return following


class _CallCounter:
    """Counts, on this thread, calls of the functions the test names."""

    def __init__(self) -> None:
        self.counts = {"get_config": 0, "sched_getaffinity": 0, "codegen_env": 0, "copies": 0}

    def __call__(self, frame, event, arg) -> None:
        if event == "c_call" and getattr(arg, "__name__", "") == "sched_getaffinity":
            self.counts["sched_getaffinity"] += 1
        if event != "call":
            return
        code = frame.f_code
        if code.co_name == "get_config" and code.co_filename.endswith("config.py"):
            self.counts["get_config"] += 1
        elif code.co_name == "__getitem__" and frame.f_locals.get("key") == "REPRO_CODEGEN_THREADS":
            self.counts["codegen_env"] += 1  # os.environ's, wherever os was loaded from
        elif code.co_name in ("replace", "deepcopy") and code.co_filename.endswith(
            ("dataclasses.py", "copy.py")
        ):
            self.counts["copies"] += 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
def test_a_warm_native_flush_reads_the_configuration_once(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CODEGEN_THREADS", "2")
    with config_override(codegen_cache_dir=str(tmp_path)):
        # Constructor overrides used to cost a Config copy per read.
        session = Session(backend=NativeBackend(num_threads=2))
        grid = zeros((96, 96), session=session)
        grid[0, :] = 100.0
        grid[-1, :] = 100.0
        for _ in range(3):
            grid = _jacobi_step(grid)
            session.flush()
        counter = _CallCounter()
        grid = _jacobi_step(grid)
        sys.setprofile(counter)
        try:
            session.flush()
        finally:
            sys.setprofile(None)
        assert session.stats_history[-1].plan_cache_hits == 1
        assert np.isfinite(grid.to_numpy()).all()
    assert counter.counts == {
        "get_config": 1,
        "sched_getaffinity": 0,
        "codegen_env": 0,
        "copies": 0,
    }
