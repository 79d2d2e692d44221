"""Shared pytest fixtures."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.checks import COUNTERS
from repro.frontend import random as frontend_random
from repro.frontend.session import Session, set_session
from repro.runtime.interpreter import NumPyInterpreter
from repro.utils.config import Config, set_config


@pytest.fixture(scope="session", autouse=True)
def hermetic_codegen_cache(tmp_path_factory):
    """Point the compiled-artifact cache at a fresh directory for the session.

    What a native flush launches depends on what the cache holds (a form
    on disk binds on its first launch, one that is not runs its template),
    so a suite that read ``~/.cache/repro-codegen`` would test whatever an
    earlier run left there.  A ``REPRO_CODEGEN_CACHE`` set by the caller
    wins: a run that means a warm cache names it.  Subprocesses and dist
    workers inherit the choice through the environment.
    """
    if os.environ.get("REPRO_CODEGEN_CACHE"):
        yield os.environ["REPRO_CODEGEN_CACHE"]
        return
    directory = str(tmp_path_factory.mktemp("codegen-cache"))
    os.environ["REPRO_CODEGEN_CACHE"] = directory
    try:
        yield directory
    finally:
        os.environ.pop("REPRO_CODEGEN_CACHE", None)


@pytest.fixture(autouse=True)
def clean_global_state(monkeypatch):
    """Reset global configuration, the default session and check counters.

    And the front-end's explicit seed: ``random.seed()`` is process-wide and
    sticky, and while one is set every session draws from it — an oracle
    session would no longer line up with the session it is the oracle of.
    """
    set_config(Config())
    set_session(Session())
    COUNTERS.reset()
    monkeypatch.setattr(frontend_random, "_EXPLICIT_SEED", None)
    yield
    set_config(Config())
    set_session(Session())
    COUNTERS.reset()


@pytest.fixture
def interpreter() -> NumPyInterpreter:
    """A reference interpreter instance."""
    return NumPyInterpreter()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy random generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def thread_hammer():
    """``hammer(threads, body)``: run ``body(index)`` on that many threads at once.

    The switch interval is shortened so unlocked read-modify-write races
    actually interleave; every join is bounded, and the first exception a
    thread raised is re-raised here instead of dying with the thread.
    """

    def hammer(threads: int, body) -> None:
        errors = []

        def guarded(index: int) -> None:
            try:
                body(index)
            except BaseException as exc:  # re-raised below, never swallowed
                errors.append(exc)

        workers = [
            threading.Thread(target=guarded, args=(index,), daemon=True)
            for index in range(threads)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers), "hammer wedged"
        if errors:
            raise errors[0]

    return hammer


def run_program(program, memory=None):
    """Execute a program on the reference interpreter (test helper)."""
    return NumPyInterpreter().execute(program, memory)


@pytest.fixture(scope="session")
def map_reduce_program():
    """The program builder of the map-reduce differential axis."""
    return _map_reduce_program


def _map_reduce_program(dtype, reduction, shape, axis=0, convert=None):
    """``out = reduce(f(random), axis)`` with ``f``'s chain stored in ``dtype``.

    The shape the map-reduce differential axis is built from: a producer
    chain of element-wise byte-codes whose last store — in ``dtype``, or a
    converting ``BH_IDENTITY`` of it into ``convert`` — is read by exactly
    one ``BH_<reduction>_REDUCE`` and then freed, so the ``dag`` scheduler
    may end the kernel in the reduction.  Values are chosen so every
    element matters to every reduction: odd integers (a wrapped product
    never collapses to zero), floats within 1e-4 of one (a product neither
    under- nor overflows, in float32 either).  Returns ``(program, out)``.
    """
    import math

    from repro.bytecode import dtypes
    from repro.bytecode.builder import ProgramBuilder
    from repro.bytecode.opcodes import OpCode
    from repro.bytecode.view import View

    builder = ProgramBuilder()

    def new(element_dtype, name):
        base = builder.new_base(math.prod(shape), element_dtype, name=name)
        return View.full(base, tuple(shape))

    draw = new(dtypes.float64, "draw")
    builder.random(draw, 20260422)
    temporaries = [draw]
    if dtype is dtypes.bool_:
        shifted = new(dtypes.float64, "shifted")
        builder.subtract(shifted, draw, 0.25)
        source = new(dtype, "values")
        builder.emit_binary(OpCode.BH_GREATER, source, shifted, 0.25)
        temporaries.append(shifted)
    elif dtype.is_integer:
        scaled = new(dtypes.float64, "scaled")
        builder.multiply(scaled, draw, 4.0)
        values = new(dtype, "values")
        builder.identity(values, scaled)  # converting: truncates to 0..3
        doubled = new(dtype, "doubled")
        builder.multiply(doubled, values, 2)
        source = new(dtype, "odd")
        builder.add(source, doubled, 1)
        temporaries += [scaled, values, doubled]
    else:
        values = new(dtype, "values")
        builder.multiply(values, draw, 0.0002)
        source = new(dtype, "near_one")
        builder.add(source, values, 0.9999)
        temporaries.append(values)
    if convert is not None:
        temporaries.append(source)
        converted = new(convert, "converted")
        builder.identity(converted, source)
        source = converted
    ufunc = {"add": np.add, "multiply": np.multiply, "maximum": np.maximum, "minimum": np.minimum}
    reduced = ufunc[reduction].reduce(np.ones(1, source.dtype.np_dtype)).dtype
    kept = tuple(dim for index, dim in enumerate(shape) if index != axis) or (1,)
    out = View.full(
        builder.new_base(math.prod(kept), dtypes.from_numpy(reduced), name="out"), kept
    )
    builder.emit(OpCode[f"BH_{reduction.upper()}_REDUCE"], out, source, axis)
    for view in temporaries + [source]:
        builder.free(view)
    builder.sync(out)
    return builder.build(), out


@pytest.fixture(scope="session")
def literal_program():
    """The program builder of the float-literal differential axis."""
    return _literal_program


#: kind -> shape of the literal axis's programs (sizes for ``SMALL_TILES``).
LITERAL_KINDS = {"map": (1700,), "fill": (1700,), "tail": (1700,), "axis": (30, 40)}


def _literal_program(kind, dtype, constant):
    """One kernel of ``LITERAL_KINDS`` that computes with ``constant``.

    ``map``: ``out = minimum(x / c, c)``; ``fill``: ``out = identity(c)``;
    ``tail`` and ``axis``: ``maximum_reduce(x / c)`` of a vector and along
    axis 1 of a matrix, the quotient kernel-local so the reduction may end
    its kernel.  The optimizer rewrites none of these whatever ``c`` is (it
    drops ``+ 0`` and folds ``* 0``, signed zeros included) and a maximum
    does not depend on its order, so every tier owes the oracle's bits —
    and a zero's sign shows: ``x / -0.0`` is ``-inf``.  ``x`` is uniform in
    [0, 1), stored in ``dtype``.  Returns ``(program, out)``.
    """
    import math

    from repro.bytecode import dtypes
    from repro.bytecode.builder import ProgramBuilder
    from repro.bytecode.view import View

    shape = LITERAL_KINDS[kind]
    builder = ProgramBuilder()

    def new(element_dtype, dims, name):
        return View.full(builder.new_base(math.prod(dims), element_dtype, name=name), dims)

    if kind == "fill":
        out = new(dtype, shape, "out")
        builder.identity(out, constant)
        builder.sync(out)
        return builder.build(), out
    draw = new(dtypes.float64, shape, "draw")
    builder.random(draw, 20261004)
    x = new(dtype, shape, "x")
    builder.identity(x, draw)
    quotient = new(dtype, shape, "quotient")
    builder.divide(quotient, x, constant)
    if kind == "map":
        out = new(dtype, shape, "out")
        builder.minimum(out, quotient, constant)
    else:
        out = new(dtype, shape[:-1] or (1,), "out")
        builder.maximum_reduce(out, quotient, axis=len(shape) - 1)
    for view in (draw, x, quotient):
        builder.free(view)
    builder.sync(out)
    return builder.build(), out


@pytest.fixture
def watchdog():
    """Fail, with every thread's stack, instead of hanging (60 s ``SIGALRM``)."""
    import faulthandler
    import signal

    def fire(signum, frame):
        faulthandler.dump_traceback()
        raise RuntimeError("test exceeded its 60 s watchdog")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
