"""Shared pytest fixtures."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.checks import COUNTERS
from repro.frontend import random as frontend_random
from repro.frontend.session import Session, set_session
from repro.runtime.interpreter import NumPyInterpreter
from repro.utils.config import Config, set_config


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
