"""Fixtures for the distributed suite: the hang watchdog.

Distributed tests exercise real worker processes over pipes and shared
memory, so a protocol bug can manifest as a hang rather than a failure.
``pytest-timeout`` is not part of the environment, so every test in this
directory runs under a ``SIGALRM`` watchdog: on expiry the handler dumps
all thread stacks (``faulthandler``) and raises in the main thread,
turning a silent deadlock into a diagnosable failure.
"""

from __future__ import annotations

import faulthandler
import signal

import pytest

#: Generous per-test budget: worker spawn costs a second or two, the
#: slowest test a few more; anything hitting this is wedged, not slow.
WATCHDOG_SECONDS = 120

@pytest.fixture(autouse=True)
def hang_watchdog():
    """Fail (with all thread stacks) instead of hanging forever."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX hosts
        yield
        return

    def fire(signum, frame):
        faulthandler.dump_traceback()
        raise RuntimeError(
            f"dist test exceeded the {WATCHDOG_SECONDS}s hang watchdog"
        )

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
