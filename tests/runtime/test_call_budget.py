"""The call budget of a plan hit: Python calls per warm flush, pinned.

The benchmark's ``flush_storm_small`` op records one 96x96 Jacobi step
through the front-end and flushes it; on a warm plan the flush should cost
little more than its launches.  ``sys.setprofile`` counts the calls into
functions of the ``repro`` package — its own code only, so the numbers do
not move with the Python or NumPy version — made by recording the op and
by one warm flush of it.  A change that lowers them lowers the pins.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.codegen import find_c_compiler
from repro.frontend import zeros
from repro.frontend.session import Session
from repro.utils.config import config_override

_PACKAGE = os.path.dirname(repro.__file__)


def _jacobi_step(work):
    """The ``flush_storm_small`` op's recording."""
    up = work[0:-2, 1:-1]
    down = work[2:, 1:-1]
    left = work[1:-1, 0:-2]
    right = work[1:-1, 2:]
    interior = (up + down + left + right) * 0.25
    following = work.copy()
    following[1:-1, 1:-1] = interior
    return following


def _package_calls(function, *args):
    """``(result, calls into repro)`` of ``function(*args)`` on this thread."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.skipif(find_c_compiler() is None, reason="the stencil would run its template")
def test_the_storm_op_s_recording_and_warm_flush_call_budget(tmp_path):
    with config_override(codegen_cache_dir=str(tmp_path)):
        session = Session(backend="native")
        grid = zeros((96, 96), session=session)
        grid[0, :] = 100.0
        grid[-1, :] = 100.0
        for _ in range(8):
            grid = _jacobi_step(grid)
            session.flush()
        grid, recording = _package_calls(_jacobi_step, grid)
        _, flushing = _package_calls(session.flush)
        stats = session.stats_history[-1]
    assert stats.plan_cache_hits == 1 and stats.native_fallbacks == 0
    assert stats.native_kernel_launches == 1  # the stencil; the copy is NumPy's
    assert (recording, flushing) == (360, 1085)
