"""``tests`` and ``benchmarks`` collect together, in either order.

Both directories have a ``conftest.py`` and neither is a package, so
``from conftest import ...`` binds whichever one pytest imported first: a
benchmark module that took its helpers from ``conftest`` failed to collect
whenever a ``tests`` module came first.  The benchmark modules import them
from ``benchmarks/bench_report.py``, whose name is unique.  Each row runs
the collection in a fresh interpreter, so this session's imports do not
decide it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A benchmark module that imports ``record_table`` and a tests module.
PAIR = ("benchmarks/test_bench_e9_ablations.py", "tests/runtime/test_call_budget.py")


@pytest.mark.parametrize("paths", [PAIR, PAIR[::-1]], ids=["benchmarks-first", "tests-first"])
def test_benchmarks_and_tests_collect_together(paths):
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
        + list(paths),
        capture_output=True,
        text=True,
        cwd=_ROOT,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = [line for line in done.stdout.splitlines() if "::" in line]
    for path in paths:
        assert any(line.startswith(path + "::") for line in collected), (path, done.stdout)
