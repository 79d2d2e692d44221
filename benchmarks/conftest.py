"""Shared fixtures and reporting helpers for the benchmark harness.

Every experiment module (``test_bench_e1_*`` .. ``test_bench_e15_*``)
corresponds to one row of the experiment index in ``DESIGN.md`` and one
section of ``EXPERIMENTS.md``.  Wall-clock numbers come from
pytest-benchmark; derived metrics (byte-code counts, kernel launches,
simulated device time, predicted speedups) are attached to each benchmark's
``extra_info`` so they appear in ``--benchmark-json`` output, and are also
printed so a plain ``pytest benchmarks/ --benchmark-only -s`` shows the
paper-style comparison tables.

The helpers the modules import (``record_table``, ``wall_clock_floor``)
live in :mod:`bench_report`, a module with a name of its own.

Perf trajectory
---------------
With ``--record-bench``, at session finish every benchmark that ran is
folded into one ``BENCH_<experiment>.json`` file per experiment module at
the repository root (``test_bench_e12_parallel`` → ``BENCH_E12.json``):
wall-clock statistics plus every ``record_table`` table.  The files are
committed, so ``git log -p BENCH_E12.json`` is the performance trajectory
of that experiment across PRs — machine-readable, no dashboard required.
A plain run writes nothing, so tier-1 leaves ``git status`` clean.
"""

from __future__ import annotations

import json
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from repro.frontend.session import Session, set_session
from repro.utils.config import Config, set_config

#: Repository root — BENCH_*.json trajectory files land here.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Bump when the trajectory file layout changes shape.
BENCH_SCHEMA = 2


def _host_block() -> dict:
    """Hardware/platform stamp for ``BENCH_*.json``.

    Wall-clock trajectories are only comparable on like hardware; without
    this block a committed number from a 2-core CI runner and one from a
    32-core workstation were indistinguishable.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }


@pytest.fixture(autouse=True)
def clean_global_state():
    """Reset global configuration and the default front-end session per benchmark.

    ``REPRO_CHECK_IR=1`` in the environment turns on the static checking
    layer for the whole benchmark run — CI's static-analysis job uses it
    to smoke the plan-cache and codegen experiments with every analyzer
    live, proving the checks survive real workloads (and making their
    overhead visible in the wall-clock trajectory if it ever grows).
    """
    check_ir = os.environ.get("REPRO_CHECK_IR", "") not in ("", "0")
    set_config(Config(check_ir=check_ir))
    set_session(Session())
    yield
    set_config(Config())
    set_session(Session())


# --------------------------------------------------------------------------- #
# BENCH_*.json perf-trajectory recorder
# --------------------------------------------------------------------------- #


def _experiment_id(fullname: str) -> str | None:
    """``benchmarks/test_bench_e12_parallel.py::test_x`` → ``"E12"``."""
    match = re.search(r"test_bench_(e\d+)_", fullname)
    return match.group(1).upper() if match else None


def _json_safe(value):
    """Recursively coerce NumPy scalars so ``json`` can serialise tables."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _trajectory_entry(bench) -> dict | None:
    """One trajectory record for a finished pytest-benchmark ``Metadata``."""
    stats = getattr(bench, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return None  # disabled/skipped benchmark: nothing measured
    return {
        "test": bench.name,
        "group": bench.group,
        "wall_seconds": {
            "min": float(stats.min),
            "mean": float(stats.mean),
            "max": float(stats.max),
            "rounds": int(stats.rounds),
        },
        "tables": _json_safe(dict(bench.extra_info)),
    }


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench",
        action="store_true",
        default=False,
        help="rewrite the BENCH_E*.json trajectory files of the experiments that ran",
    )


def pytest_sessionfinish(session, exitstatus):
    """Under ``--record-bench``, write one ``BENCH_<experiment>.json`` per
    experiment that ran.

    Only experiments with at least one measured benchmark are written, so a
    filtered run (``pytest benchmarks/test_bench_e15_codegen.py``) refreshes
    its own trajectory file and leaves the others untouched.
    """
    if not session.config.getoption("--record-bench", default=False):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    experiments: dict[str, list] = {}
    for bench in bench_session.benchmarks:
        experiment = _experiment_id(bench.fullname)
        if experiment is None:
            continue
        entry = _trajectory_entry(bench)
        if entry is not None:
            experiments.setdefault(experiment, []).append(entry)
    for experiment, entries in sorted(experiments.items()):
        payload = {
            "schema": BENCH_SCHEMA,
            "experiment": experiment,
            "host": _host_block(),
            "benchmarks": sorted(entries, key=lambda item: item["test"]),
        }
        path = REPO_ROOT / f"BENCH_{experiment}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
