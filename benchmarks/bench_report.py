"""Reporting helpers the benchmark modules import by name.

A named module, not ``conftest``: ``from conftest import ...`` binds
whichever directory's ``conftest.py`` pytest imported first, so it breaks
as soon as ``tests`` and ``benchmarks`` are collected together.

Tier-1 keeps only deterministic asserts hard (counters, bitwise equality,
descriptors-only): a wall-clock floor (:func:`wall_clock_floor`) warns by
default and fails only under ``REPRO_BENCH_STRICT=1``, because what a host
delivers is a property of the host, not of the commit.
"""

from __future__ import annotations

import os
import warnings

import pytest


def wall_clock_floor(experiment: str, speedup: float, floor: float, what: str) -> None:
    """Hold ``speedup`` to ``floor``: warn, or fail under ``REPRO_BENCH_STRICT=1``."""
    if speedup >= floor:
        return
    message = f"{experiment} wall-clock floor missed: {what} is {speedup:.2f}x < {floor}x"
    if os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0"):
        pytest.fail(message)
    warnings.warn(message, stacklevel=2)


def record_table(benchmark, title: str, rows: list, columns: list) -> None:
    """Attach a small result table to a benchmark and print it.

    Parameters
    ----------
    benchmark:
        The pytest-benchmark fixture.
    title:
        Table caption (e.g. ``"E1: byte-code counts"``).
    rows:
        List of dicts, one per row.
    columns:
        Column order.
    """
    benchmark.extra_info[title] = rows
    header = " | ".join(f"{name:>16}" for name in columns)
    lines = [f"\n[{title}]", header, "-" * len(header)]
    for row in rows:
        lines.append(" | ".join(f"{_format(row.get(name)):>16}" for name in columns))
    print("\n".join(lines))


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
