"""E11 — plan-cache amortization on repeated-flush workloads.

Iterative scientific programs (the heat-equation stencil here) flush a
structurally identical byte-code batch every iteration: the opcodes, view
geometry and constants repeat, only the base arrays behind the front-end
temporaries are fresh.  Without a plan cache the middleware re-runs the full
fixed-point optimization pipeline per flush; with the execution engine's
program-fingerprint cache every iteration after warm-up rebinds a cached
:class:`~repro.runtime.plan.ExecutionPlan` in one linear pass.

The acceptance criterion asserted below: after the first iterations the
per-flush middleware overhead (``ExecutionStats.plan_time_seconds`` —
optimize + partition time) drops by at least 2x, and the plan-cache hit
counters prove the reuse is real.  In practice the reduction is one to two
orders of magnitude; the 2x bound keeps the assertion robust on noisy CI
hosts.
"""

import numpy as np
import pytest

from repro.frontend import flush as frontend_flush
from repro.frontend import zeros
from repro.frontend.session import reset_session

from bench_report import record_table

GRID = 96
ITERATIONS = 50


def _heat_step(work):
    """One Jacobi iteration expressed with shifted views, as a user writes it."""
    up = work[0:-2, 1:-1]
    down = work[2:, 1:-1]
    left = work[1:-1, 0:-2]
    right = work[1:-1, 2:]
    interior = (up + down + left + right) * 0.25
    next_grid = work.copy()
    next_grid[1:-1, 1:-1] = interior
    return next_grid


def _run_iterations(backend, optimize):
    session = reset_session(backend=backend, optimize=optimize)
    grid = zeros((GRID, GRID))
    grid[0, :] = 100.0
    grid[-1, :] = 100.0
    work = grid
    per_flush = []
    for _ in range(ITERATIONS):
        work = _heat_step(work)
        frontend_flush()
        stats = session.stats_history[-1]
        per_flush.append(
            {
                "plan_s": stats.plan_time_seconds,
                "hit": stats.plan_cache_hits,
                "miss": stats.plan_cache_misses,
            }
        )
    checksum = float(work.to_numpy().sum())
    return session, per_flush, checksum


@pytest.mark.parametrize("backend", ("interpreter", "parallel"))
def test_plan_cache_amortizes_middleware_overhead(benchmark, backend):
    """50 heat-equation flushes: steady-state planning must be >= 2x cheaper."""

    def run():
        return _run_iterations(backend, optimize=True)

    session, per_flush, checksum = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = f"E11 plan cache ({backend})"

    misses = [row for row in per_flush if row["miss"]]
    hits = [row for row in per_flush if row["hit"]]
    # The first flush can never hit; the structure stabilizes within a few
    # iterations (deferred frees of the previous iteration's temporaries
    # join the batch), after which every flush replays a cached plan.
    assert per_flush[0]["miss"] == 1
    assert len(hits) >= ITERATIONS - 5
    assert per_flush[-1]["hit"] == 1

    mean_miss_ms = 1e3 * sum(r["plan_s"] for r in misses) / len(misses)
    mean_hit_ms = 1e3 * sum(r["plan_s"] for r in hits) / len(hits)
    record_table(
        benchmark,
        f"E11: per-flush middleware overhead, {GRID}x{GRID} grid, "
        f"{ITERATIONS} iterations ({backend})",
        [
            {
                "phase": "cold (plan miss)",
                "flushes": len(misses),
                "plan_ms_per_flush": mean_miss_ms,
            },
            {
                "phase": "steady (plan hit)",
                "flushes": len(hits),
                "plan_ms_per_flush": mean_hit_ms,
            },
            {
                "phase": "reduction",
                "flushes": None,
                "plan_ms_per_flush": mean_miss_ms / mean_hit_ms if mean_hit_ms else float("inf"),
            },
        ],
        ["phase", "flushes", "plan_ms_per_flush"],
    )

    # Acceptance criterion: >= 2x reduction in per-flush middleware overhead
    # once the plan cache is warm (measured: one to two orders of magnitude).
    assert mean_hit_ms * 2.0 <= mean_miss_ms

    # The counters prove reuse, and reuse must not change results.
    cache = session.cache_stats()
    assert cache["plan_cache_hits"] == len(hits)
    _, _, reference = _run_iterations(backend, optimize=False)
    assert checksum == pytest.approx(reference)


def test_kernel_cache_shares_templates_across_iterations(benchmark):
    """The tiled backend compiles each structurally distinct kernel once per
    session."""

    def run():
        return _run_iterations("parallel", optimize=True)

    session, _, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E11 kernel cache"
    cache = session.cache_stats()
    assert cache["tile_template_hits"] > cache["tile_template_misses"]
    record_table(
        benchmark,
        "E11: tile-template cache over 50 iterations",
        [cache],
        ["tile_template_hits", "tile_template_misses", "tile_template_size"],
    )
