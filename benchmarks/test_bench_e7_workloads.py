"""E7 — end-to-end scientific workloads through the lazy front-end.

Paper motivation (Section 1): the programmer keeps writing NumPy and the
runtime delivers the performance.  These benchmarks run the motivating
workloads (heat-equation stencil, Black-Scholes pricing, Monte-Carlo pi,
Gaussian blur, a polynomial mixing both headline rewrites) through the full
stack — front-end recording, optimization pipeline, backend execution — with
the optimizer off versus on.  Expected shape: the optimized runs launch
fewer kernels and are never slower; chains dominated by element-wise work
(Black-Scholes, polynomial) show the largest gains.
"""

import numpy as np
import pytest

from repro import frontend as bh
from repro.frontend.session import reset_session
from repro.workloads import (
    black_scholes,
    gaussian_blur,
    heat_equation,
    monte_carlo_pi,
    polynomial_evaluation,
)

from bench_report import record_table

WORKLOADS = {
    "heat_equation": lambda: heat_equation(grid_size=96, iterations=10),
    "black_scholes": lambda: black_scholes(num_options=200_000),
    "monte_carlo_pi": lambda: monte_carlo_pi(num_samples=200_000),
    "gaussian_blur": lambda: gaussian_blur(height=128, width=128, iterations=3),
    "polynomial": lambda: polynomial_evaluation(size=200_000, exponent=10),
}


def _run_workload(name, optimize_flag):
    session = reset_session(backend="interpreter", optimize=optimize_flag)
    bh.random.seed(2016)
    result = WORKLOADS[name]()
    values = result.to_numpy()
    stats = session.total_stats()
    return values, stats


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_unoptimized(benchmark, name):
    """Baseline: lazy front-end with the optimizer disabled (one kernel per byte-code)."""
    values, stats = benchmark(_run_workload, name, False)
    benchmark.group = f"E7 {name}"
    benchmark.extra_info["kernel_launches"] = stats.kernel_launches
    assert np.isfinite(values).all()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_optimized(benchmark, name):
    """Optimized: the full transformation pipeline runs at every flush."""
    baseline_values, baseline_stats = _run_workload(name, False)
    values, stats = benchmark(_run_workload, name, True)
    benchmark.group = f"E7 {name}"
    benchmark.extra_info["kernel_launches"] = stats.kernel_launches

    assert np.allclose(values, baseline_values, rtol=1e-8, atol=1e-10)
    assert stats.kernel_launches <= baseline_stats.kernel_launches
    record_table(
        benchmark,
        f"E7: {name}",
        [
            {
                "configuration": "unoptimized",
                "kernel_launches": baseline_stats.kernel_launches,
                "instructions": baseline_stats.instructions_executed,
            },
            {
                "configuration": "optimized",
                "kernel_launches": stats.kernel_launches,
                "instructions": stats.instructions_executed,
            },
        ],
        ["configuration", "kernel_launches", "instructions"],
    )
