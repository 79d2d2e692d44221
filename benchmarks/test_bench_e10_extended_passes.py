"""E10 — the extended pass set (beyond the paper's listings).

The paper's conclusion plans "a further study of real examples"; these
benchmarks measure what the extension passes add on top of the paper's
transformations:

* scalar constant folding (collapses constant-initialised pipelines),
* strength reduction (division-by-constant, sqrt/reciprocal powers),
* common-subexpression elimination (duplicate element-wise expressions).

Expected shape: the extended pipeline never produces more byte-codes than
the default pipeline, removes duplicate work where the workload has any, and
costs only marginally more optimizer time.
"""

import numpy as np
import pytest

from repro import frontend as bh
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.core.cost import CostModel
from repro.core.pipeline import default_pipeline, optimize
from repro.core.verifier import SemanticVerifier
from repro.frontend.session import reset_session
from repro.workloads import elementwise_chain, repeated_constant_add

from bench_report import record_table


def _duplicate_expression_program(size=10_000):
    """A program with a repeated sub-expression (sqrt(x) computed twice)."""
    builder = ProgramBuilder()
    x = builder.new_vector(size)
    first = builder.new_vector(size)
    second = builder.new_vector(size)
    total = builder.new_vector(size)
    builder.random(x, seed=7)
    builder.sqrt(first, x)
    builder.sqrt(second, x)        # duplicate of the sqrt above
    builder.add(total, first, second)
    builder.divide(total, total, 4.0)
    builder.sync(total)
    builder.free(first)
    builder.free(second)
    return builder.build()


def test_default_pipeline(benchmark):
    """Baseline optimizer: the paper's pass set."""
    program = _duplicate_expression_program()
    report = benchmark(lambda: optimize(program))
    benchmark.group = "E10 duplicate-expression workload"
    benchmark.extra_info["bytecodes_after"] = len(report.optimized)
    assert report.changed


def test_extended_pipeline(benchmark):
    """Extended optimizer: + constant folding, strength reduction, CSE."""
    program = _duplicate_expression_program()
    report = benchmark(lambda: optimize(program, extended=True))
    benchmark.group = "E10 duplicate-expression workload"

    default_report = optimize(program)
    model = CostModel("gpu")
    rows = [
        {
            "pipeline": "default (paper)",
            "bytecodes": len(default_report.optimized),
            "sqrt_ops": default_report.optimized.count(OpCode.BH_SQRT),
            "divide_ops": default_report.optimized.count(OpCode.BH_DIVIDE),
            "simulated_us": model.program_cost(default_report.optimized) * 1e6,
        },
        {
            "pipeline": "extended",
            "bytecodes": len(report.optimized),
            "sqrt_ops": report.optimized.count(OpCode.BH_SQRT),
            "divide_ops": report.optimized.count(OpCode.BH_DIVIDE),
            "simulated_us": model.program_cost(report.optimized) * 1e6,
        },
    ]
    record_table(
        benchmark,
        "E10: default vs extended pipeline on a duplicate-expression workload",
        rows,
        ["pipeline", "bytecodes", "sqrt_ops", "divide_ops", "simulated_us"],
    )
    assert report.optimized.count(OpCode.BH_SQRT) == 1          # CSE removed the duplicate
    assert report.optimized.count(OpCode.BH_DIVIDE) == 0        # strength reduction
    assert len(report.optimized) <= len(default_report.optimized)
    SemanticVerifier().check(program, report.optimized)


def test_extended_pipeline_overhead(benchmark):
    """Optimizer wall-clock: extended pass list on a plain workload (no opportunities)."""
    program, _ = elementwise_chain(1_000, length=12)
    report = benchmark(lambda: optimize(program, extended=True))
    benchmark.group = "E10 optimizer overhead"
    default_report = optimize(program)
    # no extra opportunities: both pipelines converge to the same size
    assert len(report.optimized) == len(default_report.optimized)


def test_extended_pipeline_on_frontend_workload(benchmark):
    """End-to-end: Black-Scholes-like duplicate expressions through the front-end."""

    def run():
        pipeline = default_pipeline(extended=True)
        session = reset_session(backend="interpreter", optimize=True, pipeline=pipeline)
        bh.random.seed(11)
        spot = bh.random.uniform(80.0, 120.0, 50_000)
        log_m = bh.log(spot / 100.0)
        d1 = (log_m + 0.07) / 0.2
        d2 = (log_m + 0.03) / 0.2          # log(spot / 100) recorded twice? no — reused;
        payoff = bh.maximum(spot - 100.0, 0.0) / 2.0
        total = (d1 + d2).sum() + payoff.sum()
        value = float(total)
        return value, session.last_report

    value, report = benchmark(run)
    benchmark.group = "E10 front-end workload"
    assert np.isfinite(value)
    assert report is not None
