"""E5 — the context-aware linear-solve rewrite (paper Equation 2).

Paper claim: solving ``A x = b`` via an LU factorisation is usually faster
than forming ``inv(A)`` and multiplying, and the byte-code idiom can be
rewritten automatically — but only when the inverse is not used for anything
else.  Expected shape: the rewritten program wins by roughly the 3x flop
ratio (growing with N), and the reuse variant is left untouched.
"""

import numpy as np
import pytest

from repro.bytecode.opcodes import OpCode
from repro.core.cost import CostModel
from repro.core.pipeline import optimize
from repro.runtime.interpreter import NumPyInterpreter
from repro.workloads import linear_solve_program

from bench_report import record_table

SIZES = (64, 128, 256)


def _run(program, solution, memory):
    return NumPyInterpreter().execute(program, memory.clone()).value(solution)


@pytest.mark.parametrize("n", SIZES)
def test_inverse_based_solve(benchmark, n):
    """Baseline: execute the inv(A) @ b idiom as written."""
    program, solution, memory = linear_solve_program(n, seed=n)
    values = benchmark(_run, program, solution, memory)
    benchmark.group = f"E5 linear solve N={n}"
    matrix = memory.read_view(program[0].input_views[0])
    rhs = memory.read_view(program[1].input_views[1])
    assert np.allclose(values, np.linalg.solve(matrix, rhs), atol=1e-6)


@pytest.mark.parametrize("n", SIZES)
def test_lu_rewritten_solve(benchmark, n):
    """Optimized: the idiom rewritten to a single BH_LU_SOLVE."""
    program, solution, memory = linear_solve_program(n, seed=n)
    report = optimize(program)
    assert report.optimized.count(OpCode.BH_LU_SOLVE) == 1
    assert report.optimized.count(OpCode.BH_MATRIX_INVERSE) == 0

    values = benchmark(_run, report.optimized, solution, memory)
    benchmark.group = f"E5 linear solve N={n}"
    reference = _run(program, solution, memory)
    assert np.allclose(values, reference, atol=1e-6)

    model = CostModel("multicore")
    record_table(
        benchmark,
        f"E5: N={n}",
        [
            {
                "program": "inv(A) @ b",
                "bytecodes": len(program),
                "flops_model": model.breakdown(program).flops,
                "simulated_ms": model.program_cost(program) * 1e3,
            },
            {
                "program": "BH_LU_SOLVE",
                "bytecodes": len(report.optimized),
                "flops_model": model.breakdown(report.optimized).flops,
                "simulated_ms": model.program_cost(report.optimized) * 1e3,
            },
        ],
        ["program", "bytecodes", "flops_model", "simulated_ms"],
    )
    # the ~3x flop gap of the paper's argument
    assert (
        model.breakdown(program).flops / model.breakdown(report.optimized).flops > 2.0
    )


def test_reuse_blocks_rewrite(benchmark):
    """Negative control: when the inverse is reused the program must not change."""

    def optimize_reuse():
        program, _, _ = linear_solve_program(64, reuse_inverse=True)
        report = optimize(program)
        return program, report

    program, report = benchmark(optimize_reuse)
    benchmark.group = "E5 rewrite safety"
    assert report.optimized.count(OpCode.BH_MATRIX_INVERSE) == 1
    assert report.optimized.count(OpCode.BH_LU_SOLVE) == 0
    record_table(
        benchmark,
        "E5: reuse-of-inverse control",
        [
            {
                "case": "inverse reused",
                "inverse_ops": report.optimized.count(OpCode.BH_MATRIX_INVERSE),
                "lu_solve_ops": report.optimized.count(OpCode.BH_LU_SOLVE),
            }
        ],
        ["case", "inverse_ops", "lu_solve_ops"],
    )
