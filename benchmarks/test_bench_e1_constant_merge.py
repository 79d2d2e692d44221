"""E1 — constant merging (paper Listings 1-3).

Paper claim: three ``BH_ADD .. 1`` byte-codes over a large tensor cost three
full traversals; merging the constants yields one ``BH_ADD .. 3`` and one
traversal.  Expected shape: the optimized program has one add instead of k,
and executes roughly k× less addition work (wall-clock gain bounded by the
fixed costs around it).
"""

import numpy as np
import pytest

from repro.bytecode.opcodes import OpCode
from repro.core.cost import CostModel
from repro.core.pipeline import optimize
from repro.runtime.interpreter import NumPyInterpreter
from repro.workloads import repeated_constant_add

from bench_report import record_table

SIZE = 1_000_000
REPEATS = (3, 8, 16)


def _execute(program, out):
    result = NumPyInterpreter().execute(program)
    return result.value(out)


@pytest.mark.parametrize("repeats", REPEATS)
def test_unoptimized_repeated_adds(benchmark, repeats):
    """Baseline: execute the k separate BH_ADD byte-codes (Listing 2)."""
    program, out = repeated_constant_add(SIZE, repeats=repeats)
    values = benchmark(_execute, program, out)
    assert np.all(values == repeats)
    benchmark.group = f"E1 constant-merge k={repeats}"
    benchmark.extra_info["bytecodes"] = len(program)
    benchmark.extra_info["adds"] = repeats


@pytest.mark.parametrize("repeats", REPEATS)
def test_optimized_merged_add(benchmark, repeats):
    """Optimized: the constants are merged into a single BH_ADD (Listing 3)."""
    program, out = repeated_constant_add(SIZE, repeats=repeats)
    report = optimize(program)
    values = benchmark(_execute, report.optimized, out)
    assert np.all(values == repeats)
    benchmark.group = f"E1 constant-merge k={repeats}"

    model = CostModel("gpu")
    rows = [
        {
            "program": "unoptimized",
            "bytecodes": len(program),
            "add_ops": program.count(OpCode.BH_ADD),
            "kernels": program.num_kernels(),
            "simulated_us": model.program_cost(program) * 1e6,
        },
        {
            "program": "optimized",
            "bytecodes": len(report.optimized),
            "add_ops": report.optimized.count(OpCode.BH_ADD),
            "kernels": report.optimized.num_kernels(),
            "simulated_us": model.program_cost(report.optimized) * 1e6,
        },
    ]
    record_table(
        benchmark,
        f"E1: Listing 2 vs Listing 3, {repeats} adds over {SIZE} elements",
        rows,
        ["program", "bytecodes", "add_ops", "kernels", "simulated_us"],
    )
    # the paper's headline shape: k adds collapse to exactly one
    assert report.optimized.count(OpCode.BH_ADD) == 1


def test_bytecode_reduction_across_vector_sizes(benchmark):
    """Instruction-count table across vector sizes (size-independent shape)."""

    def build_and_optimize():
        rows = []
        for size in (1_000, 100_000, 10_000_000):
            program, _ = repeated_constant_add(size, repeats=3)
            report = optimize(program, enabled_passes=["constant_merge"])
            rows.append(
                {
                    "size": size,
                    "before": len(program),
                    "after": len(report.optimized),
                    "merged_constant": 3,
                }
            )
        return rows

    rows = benchmark(build_and_optimize)
    benchmark.group = "E1 constant-merge optimizer overhead"
    record_table(benchmark, "E1: byte-code counts vs vector size", rows,
                 ["size", "before", "after", "merged_constant"])
    assert all(row["after"] == 3 for row in rows)
