"""E2 — power expansion (paper Equation 1, Listings 4-5).

Paper claim: ``BH_POWER`` with a natural exponent can be replaced by
``BH_MULTIPLY`` chains; the naive chain needs n-1 multiplies (Listing 4),
reusing the result tensor needs only ~log2(n) (Listing 5), and the expansion
is worthwhile because the pow kernel is much more expensive per element than
a multiply.  Expected shape: expanded variants beat ``BH_POWER`` in
wall-clock for moderate exponents, and Listing 5 beats Listing 4.
"""

import numpy as np
import pytest

from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.core.cost import CostModel
from repro.core.power_expansion import expand_power
from repro.runtime.interpreter import NumPyInterpreter
from repro.workloads import power_program

from bench_report import record_table

SIZE = 1_000_000
EXPONENT = 10


def _expanded_program(program, strategy):
    replacement = expand_power(program[0], strategy=strategy)
    return Program(replacement + list(program[1:]))


def _run(program, out, memory):
    return NumPyInterpreter().execute(program, memory.clone()).value(out)


def test_bh_power_baseline(benchmark):
    """Baseline: the un-expanded BH_POWER kernel (transcendental pow)."""
    program, out, memory = power_program(SIZE, EXPONENT)
    values = benchmark(_run, program, out, memory)
    benchmark.group = f"E2 x^{EXPONENT} over {SIZE} elements"
    benchmark.extra_info["multiplies"] = 0
    assert np.isfinite(values).all()


@pytest.mark.parametrize("strategy, expected_multiplies", [("naive", 9), ("power_of_two", 5), ("binary", 4)])
def test_expanded_power(benchmark, strategy, expected_multiplies):
    """Expanded variants: Listing 4 (naive), Listing 5 (result reuse), binary."""
    program, out, memory = power_program(SIZE, EXPONENT)
    expanded = _expanded_program(program, strategy)
    assert expanded.count(OpCode.BH_MULTIPLY) == expected_multiplies

    reference = _run(program, out, memory)
    values = benchmark(_run, expanded, out, memory)
    assert np.allclose(values, reference, rtol=1e-10)

    benchmark.group = f"E2 x^{EXPONENT} over {SIZE} elements"
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["multiplies"] = expected_multiplies

    model = CostModel("multicore")
    record_table(
        benchmark,
        f"E2: strategy={strategy}",
        [
            {
                "strategy": "BH_POWER",
                "multiplies": 0,
                "bytecodes": len(program),
                "simulated_us": model.program_cost(program) * 1e6,
            },
            {
                "strategy": strategy,
                "multiplies": expected_multiplies,
                "bytecodes": len(expanded),
                "simulated_us": model.program_cost(expanded) * 1e6,
            },
        ],
        ["strategy", "multiplies", "bytecodes", "simulated_us"],
    )


def test_instruction_count_table(benchmark):
    """Listing 4 vs Listing 5 instruction counts across exponents (no execution)."""

    def build():
        rows = []
        for exponent in (2, 4, 8, 10, 16, 32, 64):
            program, _, _ = power_program(8, exponent)
            rows.append(
                {
                    "exponent": exponent,
                    "naive (Listing 4)": len(expand_power(program[0], strategy="naive")),
                    "paper (Listing 5)": len(expand_power(program[0], strategy="power_of_two")),
                    "binary": len(expand_power(program[0], strategy="binary")),
                }
            )
        return rows

    rows = benchmark(build)
    benchmark.group = "E2 instruction counts"
    record_table(
        benchmark,
        "E2: multiplies needed per strategy",
        rows,
        ["exponent", "naive (Listing 4)", "paper (Listing 5)", "binary"],
    )
    ten = [row for row in rows if row["exponent"] == 10]
    # the exact numbers quoted in the paper for x^10: 9 vs 5
    assert ten == [] or (ten[0]["naive (Listing 4)"] == 9 and ten[0]["paper (Listing 5)"] == 5)
