"""E4 — the pow-vs-multiply crossover (paper Section 4).

Paper claim: "for values close to a power of 2, multiplying multiple times is
faster than doing an actual BH_POWER", which is why Bohrium enables the
expansion by default.  This benchmark sweeps exponents, measures wall-clock
for the pow kernel versus the expanded multiply chain, and also reports the
cost-model prediction (on the compute-bound single-core profile, where the
transcendental cost of BH_POWER dominates).  Expected shape: the expansion's
advantage peaks at exact powers of two and shrinks as the chain gets longer
between them.

Assertions are made against the deterministic cost model and the expansion's
instruction counts; the measured wall-clock columns are reported for
inspection only (they depend on the host's NumPy build and timing noise).
"""

import numpy as np
import pytest

from repro.bytecode.program import Program
from repro.core.cost import CostModel
from repro.core.power_expansion import expand_power
from repro.runtime.interpreter import NumPyInterpreter
from repro.workloads import power_program

from bench_report import record_table

SIZE = 500_000
SWEEP = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def _measure(program, out, memory, repeats=3):
    times = []
    for _ in range(repeats):
        result = NumPyInterpreter().execute(program, memory.clone())
        times.append(result.stats.wall_time_seconds)
    return min(times), result.value(out)


@pytest.mark.parametrize("exponent", (8, 10))
def test_crossover_single_exponent(benchmark, exponent):
    """Wall-clock for the expanded chain at one exponent (pytest-benchmark timing)."""
    program, out, memory = power_program(SIZE, exponent)
    expanded = Program(expand_power(program[0], strategy="power_of_two") + list(program[1:]))

    def run():
        return NumPyInterpreter().execute(expanded, memory.clone()).value(out)

    values = benchmark(run)
    reference = NumPyInterpreter().execute(program, memory.clone()).value(out)
    assert np.allclose(values, reference, rtol=1e-10)
    benchmark.group = f"E4 expanded x^{exponent}"


def test_crossover_sweep(benchmark):
    """The full speedup-vs-exponent curve (measured once inside the benchmark)."""

    def sweep():
        model = CostModel("single_core")
        rows = []
        for exponent in SWEEP:
            program, out, memory = power_program(SIZE, exponent)
            expanded = Program(
                expand_power(program[0], strategy="power_of_two") + list(program[1:])
            )
            pow_time, pow_values = _measure(program, out, memory)
            mul_time, mul_values = _measure(expanded, out, memory)
            assert np.allclose(pow_values, mul_values, rtol=1e-10)
            rows.append(
                {
                    "exponent": exponent,
                    "is_pow2": int(exponent & (exponent - 1) == 0),
                    "multiplies": len(expanded) - len(program) + 1,
                    "pow_ms": pow_time * 1e3,
                    "expanded_ms": mul_time * 1e3,
                    "measured_speedup": pow_time / mul_time,
                    "predicted_speedup": model.program_cost(program)
                    / model.program_cost(expanded),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.group = "E4 crossover sweep"
    record_table(
        benchmark,
        "E4: BH_POWER vs multiply expansion across exponents",
        rows,
        [
            "exponent",
            "is_pow2",
            "multiplies",
            "pow_ms",
            "expanded_ms",
            "measured_speedup",
            "predicted_speedup",
        ],
    )

    by_exponent = {row["exponent"]: row for row in rows}
    # Paper shape, asserted on the deterministic cost model: at powers of two
    # the expansion wins outright, and exact powers of two show a larger
    # advantage than their ragged neighbours (whose addition chains are
    # longer).  The squaring chain lengths themselves are exact.
    assert by_exponent[8]["multiplies"] == 3
    assert by_exponent[16]["multiplies"] == 4
    assert by_exponent[12]["multiplies"] > by_exponent[16]["multiplies"]
    assert by_exponent[8]["predicted_speedup"] > 1.0
    assert by_exponent[16]["predicted_speedup"] > 1.0
    assert by_exponent[8]["predicted_speedup"] > by_exponent[12]["predicted_speedup"]
    assert by_exponent[16]["predicted_speedup"] > by_exponent[24]["predicted_speedup"]
