"""E6 — loop-fusion-like contraction of element-wise chains.

Paper claim (Section 2): transformations can be "small loop-fusion-like
contractions of byte-codes".  Expected shape: fusing a chain of k
element-wise byte-codes into one kernel reduces kernel launches from k to 1
and reduces simulated memory traffic (each operand streamed once); the
measured gain grows with chain length, and the tiled parallel backend, left
to schedule an unfused program itself, shows the same effect as the fusion
pass.
"""

import numpy as np
import pytest

from repro.bytecode.opcodes import OpCode
from repro.core.cost import CostModel
from repro.core.fusion import FusionPass
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.parallel import ParallelBackend
from repro.workloads import elementwise_chain

from conftest import record_table

SIZE = 500_000
CHAIN_LENGTHS = (4, 16)


def _run(backend, program, out):
    return backend.execute(program).value(out)


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_unfused_chain(benchmark, length):
    """Baseline: each element-wise byte-code is its own kernel launch."""
    program, out = elementwise_chain(SIZE, length=length)
    values = benchmark(_run, NumPyInterpreter(), program, out)
    benchmark.group = f"E6 chain length {length}"
    assert np.isfinite(values).all()


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_fused_chain(benchmark, length):
    """Fused: the whole chain wrapped into one BH_FUSED kernel."""
    program, out = elementwise_chain(SIZE, length=length)
    fused = FusionPass().run(program).program
    assert fused.num_kernels() == 1

    reference = NumPyInterpreter().execute(program).value(out)
    values = benchmark(_run, NumPyInterpreter(), fused, out)
    assert np.allclose(values, reference)
    benchmark.group = f"E6 chain length {length}"

    model = CostModel("gpu")
    record_table(
        benchmark,
        f"E6: chain of {length} element-wise byte-codes over {SIZE} elements",
        [
            {
                "program": "unfused",
                "kernel_launches": program.num_kernels(),
                "bytes_modelled": model.breakdown(program).bytes_moved,
                "simulated_us": model.program_cost(program) * 1e6,
            },
            {
                "program": "fused",
                "kernel_launches": fused.num_kernels(),
                "bytes_modelled": model.breakdown(fused).bytes_moved,
                "simulated_us": model.program_cost(fused) * 1e6,
            },
        ],
        ["program", "kernel_launches", "bytes_modelled", "simulated_us"],
    )
    assert model.program_cost(fused) < model.program_cost(program)


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_planless_parallel_backend(benchmark, length):
    """The runtime-side fuser (plan-less ``ParallelBackend().execute``) shows
    the same contraction."""
    program, out = elementwise_chain(SIZE, length=length)
    backend = ParallelBackend()
    values = benchmark(_run, backend, program, out)
    benchmark.group = f"E6 chain length {length}"
    result = backend.execute(program)
    assert result.stats.kernel_launches < program.num_kernels()
    assert np.allclose(values, NumPyInterpreter().execute(program).value(out))


def test_simulated_speedup_vs_chain_length(benchmark):
    """Modelled GPU speedup curve as the fusable chain grows."""

    def sweep():
        rows = []
        model = CostModel("gpu")
        for length in (2, 4, 8, 16, 32):
            program, _ = elementwise_chain(10_000, length=length)
            # raise the kernel-size cap so the longest chain still fuses into
            # one kernel and the curve isolates the chain-length effect
            fused = FusionPass(max_kernel_size=64).run(program).program
            rows.append(
                {
                    "chain_length": length,
                    "kernels_before": program.num_kernels(),
                    "kernels_after": fused.num_kernels(),
                    "simulated_speedup": model.program_cost(program)
                    / model.program_cost(fused),
                }
            )
        return rows

    rows = benchmark(sweep)
    benchmark.group = "E6 fusion scaling"
    record_table(
        benchmark,
        "E6: simulated speedup vs chain length (GPU profile)",
        rows,
        ["chain_length", "kernels_before", "kernels_after", "simulated_speedup"],
    )
    speedups = [row["simulated_speedup"] for row in rows]
    assert all(later >= earlier for earlier, later in zip(speedups, speedups[1:]))
