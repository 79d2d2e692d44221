"""Tests for the cost model's roofline pricing.

``GPU_CHAINS`` was captured from the device-model backend before pricing
became a report of :class:`~repro.core.cost.CostModel`; the arithmetic
moved, it was not rewritten, so it holds with ``==``.  ``PRICES`` and
``BREAKDOWNS`` pin every op-code's price and each device profile's report
the same way.
"""

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OPCODE_INFO, OpCode
from repro.bytecode.operand import Constant
from repro.core.cost import (
    DEVICE_PROFILES,
    CostModel,
    DeviceProfile,
    instruction_bytes,
    instruction_flops,
    simulate_program_time,
)
from repro.core.fusion import FusionPass
from repro.runtime.kernel import Kernel, partition_into_kernels
from repro.workloads import elementwise_chain, linear_solve_program, repeated_constant_add


def simple_program(size=1000, adds=3):
    builder = ProgramBuilder()
    vector = builder.new_vector(size)
    builder.identity(vector, 0)
    for _ in range(adds):
        builder.add(vector, vector, 1)
    builder.sync(vector)
    return builder.build(), vector


# --------------------------------------------------------------------------- #
# Roofline
# --------------------------------------------------------------------------- #


class TestDeviceProfiles:
    def test_builtin_profiles_exist(self):
        assert {"gpu", "multicore", "single_core"} <= set(DEVICE_PROFILES)

    def test_roofline_takes_the_maximum(self):
        profile = DeviceProfile("test", 0.0, flops_per_second=10.0, bytes_per_second=1.0)
        assert profile.roofline_time(flops=100, bytes_moved=1) == pytest.approx(10.0)
        assert profile.roofline_time(flops=1, bytes_moved=100) == pytest.approx(100.0)


class TestInstructionCosts:
    def test_flops_scale_with_elements(self):
        program, _ = simple_program(size=1000, adds=1)
        add = program[1]
        assert instruction_flops(add) == 1000.0

    def test_power_is_much_more_expensive_than_multiply(self):
        builder = ProgramBuilder()
        x = builder.new_vector(100)
        y = builder.new_vector(100)
        builder.power(y, x, 10)
        builder.multiply(y, y, x)
        program = builder.build()
        assert instruction_flops(program[0]) > 10 * instruction_flops(program[1])

    def test_extension_flop_models(self):
        builder = ProgramBuilder()
        a = builder.new_matrix(10, 10)
        b = builder.new_vector(10)
        inv = builder.new_matrix(10, 10)
        x = builder.new_vector(10)
        builder.matrix_inverse(inv, a)
        builder.lu_solve(x, a, b)
        program = builder.build()
        inverse_flops = instruction_flops(program[0])
        solve_flops = instruction_flops(program[1])
        assert inverse_flops == pytest.approx(2.0 * 10 ** 3)
        # LU solve is roughly a third of the inversion cost for one RHS.
        assert solve_flops < inverse_flops / 2

    def test_system_instructions_are_free(self):
        program, vector = simple_program()
        sync = program[-1]
        assert instruction_flops(sync) == 0.0
        assert instruction_bytes(sync) == 0.0

    def test_fused_bytes_count_each_operand_once(self):
        program, vector = simple_program(size=1000, adds=3)
        kernel = [k for k in partition_into_kernels(program) if isinstance(k, Kernel)][0]
        fused = kernel.as_instruction()
        # One distinct view of 1000 float64 elements = 8000 bytes.
        assert instruction_bytes(fused) == 8000.0
        # Unfused, the same byte-codes move 7 views' worth of data.
        unfused_total = sum(instruction_bytes(instr) for instr in kernel.instructions)
        assert unfused_total == 7 * 8000.0

    def test_unknown_opcode_raises_cost_model_error(self):
        builder = ProgramBuilder()
        v = builder.new_matrix(2, 2)
        src = builder.new_matrix(2, 2)
        lu = Instruction(OpCode.BH_LU, (v, src))
        assert instruction_flops(lu) > 0  # BH_LU is modelled
        fused_without_payload = Instruction(OpCode.BH_NONE, ())
        assert instruction_flops(fused_without_payload) == 0.0


class TestProgramTime:
    def test_fewer_instructions_cost_less(self):
        long_program, _ = simple_program(size=100_000, adds=8)
        short_program, _ = simple_program(size=100_000, adds=1)
        profile = DEVICE_PROFILES["gpu"]
        assert simulate_program_time(short_program, profile) < simulate_program_time(
            long_program, profile
        )

    def test_launch_overhead_dominates_small_arrays(self):
        tiny, _ = simple_program(size=8, adds=4)
        profile = DEVICE_PROFILES["gpu"]
        total = simulate_program_time(tiny, profile)
        launches = 5  # identity + 4 adds
        assert total == pytest.approx(launches * profile.kernel_launch_overhead_s, rel=0.05)

    def test_program_cost_is_the_roofline_sum(self):
        program, _ = simple_program(size=64, adds=2)
        model = CostModel("gpu")
        assert model.program_cost(program) == simulate_program_time(program, model.profile)


# --------------------------------------------------------------------------- #
# Pinned prices
# --------------------------------------------------------------------------- #

#: E6's chain lengths over 10 000 elements on ``gpu``: (unfused, fused) seconds.
GPU_CHAINS = {
    2: (3.133333333333334e-05, 1.0266666666666668e-05),
    4: (5.240000000000001e-05, 1.0266666666666668e-05),
    8: (9.453333333333336e-05, 1.0266666666666668e-05),
    16: (0.00017880000000000004, 1.0266666666666668e-05),
    32: (0.0003473333333333334, 1.0266666666666668e-05),
}


@pytest.mark.parametrize("length", sorted(GPU_CHAINS))
def test_program_prices_are_pinned(length):
    program, _ = elementwise_chain(10_000, length=length)
    fused = FusionPass(max_kernel_size=64).run(program).program
    model = CostModel("gpu")
    assert (model.program_cost(program), model.program_cost(fused)) == GPU_CHAINS[length]


# --------------------------------------------------------------------------- #
# Every op-code has a price
# --------------------------------------------------------------------------- #


def _sample(opcode):
    """One byte-code of ``opcode`` over 100-element float64 operands."""
    builder = ProgramBuilder()
    info = OPCODE_INFO[opcode]
    if opcode is OpCode.BH_NONE:
        return Instruction(opcode, ())
    if info.system:
        return Instruction(opcode, (builder.new_vector(100),))
    if opcode is OpCode.BH_FUSED:
        program, _ = simple_program(size=100, adds=3)
        kernel = [k for k in partition_into_kernels(program) if isinstance(k, Kernel)][0]
        return kernel.as_instruction()
    if info.reduction:
        operands = (builder.new_vector(10), builder.new_matrix(10, 10), Constant(1))
    elif opcode is OpCode.BH_RANGE:
        operands = (builder.new_vector(100),)
    elif opcode is OpCode.BH_RANDOM:
        operands = (builder.new_vector(100), Constant(7))
    elif opcode is OpCode.BH_LU_SOLVE:
        operands = (builder.new_vector(10), builder.new_matrix(10, 10), builder.new_vector(10))
    elif info.extension:
        operands = tuple(builder.new_matrix(10, 10) for _ in range(info.num_operands))
    else:
        operands = tuple(builder.new_vector(100) for _ in range(info.num_operands))
    return Instruction(opcode, operands)


#: (flops, bytes) of :func:`_sample` for every op-code.  The flop column is
#: ``FLOP_WEIGHTS`` (or the extension's closed form) at 100 output elements,
#: so a changed weight shows here and in the CLI's ``--profile`` report.
PRICES = {
    OpCode.BH_IDENTITY: (0.0, 1600.0),
    OpCode.BH_ADD: (100.0, 2400.0),
    OpCode.BH_SUBTRACT: (100.0, 2400.0),
    OpCode.BH_MULTIPLY: (100.0, 2400.0),
    OpCode.BH_DIVIDE: (400.0, 2400.0),
    OpCode.BH_POWER: (15000.0, 2400.0),
    OpCode.BH_MOD: (400.0, 2400.0),
    OpCode.BH_NEGATIVE: (100.0, 1600.0),
    OpCode.BH_ABSOLUTE: (100.0, 1600.0),
    OpCode.BH_RECIPROCAL: (400.0, 1600.0),
    OpCode.BH_SQRT: (800.0, 1600.0),
    OpCode.BH_EXP: (2000.0, 1600.0),
    OpCode.BH_LOG: (2000.0, 1600.0),
    OpCode.BH_SIN: (2000.0, 1600.0),
    OpCode.BH_COS: (2000.0, 1600.0),
    OpCode.BH_TAN: (2400.0, 1600.0),
    OpCode.BH_ARCSIN: (2400.0, 1600.0),
    OpCode.BH_ARCCOS: (2400.0, 1600.0),
    OpCode.BH_ARCTAN: (2400.0, 1600.0),
    OpCode.BH_ERF: (3000.0, 1600.0),
    OpCode.BH_MAXIMUM: (100.0, 2400.0),
    OpCode.BH_MINIMUM: (100.0, 2400.0),
    OpCode.BH_GREATER: (100.0, 2400.0),
    OpCode.BH_GREATER_EQUAL: (100.0, 2400.0),
    OpCode.BH_LESS: (100.0, 2400.0),
    OpCode.BH_LESS_EQUAL: (100.0, 2400.0),
    OpCode.BH_EQUAL: (100.0, 2400.0),
    OpCode.BH_NOT_EQUAL: (100.0, 2400.0),
    OpCode.BH_LOGICAL_AND: (100.0, 2400.0),
    OpCode.BH_LOGICAL_OR: (100.0, 2400.0),
    OpCode.BH_LOGICAL_NOT: (100.0, 1600.0),
    OpCode.BH_ADD_REDUCE: (10.0, 880.0),
    OpCode.BH_MULTIPLY_REDUCE: (10.0, 880.0),
    OpCode.BH_MAXIMUM_REDUCE: (10.0, 880.0),
    OpCode.BH_MINIMUM_REDUCE: (10.0, 880.0),
    OpCode.BH_RANGE: (100.0, 800.0),
    OpCode.BH_RANDOM: (1000.0, 800.0),
    OpCode.BH_MATMUL: (2000.0, 2400.0),
    OpCode.BH_MATRIX_INVERSE: (2000.0, 1600.0),
    OpCode.BH_LU: (666.6666666666666, 1600.0),
    OpCode.BH_LU_SOLVE: (866.6666666666666, 960.0),
    OpCode.BH_TRANSPOSE: (0.0, 1600.0),
    OpCode.BH_FUSED: (300.0, 800.0),
    OpCode.BH_SYNC: (0.0, 0.0),
    OpCode.BH_FREE: (0.0, 0.0),
    OpCode.BH_NONE: (0.0, 0.0),
}


def test_the_price_table_covers_every_opcode():
    assert set(PRICES) == set(OpCode)


@pytest.mark.parametrize("opcode", sorted(PRICES, key=lambda op: op.value), ids=lambda op: op.value)
def test_every_opcode_is_priced(opcode):
    instruction = _sample(opcode)
    assert (instruction_flops(instruction), instruction_bytes(instruction)) == PRICES[opcode]


# --------------------------------------------------------------------------- #
# Pinned breakdowns, one per device profile
# --------------------------------------------------------------------------- #

#: ``CostModel(profile).breakdown(program)`` of three programs on each
#: built-in profile: (kernel_launches, flops, bytes_moved, seconds).
BREAKDOWNS = {
    ('gpu', 'chain16'): (17, 16000000.0, 264000000.0, 0.00105),
    ('gpu', 'constant_add8'): (9, 8000000.0, 136000000.0, 0.0005433333333333333),
    ('gpu', 'linear_solve128'): (2, 4227072.0, 395264.0, 2.1492309333333335e-05),
    ('multicore', 'chain16'): (17, 16000000.0, 264000000.0, 0.0066339999999999975),
    ('multicore', 'constant_add8'): (9, 8000000.0, 136000000.0, 0.003418),
    ('multicore', 'linear_solve128'): (2, 4227072.0, 395264.0, 2.829952e-05),
    ('single_core', 'chain16'): (17, 16000000.0, 264000000.0, 0.013208499999999995),
    ('single_core', 'constant_add8'): (9, 8000000.0, 136000000.0, 0.0068045),
    ('single_core', 'linear_solve128'): (2, 4227072.0, 395264.0, 0.00014746613333333335),
}


def _breakdown_program(name):
    if name == "chain16":
        return elementwise_chain(1_000_000, length=16)[0]
    if name == "constant_add8":
        return repeated_constant_add(1_000_000, repeats=8)[0]
    return linear_solve_program(128)[0]


@pytest.mark.parametrize("profile, name", sorted(BREAKDOWNS))
def test_profile_breakdowns_are_pinned(profile, name):
    breakdown = CostModel(profile).breakdown(_breakdown_program(name))
    assert (
        breakdown.kernel_launches,
        breakdown.flops,
        breakdown.bytes_moved,
        breakdown.seconds,
    ) == BREAKDOWNS[(profile, name)]
