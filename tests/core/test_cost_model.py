"""Tests for the cost model's roofline, interconnect and partitioned pricing.

The pinned tables at the end were captured from the partitioned executor
and the device-model backend before pricing became a report of
:class:`~repro.core.cost.CostModel`; the arithmetic moved, it was not
rewritten, so they hold with ``==``.
"""

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.core.cost import (
    DEVICE_PROFILES,
    CommunicationModel,
    CostModel,
    DeviceProfile,
    instruction_bytes,
    instruction_flops,
    measured_comm_model,
    simulate_program_time,
)
from repro.core.fusion import FusionPass
from repro.core.pipeline import optimize
from repro.runtime.kernel import Kernel, partition_into_kernels
from repro.utils.errors import ClusterError, CostModelError
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
# Interconnect
# --------------------------------------------------------------------------- #


@pytest.fixture
def model():
    return CommunicationModel(latency_s=5e-6, bytes_per_second=10e9)


class TestPointToPoint:
    def test_latency_plus_bandwidth(self):
        comm = CommunicationModel(latency_s=1e-6, bytes_per_second=1e9)
        assert comm.point_to_point(1e9) == pytest.approx(1.000001)

    def test_zero_bytes_still_pays_latency(self, model):
        assert model.point_to_point(0) == pytest.approx(model.latency_s)

    def test_monotone_in_message_size(self, model):
        sizes = [0, 1, 64, 4096, 1 << 20, 1 << 28]
        costs = [model.point_to_point(size) for size in sizes]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_bandwidth_term_dominates_large_messages(self, model):
        nbytes = 1 << 30
        assert model.point_to_point(nbytes) == pytest.approx(
            nbytes / model.bytes_per_second, rel=1e-2
        )


class TestCollectives:
    @pytest.mark.parametrize("collective", ["gather", "scatter", "broadcast", "allreduce"])
    def test_single_worker_is_free(self, model, collective):
        assert getattr(model, collective)(1, 1 << 20) == 0.0

    @pytest.mark.parametrize("collective", ["gather", "scatter", "broadcast", "allreduce"])
    def test_monotone_in_workers(self, model, collective):
        costs = [getattr(model, collective)(workers, 4096) for workers in (1, 2, 4, 8, 16)]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    @pytest.mark.parametrize("collective", ["gather", "scatter", "broadcast", "allreduce"])
    def test_monotone_in_bytes(self, model, collective):
        costs = [
            getattr(model, collective)(4, nbytes) for nbytes in (0, 64, 4096, 1 << 20)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_zero_byte_collectives_price_only_latency_rounds(self, model):
        # Even empty messages pay per-round latency — the model must never
        # return a free multi-worker exchange.
        for workers in (2, 4, 8):
            assert model.gather(workers, 0) > 0.0
            assert model.broadcast(workers, 0) > 0.0
            assert model.allreduce(workers, 0) > 0.0

    def test_gather_scales_linearly_with_workers(self):
        comm = CommunicationModel(latency_s=0.0, bytes_per_second=1e9)
        assert comm.gather(5, 1000) == pytest.approx(4 * comm.point_to_point(1000))

    def test_broadcast_scales_logarithmically(self):
        comm = CommunicationModel(latency_s=1e-6, bytes_per_second=1e12)
        assert comm.broadcast(8, 10) == pytest.approx(3 * comm.point_to_point(10))
        assert comm.allreduce(8, 10) == pytest.approx(6 * comm.point_to_point(10))

    def test_scatter_matches_gather(self, model):
        assert model.scatter(7, 1234) == model.gather(7, 1234)

    def test_allreduce_is_reduce_plus_broadcast(self, model):
        assert model.allreduce(8, 4096) == pytest.approx(2 * model.broadcast(8, 4096))


class TestCalibration:
    def test_calibrated_model_has_sane_constants(self):
        model = CommunicationModel.calibrated()
        assert model.latency_s > 0.0
        # Any machine that can run this suite copies shared memory faster
        # than 10 MB/s and slower than 10 TB/s.
        assert 1e7 < model.bytes_per_second < 1e13

    def test_probe_runs_once_and_is_cached(self):
        first = measured_comm_model()
        second = measured_comm_model()
        assert first is second
        assert CommunicationModel.calibrated() is first

    def test_calibrated_model_prices_monotonically(self):
        model = CommunicationModel.calibrated()
        assert model.point_to_point(1 << 20) > model.point_to_point(64)

    def test_no_comm_means_the_calibrated_model(self):
        program, _ = repeated_constant_add(100_000, repeats=2)
        cost = CostModel("single_core")
        assert cost.partitioned_cost(program, 4) == cost.partitioned_cost(
            program, 4, measured_comm_model()
        )


# --------------------------------------------------------------------------- #
# Partitioned pricing
# --------------------------------------------------------------------------- #


class TestPartitionedCost:
    @staticmethod
    def price(program, workers):
        return CostModel("single_core").partitioned_cost(program, workers)

    def test_more_workers_reduce_time_for_large_arrays(self):
        program, _ = elementwise_chain(2_000_000, length=8)
        assert self.price(program, 8).total_seconds < self.price(program, 1).total_seconds

    def test_scaling_is_sublinear_due_to_overheads(self):
        program, _ = elementwise_chain(1_000_000, length=8)
        speedup_8 = self.price(program, 1).total_seconds / self.price(program, 8).total_seconds
        assert 1.0 < speedup_8 < 8.0

    def test_sync_costs_communication(self):
        program, _ = repeated_constant_add(100_000, repeats=1)
        stats = self.price(program, 4)
        assert stats.sync_rounds >= 1
        assert stats.communication_seconds > 0

    def test_single_worker_has_no_communication(self):
        program, _ = repeated_constant_add(100_000, repeats=2)
        assert self.price(program, 1).communication_seconds == 0.0

    def test_extension_ops_serialise_and_communicate(self):
        program, _, _ = linear_solve_program(32)
        stats = self.price(program, 4)
        assert stats.serial_instructions == 2  # inverse + matmul
        assert stats.communication_seconds > 0

    def test_optimized_program_cheaper_partitioned(self):
        program, _ = repeated_constant_add(1_000_000, repeats=8)
        optimized = optimize(program).optimized
        assert self.price(optimized, 4).total_seconds < self.price(program, 4).total_seconds

    def test_reductions_pay_a_gather(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(100_000)
        total = builder.new_vector(1)
        builder.identity(vector, 1)
        builder.add_reduce(total, vector, axis=0)
        builder.sync(total)
        stats = self.price(builder.build(), 4)
        assert stats.sync_rounds >= 2  # reduction gather + final sync

    def test_stats_dictionary_shape(self):
        program, _ = repeated_constant_add(1000, repeats=2)
        as_dict = self.price(program, 2).as_dict()
        assert set(as_dict) == {
            "workers",
            "compute_s",
            "communication_s",
            "launch_s",
            "total_s",
            "sync_rounds",
        }
        assert as_dict["total_s"] == pytest.approx(
            as_dict["compute_s"] + as_dict["communication_s"] + as_dict["launch_s"]
        )

    def test_invalid_configuration_rejected(self):
        program, _ = repeated_constant_add(8, repeats=1)
        with pytest.raises(ClusterError):
            self.price(program, 0)
        with pytest.raises(CostModelError):
            CostModel("mainframe")


# --------------------------------------------------------------------------- #
# Pinned prices
# --------------------------------------------------------------------------- #

#: E8's three programs at 1..16 workers on ``single_core`` under the default
#: ``CommunicationModel()``: ``as_dict()`` plus (serial, parallel) counts.
PARTITIONED = {
    "chain16": {
        1: ({'workers': 1, 'compute_s': 0.013200000000000003, 'communication_s': 0.0, 'launch_s': 8.500000000000002e-06, 'total_s': 0.013208500000000003, 'sync_rounds': 1}, 0, 17),
        2: ({'workers': 2, 'compute_s': 0.006600000000000002, 'communication_s': 0.00040500000000000003, 'launch_s': 8.500000000000002e-06, 'total_s': 0.0070135000000000015, 'sync_rounds': 1}, 0, 17),
        4: ({'workers': 4, 'compute_s': 0.003300000000000001, 'communication_s': 0.0006150000000000001, 'launch_s': 8.500000000000002e-06, 'total_s': 0.003923500000000001, 'sync_rounds': 1}, 0, 17),
        8: ({'workers': 8, 'compute_s': 0.0016500000000000004, 'communication_s': 0.000735, 'launch_s': 8.500000000000002e-06, 'total_s': 0.0023935000000000002, 'sync_rounds': 1}, 0, 17),
        16: ({'workers': 16, 'compute_s': 0.0008250000000000002, 'communication_s': 0.000825, 'launch_s': 8.500000000000002e-06, 'total_s': 0.0016585000000000003, 'sync_rounds': 1}, 0, 17),
    },
    "constant_add8": {
        1: ({'workers': 1, 'compute_s': 0.006800000000000001, 'communication_s': 0.0, 'launch_s': 4.5e-06, 'total_s': 0.0068045000000000015, 'sync_rounds': 1}, 0, 9),
        2: ({'workers': 2, 'compute_s': 0.0034000000000000007, 'communication_s': 0.00040500000000000003, 'launch_s': 4.5e-06, 'total_s': 0.003809500000000001, 'sync_rounds': 1}, 0, 9),
        4: ({'workers': 4, 'compute_s': 0.0017000000000000003, 'communication_s': 0.0006150000000000001, 'launch_s': 4.5e-06, 'total_s': 0.0023195000000000004, 'sync_rounds': 1}, 0, 9),
        8: ({'workers': 8, 'compute_s': 0.0008500000000000002, 'communication_s': 0.000735, 'launch_s': 4.5e-06, 'total_s': 0.0015895, 'sync_rounds': 1}, 0, 9),
        16: ({'workers': 16, 'compute_s': 0.0004250000000000001, 'communication_s': 0.000825, 'launch_s': 4.5e-06, 'total_s': 0.0012545, 'sync_rounds': 1}, 0, 9),
    },
    "linear_solve128": {
        1: ({'workers': 1, 'compute_s': 0.00014646613333333335, 'communication_s': 0.0, 'launch_s': 1e-06, 'total_s': 0.00014746613333333335, 'sync_rounds': 3}, 2, 0),
        2: ({'workers': 2, 'compute_s': 0.00014646613333333335, 'communication_s': 2.8209600000000002e-05, 'launch_s': 1e-06, 'total_s': 0.00017567573333333335, 'sync_rounds': 3}, 2, 0),
        4: ({'workers': 4, 'compute_s': 0.00014646613333333335, 'communication_s': 6.481440000000001e-05, 'launch_s': 1e-06, 'total_s': 0.00021228053333333336, 'sync_rounds': 3}, 2, 0),
        8: ({'workers': 8, 'compute_s': 0.00014646613333333335, 'communication_s': 0.0001281168, 'launch_s': 1e-06, 'total_s': 0.0002755829333333334, 'sync_rounds': 3}, 2, 0),
        16: ({'workers': 16, 'compute_s': 0.00014646613333333335, 'communication_s': 0.00024976800000000004, 'launch_s': 1e-06, 'total_s': 0.0003972341333333334, 'sync_rounds': 3}, 2, 0),
    },
}

#: E6's chain lengths over 10 000 elements on ``gpu``: (unfused, fused) seconds.
GPU_CHAINS = {
    2: (3.133333333333334e-05, 1.0266666666666668e-05),
    4: (5.240000000000001e-05, 1.0266666666666668e-05),
    8: (9.453333333333336e-05, 1.0266666666666668e-05),
    16: (0.00017880000000000004, 1.0266666666666668e-05),
    32: (0.0003473333333333334, 1.0266666666666668e-05),
}


def _e8_program(name):
    if name == "chain16":
        return elementwise_chain(1_000_000, length=16)[0]
    if name == "constant_add8":
        return repeated_constant_add(1_000_000, repeats=8)[0]
    return linear_solve_program(128)[0]


@pytest.mark.parametrize("name", sorted(PARTITIONED))
def test_partitioned_prices_are_pinned(name):
    program = _e8_program(name)
    model = CostModel("single_core")
    for workers, (expected, serial, parallel) in PARTITIONED[name].items():
        cost = model.partitioned_cost(program, workers, CommunicationModel())
        assert cost.as_dict() == expected, workers
        assert (cost.serial_instructions, cost.parallel_instructions) == (serial, parallel)


@pytest.mark.parametrize("length", sorted(GPU_CHAINS))
def test_program_prices_are_pinned(length):
    program, _ = elementwise_chain(10_000, length=length)
    fused = FusionPass(max_kernel_size=64).run(program).program
    model = CostModel("gpu")
    assert (model.program_cost(program), model.program_cost(fused)) == GPU_CHAINS[length]
