"""Tests for the fusion pass and the rewrite-gating cost model."""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.core.cost import DEVICE_PROFILES, CostModel, DeviceProfile
from repro.core.fusion import FusionPass
from repro.core.pipeline import optimize
from repro.core.verifier import SemanticVerifier
from repro.runtime.interpreter import NumPyInterpreter
from repro.utils.errors import CostModelError
from repro.workloads import elementwise_chain, repeated_constant_add


class TestFusionPass:
    def test_chain_fused_into_single_kernel(self):
        program, out = elementwise_chain(64, length=6)
        result = FusionPass().run(program)
        assert result.changed
        fused = [i for i in result.program if i.opcode is OpCode.BH_FUSED]
        assert len(fused) == 1
        assert len(fused[0].kernel) == 7  # identity + 6 chain ops
        assert result.program.num_kernels() == 1

    def test_fused_program_computes_same_values(self):
        program, out = elementwise_chain(64, length=10)
        result = FusionPass().run(program)
        expected = NumPyInterpreter().execute(program).value(out)
        actual = NumPyInterpreter().execute(result.program).value(out)
        assert np.allclose(expected, actual)

    def test_short_chains_not_fused(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        total = builder.new_vector(1)
        builder.identity(v, 1)
        builder.add_reduce(total, v, axis=0)
        builder.sync(total)
        result = FusionPass(min_kernel_size=2).run(builder.build())
        assert not result.changed

    def test_max_kernel_size_creates_multiple_kernels(self):
        program, _ = elementwise_chain(32, length=9)  # 10 element-wise byte-codes
        result = FusionPass(max_kernel_size=4).run(program)
        fused = [i for i in result.program if i.opcode is OpCode.BH_FUSED]
        assert [len(f.kernel) for f in fused] == [4, 4, 2]

    def test_reduction_cuts_fusion(self):
        builder = ProgramBuilder()
        v = builder.new_vector(16)
        total = builder.new_vector(1)
        builder.identity(v, 1)
        builder.add(v, v, 1)
        builder.add_reduce(total, v, axis=0)
        builder.add(v, v, 1)
        builder.multiply(v, v, 2)
        builder.sync(v)
        result = FusionPass().run(builder.build())
        fused = [i for i in result.program if i.opcode is OpCode.BH_FUSED]
        assert [len(f.kernel) for f in fused] == [2, 2]
        assert result.program.count(OpCode.BH_ADD_REDUCE) == 1

    def test_fusion_preserves_semantics_of_merged_program(self):
        program, out = repeated_constant_add(32, repeats=5)
        optimized = optimize(program).optimized
        assert SemanticVerifier().equivalent(program, optimized)


class TestCostModel:
    def test_program_cost_decreases_with_optimization(self):
        program, _ = repeated_constant_add(100_000, repeats=8)
        optimized = optimize(program).optimized
        model = CostModel("gpu")
        before, after = model.program_cost(program), model.program_cost(optimized)
        assert after < before
        assert before / after > 2.0

    def test_breakdown_fields(self):
        program, _ = repeated_constant_add(1000, repeats=3)
        breakdown = CostModel("gpu").breakdown(program)
        assert breakdown.kernel_launches == 4
        assert breakdown.flops == pytest.approx(3000.0)
        assert breakdown.bytes_moved > 0
        assert breakdown.seconds > 0

    def test_one_bytecode_program_includes_launch_overhead(self):
        program, _ = repeated_constant_add(8, repeats=1)
        model = CostModel("gpu")
        one = Program([program[1]])
        assert model.program_cost(one) >= DEVICE_PROFILES["gpu"].kernel_launch_overhead_s

    def test_system_instructions_cost_nothing(self):
        program, _ = repeated_constant_add(8, repeats=1)
        sync = program[-1]
        assert sync.is_system()
        assert CostModel("gpu").program_cost(Program([sync])) == 0.0

    def test_profiles_rank_devices_sensibly(self):
        program, _ = repeated_constant_add(1_000_000, repeats=4)
        gpu = CostModel("gpu").program_cost(program)
        single = CostModel("single_core").program_cost(program)
        assert gpu < single

    def test_custom_profile_accepted(self):
        profile = DeviceProfile("laptop", 1e-6, 1e10, 1e10)
        model = CostModel(profile)
        program, _ = repeated_constant_add(100, repeats=1)
        assert model.program_cost(program) > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(CostModelError):
            CostModel("abacus")

    def test_power_to_multiply_crossover_shape(self):
        """The paper's Section 4 claim: near powers of two, multiplies win."""
        from repro.core.power_expansion import PowerExpansionPass
        from repro.workloads import power_program

        model = CostModel("gpu")
        speedups = {}
        for exponent in (8, 11):
            program, _, _ = power_program(100_000, exponent)
            expanded = PowerExpansionPass(strategy="power_of_two").run(program).program
            speedups[exponent] = model.program_cost(program) / model.program_cost(expanded)
        # an exact power of two needs only log2(n) multiplies and should show
        # a better predicted speedup than a "ragged" exponent like 11
        assert speedups[8] > speedups[11]
