"""End-to-end integration tests across backends, optimizer and front-end."""

import numpy as np
import pytest

from repro import frontend as bh
from repro.core.pipeline import default_pipeline, optimize
from repro.core.verifier import SemanticVerifier
from repro.frontend.session import reset_session
from repro.runtime import NumPyInterpreter, ParallelBackend
from repro.runtime.engine import ExecutionEngine
from repro.workloads import (
    elementwise_chain,
    linear_solve_program,
    power_program,
    repeated_constant_add,
    random_elementwise_program,
)

ALL_BACKENDS = [NumPyInterpreter, ParallelBackend]


class TestBackendsAgree:
    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_constant_add_workload(self, backend_cls):
        program, out = repeated_constant_add(512, repeats=4)
        reference = NumPyInterpreter().execute(program).value(out)
        assert np.allclose(backend_cls().execute(program).value(out), reference)

    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_optimized_programs_give_identical_results(self, backend_cls):
        program, out = elementwise_chain(256, length=10)
        optimized = optimize(program).optimized
        reference = NumPyInterpreter().execute(program).value(out)
        assert np.allclose(backend_cls().execute(optimized).value(out), reference)

    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_random_programs_agree_across_backends(self, seed):
        program, synced = random_elementwise_program(seed, num_instructions=8)
        results = {}
        for backend_cls in ALL_BACKENDS:
            result = backend_cls().execute(program)
            results[backend_cls.__name__] = [result.value(view) for view in synced]
        baseline = results["NumPyInterpreter"]
        for name, values in results.items():
            for expected, actual in zip(baseline, values):
                assert np.allclose(expected, actual, equal_nan=True), name


class TestOptimizerEndToEnd:
    def test_every_workload_survives_verification(self):
        workloads = [
            repeated_constant_add(64, repeats=6)[0],
            elementwise_chain(64, length=12)[0],
            power_program(64, 11)[0],
            linear_solve_program(12)[0],
        ]
        verifier = SemanticVerifier()
        for program in workloads:
            report = optimize(program)
            verifier.check(program, report.optimized)

    def test_optimizer_reduces_kernel_count_on_all_workloads(self):
        workloads = [
            repeated_constant_add(64, repeats=6)[0],
            elementwise_chain(64, length=12)[0],
        ]
        for program in workloads:
            report = optimize(program)
            assert report.optimized.num_kernels() < program.num_kernels()
        # the power workload starts as a single kernel; expansion plus fusion
        # must not increase the launch count while removing the pow op
        program, _, _ = power_program(64, 16)
        report = optimize(program)
        assert report.optimized.num_kernels() <= program.num_kernels()
        from repro.bytecode.opcodes import OpCode

        assert report.optimized.count(OpCode.BH_POWER, include_fused=True) == 0

    def test_verification_through_an_engine_pipeline(self):
        program, _ = repeated_constant_add(32, repeats=3)
        engine = ExecutionEngine(
            backend="interpreter", optimize=True, pipeline=default_pipeline(verify=True)
        )
        engine.execute(program)
        assert engine.last_report.verified is True


class TestFrontendAcrossBackends:
    @pytest.mark.parametrize("backend_name", ["interpreter", "parallel"])
    def test_same_script_same_answer(self, backend_name):
        reset_session(backend=backend_name, optimize=True)
        bh.random.seed(31)
        x = bh.random.random(1000)
        y = (x * 2.0 + 1.0) ** 3
        total = float(y.sum())
        reset_session(backend="interpreter", optimize=False)
        bh.random.seed(31)
        x_ref = bh.random.random(1000)
        y_ref = (x_ref * 2.0 + 1.0) ** 3
        assert total == pytest.approx(float(y_ref.sum()), rel=1e-9)

    def test_multi_flush_session_consistency(self):
        session = reset_session(backend="parallel", optimize=True)
        a = bh.zeros(64)
        a += 1
        first = a.to_numpy()
        b = a * 10
        second = b.to_numpy()
        a += 1
        third = a.to_numpy()
        assert np.all(first == 1.0)
        assert np.all(second == 10.0)
        assert np.all(third == 2.0)
        assert session.flush_count == 3

    def test_optimizer_and_no_optimizer_agree_on_mixed_pipeline(self):
        def pipeline():
            bh.random.seed(77)
            data = bh.random.random(2000)
            shifted = data - 0.5
            squared = shifted ** 2
            scaled = squared * 4.0 + 1.0
            return float(scaled.sum()), float(scaled.max())

        reset_session(backend="interpreter", optimize=False)
        expected = pipeline()
        reset_session(backend="interpreter", optimize=True)
        actual = pipeline()
        assert actual == pytest.approx(expected, rel=1e-9)
