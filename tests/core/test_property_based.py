"""Property-based tests (hypothesis) for the transformation engine.

The central property: **for any valid byte-code program, the optimized
program computes the same observable values**.  Supporting properties cover
the addition-chain algebra and the view/overlap geometry the safety checks
rely on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bytecode.base import BaseArray
from repro.bytecode.view import View
from repro.core.addition_chains import binary_chain, naive_chain, optimal_chain, power_of_two_chain
from repro.core.constant_merge import ConstantMergePass
from repro.core.pipeline import optimize
from repro.core.power_expansion import expand_power
from repro.core.verifier import SemanticVerifier
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.program import Program
from repro.workloads.generators import random_elementwise_program
from tests.core.test_addition_chains import is_addition_chain

# The optimizer runs a full pipeline per example; keep example counts modest
# so the property suite stays fast while still covering a wide program space.
_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOptimizerPreservesSemantics:
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_programs_survive_the_full_pipeline(self, seed):
        program, synced = random_elementwise_program(seed, num_instructions=10)
        report = optimize(program)
        verifier = SemanticVerifier(rtol=1e-5, atol=1e-6, seed=seed)
        verifier.check(program, report.optimized)

    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_instructions=st.integers(min_value=1, max_value=20),
    )
    def test_optimizer_never_grows_kernel_launch_count(self, seed, num_instructions):
        program, _ = random_elementwise_program(
            seed, num_instructions=num_instructions, include_power=False
        )
        report = optimize(program)
        assert report.optimized.num_kernels() <= program.num_kernels()

    @_SETTINGS
    @given(
        constants=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=12
        )
    )
    def test_constant_merge_equals_python_sum(self, constants):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 0)
        for constant in constants:
            builder.add(v, v, float(constant))
        builder.sync(v)
        program = builder.build()
        result = ConstantMergePass().run(program)
        from repro.runtime.interpreter import NumPyInterpreter

        values = NumPyInterpreter().execute(result.program).value(v)
        assert np.allclose(values, sum(constants), rtol=1e-9, atol=1e-9)


class TestAdditionChainProperties:
    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_all_strategies_produce_valid_chains(self, n):
        for builder in (naive_chain, power_of_two_chain, binary_chain):
            chain = builder(n)
            assert is_addition_chain(chain)
            assert chain.values[-1] == n

    @given(n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_strategy_quality_ordering(self, n):
        assert (
            optimal_chain(n).num_multiplies
            <= binary_chain(n).num_multiplies
            <= power_of_two_chain(n).num_multiplies
            <= naive_chain(n).num_multiplies
        )

    @given(n=st.integers(min_value=2, max_value=64), size=st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_expansion_matches_numpy_power(self, n, size):
        builder = ProgramBuilder()
        x = builder.new_vector(size)
        y = builder.new_vector(size)
        builder.power(y, x, n)
        builder.sync(y)
        program = builder.build()
        replacement = expand_power(program[0], strategy="binary")
        expanded = Program(replacement + [program[1]])

        from repro.runtime.interpreter import NumPyInterpreter
        from repro.runtime.memory import MemoryManager

        rng = np.random.default_rng(n * 1000 + size)
        data = rng.uniform(0.5, 1.5, size)
        memory = MemoryManager()
        memory.set_data(x.base, data)
        values = NumPyInterpreter().execute(expanded, memory).value(y)
        assert np.allclose(values, data ** n, rtol=1e-9)


class TestViewGeometryProperties:
    @given(
        length=st.integers(min_value=1, max_value=64),
        start=st.integers(min_value=0, max_value=63),
        step=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_slice_views_stay_in_bounds(self, length, start, step):
        base = BaseArray(64)
        stop = min(64, start + length)
        if stop <= start:
            return
        view = View.from_slice(base, start, stop, step)
        indices = view.element_indices()
        assert all(0 <= index < 64 for index in indices)
        assert len(indices) == view.nelem

    @given(
        first_start=st.integers(min_value=0, max_value=32),
        first_len=st.integers(min_value=1, max_value=16),
        second_start=st.integers(min_value=0, max_value=32),
        second_len=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_overlap_agrees_with_exact_index_sets(
        self, first_start, first_len, second_start, second_len
    ):
        base = BaseArray(64)
        first = View(base, first_start, (first_len,))
        second = View(base, second_start, (second_len,))
        exact = bool(set(first.element_indices()) & set(second.element_indices()))
        assert first.overlaps(second) == exact
        assert second.overlaps(first) == exact
