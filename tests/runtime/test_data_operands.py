"""Data operands: declared once, abstracted by the key, filled in by ``bind``.

The contract in three parts — the op-code table says which constant
operands are data (the ``BH_RANDOM`` seed); the canonical walk encodes them
by dtype and slot and returns the operand objects beside the bases; a plan
finds each one in its optimized program *by identity*, wherever the
optimizer left it, and ``bind`` substitutes the new flush's operand of the
same slot without ever writing to the (shared) plan.
"""

import threading

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.dtypes import int32
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OPCODE_INFO, OpCode
from repro.bytecode.operand import Constant
from repro.bytecode.program import Program
from repro.core.pipeline import default_pipeline
from repro.runtime.engine import ExecutionEngine
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.kernel import kernel_structural_key
from repro.runtime.plan import (
    ExecutionPlan,
    canonical_program_key,
    canonical_program_walk,
    data_operand_positions,
    program_fingerprint,
)
from repro.utils.errors import ExecutionError


def seeded_program(*seeds, scale=2.0, length=16):
    """One generator per seed, summed into one output: ``sum(random_i) * scale``."""
    builder = ProgramBuilder()
    draws = [builder.new_vector(length) for _ in seeds]
    out = builder.new_vector(length)
    for draw, seed in zip(draws, seeds):
        builder.random(draw, seed)
    builder.identity(out, 0.0)
    for draw in draws:
        builder.add(out, out, draw)
    builder.multiply(out, out, scale)
    builder.sync(out)
    return builder.build(), out


def expected(*seeds, scale=2.0, length=16):
    return sum(np.random.default_rng(seed).random(length) for seed in seeds) * scale


class TestTheDeclaration:
    def test_only_the_generator_seed_is_data(self):
        declared = {op: info.data_operands for op, info in OPCODE_INFO.items() if info.data_operands}
        assert declared == {OpCode.BH_RANDOM: (1,)}

    def test_positions_skip_malformed_operands(self):
        program, _ = seeded_program(5)
        assert data_operand_positions(program[0]) == (1,)
        assert data_operand_positions(program[1]) == ()
        assert data_operand_positions(Instruction(OpCode.BH_RANDOM, (program[0].out,))) == ()


class TestTheKey:
    def test_seeds_are_not_identity(self):
        assert program_fingerprint(seeded_program(1, 2)[0]) == program_fingerprint(
            seeded_program(30, 40)[0]
        )

    def test_every_other_constant_still_is(self):
        # The three passes that decide on values (identity_simplify,
        # constant_merge, power_expansion) must keep seeing them in the key.
        assert program_fingerprint(seeded_program(1, scale=2.0)[0]) != program_fingerprint(
            seeded_program(1, scale=1.0)[0]
        )

    def test_the_seed_dtype_still_is(self):
        program, _ = seeded_program(1)
        narrow = Program(program)
        narrow.replace_instructions(
            [program[0].replace(operands=(program[0].out, Constant(1, int32)))]
            + list(program)[1:]
        )
        assert program_fingerprint(program) != program_fingerprint(narrow)

    def test_sharing_one_operand_object_is_structure(self):
        # Slots are numbered by identity, like bases: a program that draws
        # two generators from *one* operand cannot be rebound with two.
        distinct, _ = seeded_program(7, 7)
        shared = list(distinct)
        shared[1] = shared[1].replace(operands=(shared[1].out, shared[0].operands[1]))
        shared = Program(shared)
        assert program_fingerprint(shared) != program_fingerprint(distinct)
        assert len(canonical_program_walk(shared)[2]) == 1
        assert len(canonical_program_walk(distinct)[2]) == 2

    def test_the_walk_returns_the_operands_themselves(self):
        program, _ = seeded_program(11, 12)
        key, bases, values = canonical_program_walk(program)
        assert (key, bases) == canonical_program_key(program)
        assert values[0] is program[0].operands[1]
        assert values[1] is program[1].operands[1]

    def test_a_kernel_key_refuses_a_data_operand(self):
        # Templates and emitted C bake their constants and are shared by
        # key: a value the key abstracts must never reach one.
        program, _ = seeded_program(3)
        with pytest.raises(ExecutionError, match="data operand"):
            kernel_structural_key([program[0]])


def _plan(source, optimized):
    _, bases, values = canonical_program_walk(source)
    return ExecutionPlan(
        fingerprint="test",
        backend_name="interpreter",
        source_bases=bases,
        optimized=optimized,
        source_values=values,
    )


def _run(program, out):
    return NumPyInterpreter().execute(program).value(out)


class TestBind:
    def test_the_slot_travels_with_the_operand(self):
        """Dropped, swapped and retargeted generators keep their own seeds."""
        source, out = seeded_program(1, 2, 3)
        second, third = source[1], source[2]
        spare = ProgramBuilder().new_vector(16)
        # The "optimizer": drops the first generator, runs the third before
        # the second, and retargets the second into another base.
        optimized = Program(
            [
                third,
                second.replace(operands=(spare,) + second.operands[1:]),
                Instruction(OpCode.BH_ADD, (out, third.out, spare)),
                source[len(source) - 1],
            ]
        )
        plan = _plan(source, optimized)
        target, target_out = seeded_program(10, 20, 30)
        _, bases, values = canonical_program_walk(target)
        bound = plan.bind(bases, values)
        assert bound[0].operands[1] is target[2].operands[1]
        assert bound[1].operands[1] is target[1].operands[1]
        np.testing.assert_array_equal(
            _run(bound, target_out), expected(20, 30, scale=1.0)
        )

    def test_bind_never_writes_to_the_plan(self):
        source, out = seeded_program(1, 2)
        report = default_pipeline().run(source)
        plan = _plan(source, report.optimized)
        before = list(plan.optimized)
        for seeds in ((5, 6), (7, 8)):
            target, target_out = seeded_program(*seeds)
            _, bases, values = canonical_program_walk(target)
            np.testing.assert_allclose(
                _run(plan.bind(bases, values), target_out), expected(*seeds)
            )
        assert all(now is then for now, then in zip(plan.optimized, before))
        # Without values a bind replays the build-time ones.
        np.testing.assert_allclose(_run(plan.bind(plan.source_bases), out), expected(1, 2))

    def test_same_bases_new_values_still_rebinds(self):
        source, out = seeded_program(1)
        plan = _plan(source, source)
        fresh = (Constant(9),)
        bound = plan.bind(plan.source_bases, fresh)
        assert bound[0].operands[1] is fresh[0]
        assert plan.optimized[0].operands[1] is source[0].operands[1]
        # Same bases and the same values: the cached program as it is.
        assert plan.bind(plan.source_bases, plan.source_values).instructions == source.instructions

    def test_a_shared_operand_fills_only_its_data_positions(self):
        """One ``Constant`` object as a seed *and* as an addend: the addend
        is structure (its value is in the key) and is never substituted."""
        builder = ProgramBuilder()
        draw, out = builder.new_vector(8), builder.new_vector(8)
        both = Constant(5)
        builder.emit(OpCode.BH_RANDOM, draw, both)
        builder.emit(OpCode.BH_ADD, out, draw, both)
        builder.sync(out)
        source = builder.build()
        plan = _plan(source, source)
        fresh = (Constant(6),)
        bound = plan.bind(plan.source_bases, fresh)
        assert bound[0].operands[1] is fresh[0]
        assert bound[1].operands[2] is both

    def test_mismatched_value_count_is_refused(self):
        source, _ = seeded_program(1, 2)
        plan = _plan(source, source)
        with pytest.raises(ExecutionError):
            plan.bind(plan.source_bases, (Constant(1),))

    def test_a_rebuilt_operand_is_refused_at_build_time(self):
        """A pass that re-creates a data operand has read (or copied) one
        flush's value; the plan says so instead of replaying it forever."""
        source, _ = seeded_program(1)
        rebuilt = Program(
            [source[0].replace(operands=(source[0].out, Constant(1)))] + list(source)[1:]
        )
        with pytest.raises(ExecutionError, match="not one of the source program's"):
            _plan(source, rebuilt)

    def test_a_plan_built_without_values_adopts_its_own(self):
        source, _ = seeded_program(1, 2)
        _, bases = canonical_program_key(source)
        plan = ExecutionPlan(
            fingerprint="test", backend_name="interpreter", source_bases=bases, optimized=source
        )
        assert plan.source_values == canonical_program_walk(source)[2]


class TestTheEngine:
    @pytest.mark.parametrize("backend", ["interpreter", "parallel", "native"])
    def test_seeded_flushes_hit_one_plan(self, backend):
        engine = ExecutionEngine(backend=backend, optimize=True)
        for flush, seeds in enumerate(((1, 2), (3, 4), (1, 2))):
            program, out = seeded_program(*seeds)
            result = engine.execute(program)
            np.testing.assert_allclose(result.value(out), expected(*seeds))
            assert result.stats.plan_cache_hits == (1 if flush else 0)
        assert engine.cache_stats()["plan_builds"] == 1

    def test_prime_then_execute_with_other_seeds(self):
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        program, _ = seeded_program(1, 2)
        engine.prime(program, default_pipeline().run(program))
        other, out = seeded_program(8, 9)
        result = engine.execute(other)
        assert result.stats.plan_cache_hits == 1
        np.testing.assert_allclose(result.value(out), expected(8, 9))

    def test_tenants_with_different_seeds_wait_on_one_build(self, thread_hammer):
        """The in-flight latch is keyed like the cache: differing seeds
        share the build and then bind their own values."""
        engine = ExecutionEngine(backend="interpreter", optimize=True)
        gate = threading.Barrier(4)
        results = {}

        def tenant(index):
            program, out = seeded_program(100 + index, 200 + index, length=64)
            gate.wait(timeout=30)
            results[index] = engine.execute(program).value(out)

        thread_hammer(4, tenant)
        assert engine.cache_stats()["plan_builds"] == 1
        for index in range(4):
            np.testing.assert_allclose(
                results[index], expected(100 + index, 200 + index, length=64)
            )
