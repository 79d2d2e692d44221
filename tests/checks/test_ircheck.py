"""Unit tests for the between-pass IR verifier (`repro.checks.ircheck`)."""

from __future__ import annotations

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.checks import COUNTERS
from repro.checks.ircheck import check_program, reference_facts
from repro.core.pipeline import Pipeline, default_pipeline
from repro.core.rules import Pass
from repro.utils.config import Config, config_override
from repro.utils.errors import IRCheckError
from repro.workloads import repeated_constant_add


def _temp_chain_program():
    """t = 0; y = t + 1; SYNC y; FREE t — a one-temporary program."""
    builder = ProgramBuilder()
    t = builder.new_vector(8, name="t")
    y = builder.new_vector(8, name="y")
    builder.identity(t, 0)
    builder.add(y, t, 1)
    builder.sync(y)
    builder.free(t)
    return builder.build()


class TestCleanPrograms:
    def test_clean_program_passes(self):
        program = _temp_chain_program()
        check_program(program)  # unconditional checks only
        check_program(program, reference=reference_facts(program))

    def test_workload_programs_pass(self):
        program, _ = repeated_constant_add(16, repeats=3)
        check_program(program, reference=reference_facts(program))

    def test_counters_move(self):
        COUNTERS.reset()
        program = _temp_chain_program()
        check_program(program)
        totals = COUNTERS.snapshot()
        assert totals["ir_checks_run"] == 1
        assert totals["ir_check_failures"] == 0


class TestViolations:
    def test_dropped_store_breaks_def_before_use(self):
        program = _temp_chain_program()
        reference = reference_facts(program)
        broken = Program([i for i in program if i.opcode is not OpCode.BH_IDENTITY])
        with pytest.raises(IRCheckError, match="no .*preceding overlapping write"):
            check_program(broken, reference=reference)

    def test_dropped_store_needs_a_reference(self):
        # Without reference facts an unsatisfied read is indistinguishable
        # from a legal read of an earlier flush's base — must not raise.
        program = _temp_chain_program()
        broken = Program([i for i in program if i.opcode is not OpCode.BH_IDENTITY])
        check_program(broken)

    def test_use_after_free_is_unconditional(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 0)
        builder.free(v)
        program = builder.build(validate=False)
        read_after_free = Program(list(program) + [program[0]])
        with pytest.raises(IRCheckError, match="after its BH_FREE"):
            check_program(read_after_free)

    def test_double_free(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 0)
        builder.free(v)
        program = builder.build(validate=False)
        double = Program(list(program) + [program[-1]])
        with pytest.raises(IRCheckError, match="twice"):
            check_program(double)

    def test_sync_of_unwritten_base(self):
        builder = ProgramBuilder()
        v = builder.new_vector(8)
        builder.identity(v, 0)
        builder.sync(v)
        program = builder.build()
        reference = reference_facts(program)
        broken = Program([program[1]])  # the store is gone, the SYNC remains
        with pytest.raises(IRCheckError, match="store dropped before SYNC"):
            check_program(broken, reference=reference)

    def test_dropped_sync_is_an_observability_loss(self):
        program = _temp_chain_program()
        reference = reference_facts(program)
        no_sync = Program([i for i in program if i.opcode is not OpCode.BH_SYNC])
        with pytest.raises(IRCheckError, match="BH_SYNC .* dropped"):
            check_program(no_sync, reference=reference)

    def test_view_escaping_its_base(self):
        program = _temp_chain_program()
        # Corrupt in place: shift the store's output window past the base.
        program[0].out.offset = program[0].out.base.nelem
        with pytest.raises(IRCheckError, match="escapes base"):
            check_program(program)

    def test_a_reduction_anywhere_but_last_in_a_kernel(self):
        from repro.bytecode.instruction import Instruction

        builder = ProgramBuilder()
        t = builder.new_vector(8, name="t")
        total = builder.new_vector(1, name="total")
        builder.identity(t, 1)
        builder.add_reduce(total, t)
        store, reduction = builder.build()
        closing = Program([Instruction(OpCode.BH_FUSED, (), kernel=[store, reduction])])
        check_program(closing, reference=reference_facts(closing))
        opening = Program([Instruction(OpCode.BH_FUSED, (), kernel=[reduction, store])])
        with pytest.raises(IRCheckError, match="instruction 0.*one closing reduction"):
            check_program(opening)

    def test_error_names_the_instruction(self):
        program = _temp_chain_program()
        reference = reference_facts(program)
        broken = Program([i for i in program if i.opcode is not OpCode.BH_IDENTITY])
        with pytest.raises(IRCheckError) as excinfo:
            check_program(broken, reference=reference)
        assert excinfo.value.index == 0  # the add is instruction 0 after the drop
        assert "instruction 0" in str(excinfo.value)

    def test_failure_counter_moves(self):
        COUNTERS.reset()
        program = _temp_chain_program()
        reference = reference_facts(program)
        broken = Program([i for i in program if i.opcode is not OpCode.BH_IDENTITY])
        with pytest.raises(IRCheckError):
            check_program(broken, reference=reference)
        assert COUNTERS.snapshot()["ir_check_failures"] == 1


class _StoreDroppingPass(Pass):
    """A deliberately broken DCE: deletes stores that are still read."""

    name = "store_dropper"

    def run(self, program):
        stats = self._new_stats(program)
        instructions = [i for i in program if i.opcode is not OpCode.BH_IDENTITY]
        stats.rewrites_applied += len(program) - len(instructions)
        return self._finish(Program(instructions), stats)


class TestPipelineIntegration:
    def test_broken_pass_is_named(self):
        """The acceptance scenario: a live-store-dropping pass is rejected
        by the between-pass check, and the error names the pass."""
        program = _temp_chain_program()
        pipeline = Pipeline([_StoreDroppingPass()], config=Config(check_ir=True))
        with pytest.raises(IRCheckError, match="store_dropper.*broke the IR"):
            pipeline.run(program)

    def test_error_carries_pass_name_and_index(self):
        program = _temp_chain_program()
        with config_override(check_ir=True):
            pipeline = Pipeline([_StoreDroppingPass()])  # the live knob, read here
        with pytest.raises(IRCheckError) as excinfo:
            pipeline.run(program)
        assert excinfo.value.pass_name == "store_dropper"
        assert excinfo.value.index is not None

    def test_broken_pass_passes_silently_without_the_knob(self):
        # The knob gates the cost: with checks off the pipeline trusts its
        # passes exactly as before this layer existed.
        program = _temp_chain_program()
        pipeline = Pipeline([_StoreDroppingPass()])
        report = pipeline.run(program)
        assert report.changed

    def test_default_pipeline_is_clean_under_checks(self):
        program, _ = repeated_constant_add(16, repeats=3)
        with config_override(check_ir=True):
            report = default_pipeline().run(program)
        assert report.ir_checks_run > 0
        assert report.instructions_after < report.instructions_before

    def test_report_counts_checks(self):
        program, _ = repeated_constant_add(16, repeats=3)
        with config_override(check_ir=True):
            checked = default_pipeline().run(program)
        unchecked = default_pipeline().run(program)
        assert checked.ir_checks_run > 0
        assert unchecked.ir_checks_run == 0
