"""``ExecutionStats`` is declared once: merge and as_dict derive from the fields."""

import dataclasses

from repro.bytecode.opcodes import OpCode
from repro.runtime.instrumentation import NUMERIC_STATS, ExecutionStats


def _numeric_fields():
    return [
        spec
        for spec in dataclasses.fields(ExecutionStats)
        if isinstance(spec.default, (int, float)) and not isinstance(spec.default, bool)
    ]


def test_every_numeric_field_declares_a_merge_policy():
    """A backend PR that adds a counter cannot forget one of four places:
    a numeric field without a policy fails here, and a field with one is
    merged and exported by construction."""
    numeric = _numeric_fields()
    assert len(numeric) == 40
    undeclared = [spec.name for spec in numeric if "merge" not in spec.metadata]
    assert not undeclared, f"declare these with _stat(...): {undeclared}"
    assert {spec.metadata["merge"] for spec in numeric} == {"sum", "max"}
    assert [name for name, _, _ in NUMERIC_STATS] == [spec.name for spec in numeric]


def test_merge_and_as_dict_cover_exactly_the_declared_set():
    left, right = ExecutionStats(), ExecutionStats()
    for position, (name, _, _) in enumerate(NUMERIC_STATS, start=1):
        setattr(left, name, position)
        setattr(right, name, 100 * position)
    left.opcode_counts[OpCode.BH_ADD] = 1
    right.opcode_counts[OpCode.BH_ADD] = 2
    before = left.as_dict()
    exports = [export for _, export, _ in NUMERIC_STATS]
    assert list(before) == exports
    assert len(set(exports)) == len(exports)
    merged = left.merge(right).as_dict()
    for position, (_, export, policy) in enumerate(NUMERIC_STATS, start=1):
        expected = 100 * position if policy == "max" else 101 * position
        assert merged[export] == expected, export
    assert left.opcode_counts[OpCode.BH_ADD] == 3


def test_exported_names_and_max_policies_are_stable():
    """bench/, the CLI and the service read these by name."""
    renamed = {name: export for name, export, _ in NUMERIC_STATS if name != export}
    assert renamed == {
        "instructions_executed": "instructions",
        "kernel_launches": "kernels",
        "elements_processed": "elements",
        "wall_time_seconds": "wall_time_s",
        "plan_time_seconds": "plan_time_s",
    }
    assert {name for name, _, policy in NUMERIC_STATS if policy == "max"} == {
        "threads_used",
        "planned_peak_bytes",
        "actual_peak_bytes",
        "dist_workers_used",
    }


def _launch_instructions():
    from repro.bytecode.builder import ProgramBuilder
    from repro.bytecode.dtypes import float32

    builder = ProgramBuilder()
    a = builder.new_vector(10)
    b = builder.new_vector(10)
    matrix = builder.new_matrix(4, 5)
    row = builder.new_vector(5)
    narrow = builder.new_vector(10, dtype=float32)
    add = builder.emit(OpCode.BH_ADD, a, a, b)  # two view inputs
    scale = builder.emit(OpCode.BH_MULTIPLY, narrow, a, 2.0)  # one view, one constant
    reduce = builder.emit(OpCode.BH_ADD_REDUCE, row, matrix, 0)
    return add, scale, reduce


def test_record_launch_counts_a_plain_elementwise_instruction():
    add, _, _ = _launch_instructions()
    stats = ExecutionStats()
    stats.record_launch((add,))
    assert (stats.kernel_launches, stats.instructions_executed) == (1, 1)
    assert stats.elements_processed == 10
    assert stats.bytes_written == 10 * 8
    assert stats.bytes_read == 2 * 10 * 8
    assert stats.opcode_counts == {OpCode.BH_ADD: 1}


def test_record_launch_counts_a_reduction():
    _, _, reduce = _launch_instructions()
    stats = ExecutionStats()
    stats.record_launch((reduce,))
    assert (stats.kernel_launches, stats.instructions_executed) == (1, 1)
    # Output elements, not input elements; the axis constant is not traffic.
    assert stats.elements_processed == 5
    assert stats.bytes_written == 5 * 8
    assert stats.bytes_read == 20 * 8
    assert stats.opcode_counts == {OpCode.BH_ADD_REDUCE: 1}


def test_record_launch_counts_a_fused_kernel_as_one_launch():
    from repro.bytecode.instruction import Instruction

    add, scale, _ = _launch_instructions()
    fused = Instruction(OpCode.BH_FUSED, (), kernel=(add, scale))
    stats = ExecutionStats()
    stats.record_launch(fused.kernel, fused)
    assert stats.kernel_launches == 1
    assert stats.instructions_executed == 3  # the wrapper and its payload
    assert stats.elements_processed == 20
    assert stats.bytes_written == 10 * 8 + 10 * 4  # float64 + float32 outputs
    assert stats.bytes_read == 3 * 10 * 8  # the constant reads nothing
    assert stats.opcode_counts == {
        OpCode.BH_FUSED: 1,
        OpCode.BH_ADD: 1,
        OpCode.BH_MULTIPLY: 1,
    }
    # Without the wrapper (a payload recorded bare) only it is missing.
    bare = ExecutionStats()
    bare.record_launch(fused.kernel)
    assert bare.instructions_executed == 2 and OpCode.BH_FUSED not in bare.opcode_counts
    assert (bare.kernel_launches, bare.total_bytes) == (1, stats.total_bytes)
