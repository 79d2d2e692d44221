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
    assert len(numeric) == 41
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
        "simulated_time_seconds": "simulated_time_s",
        "plan_time_seconds": "plan_time_s",
    }
    assert {name for name, _, policy in NUMERIC_STATS if policy == "max"} == {
        "threads_used",
        "planned_peak_bytes",
        "actual_peak_bytes",
        "dist_workers_used",
    }
