"""E8 — modelled cluster/multicore scaling (paper Section 1 context).

Bohrium's pitch includes clusters; we cannot run one, so the cost model
prices programs block-distributed over workers under an explicit
latency/bandwidth model (``CostModel.partitioned_cost``).
Expected shape: simulated time falls with worker count but sub-linearly
(communication and launch overheads), and the byte-code optimizer improves
every point of the curve because each removed byte-code removes a round of
per-worker work and each fused kernel removes synchronisation.
"""

from repro.core.cost import CommunicationModel, CostModel
from repro.core.pipeline import optimize
from repro.workloads import elementwise_chain, linear_solve_program, repeated_constant_add

from conftest import record_table

WORKER_COUNTS = (1, 2, 4, 8, 16)
SIZE = 1_000_000


def test_scaling_curve_unoptimized_vs_optimized(benchmark):
    """The headline scaling table: simulated seconds vs workers, before/after optimization."""

    def sweep():
        program, _ = elementwise_chain(SIZE, length=16)
        optimized = optimize(program).optimized
        model = CostModel("single_core")
        before, after = (
            {w: model.partitioned_cost(p, w).total_seconds for w in WORKER_COUNTS}
            for p in (program, optimized)
        )
        rows = []
        for workers in WORKER_COUNTS:
            rows.append(
                {
                    "workers": workers,
                    "unoptimized_ms": before[workers] * 1e3,
                    "optimized_ms": after[workers] * 1e3,
                    "optimizer_gain": before[workers] / after[workers],
                    "scaling_vs_1": before[WORKER_COUNTS[0]] / before[workers],
                }
            )
        return rows

    rows = benchmark(sweep)
    benchmark.group = "E8 scaling curve"
    record_table(
        benchmark,
        f"E8: element-wise chain of 16 byte-codes over {SIZE} elements",
        rows,
        ["workers", "unoptimized_ms", "optimized_ms", "optimizer_gain", "scaling_vs_1"],
    )
    # more workers help, the optimizer helps at every point, and scaling is sub-linear
    assert rows[-1]["scaling_vs_1"] > 1.5
    assert rows[-1]["scaling_vs_1"] < WORKER_COUNTS[-1]
    assert all(row["optimizer_gain"] > 1.0 for row in rows)


def test_communication_sensitivity(benchmark):
    """Ablation: a slower interconnect hurts the unoptimized program more."""

    def sweep():
        program, _ = repeated_constant_add(SIZE, repeats=8)
        optimized = optimize(program).optimized
        rows = []
        for latency, bandwidth, label in (
            (1e-6, 50e9, "fast fabric"),
            (50e-6, 1e9, "slow ethernet"),
        ):
            comm = CommunicationModel(latency_s=latency, bytes_per_second=bandwidth)
            model = CostModel("single_core")
            rows.append(
                {
                    "interconnect": label,
                    "unoptimized_ms": model.partitioned_cost(program, 8, comm).total_seconds
                    * 1e3,
                    "optimized_ms": model.partitioned_cost(optimized, 8, comm).total_seconds
                    * 1e3,
                }
            )
        return rows

    rows = benchmark(sweep)
    benchmark.group = "E8 communication sensitivity"
    record_table(
        benchmark,
        "E8: interconnect sensitivity (8 workers)",
        rows,
        ["interconnect", "unoptimized_ms", "optimized_ms"],
    )
    for row in rows:
        assert row["optimized_ms"] < row["unoptimized_ms"]


def test_extension_heavy_program_on_cluster(benchmark):
    """The Equation 2 rewrite also removes a serialised + gathered extension op."""

    def sweep():
        program, _, _ = linear_solve_program(128)
        optimized = optimize(program).optimized
        model = CostModel("single_core")
        return {
            "unoptimized": model.partitioned_cost(program, 8),
            "optimized": model.partitioned_cost(optimized, 8),
        }

    stats = benchmark(sweep)
    benchmark.group = "E8 linear solve on cluster"
    record_table(
        benchmark,
        "E8: inv(A) @ b vs LU solve under the cluster model (8 workers)",
        [
            {
                "program": name,
                "serial_ops": value.serial_instructions,
                "sync_rounds": value.sync_rounds,
                "total_ms": value.total_seconds * 1e3,
            }
            for name, value in stats.items()
        ],
        ["program", "serial_ops", "sync_rounds", "total_ms"],
    )
    assert stats["optimized"].total_seconds < stats["unoptimized"].total_seconds
    assert stats["optimized"].serial_instructions < stats["unoptimized"].serial_instructions
