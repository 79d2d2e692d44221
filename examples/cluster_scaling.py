"""Modelled cluster scaling of an optimized vs unoptimized workload.

Bohrium's pitch is running unchanged NumPy code on multicore machines and
clusters.  This example prices a long element-wise chain block-distributed
over 1..16 workers (``CostModel.partitioned_cost``), with and without the
byte-code optimizer, and prints the scaling curve: the optimizer removes byte-codes
(and therefore whole per-worker kernel rounds and synchronisations), so the
optimized curve sits below the unoptimized one at every worker count.

Run with::

    python examples/cluster_scaling.py
"""

from repro import optimize
from repro.core.cost import CostModel
from repro.workloads import elementwise_chain, repeated_constant_add


def main() -> None:
    size, chain_length = 1_000_000, 16
    program, _ = elementwise_chain(size, length=chain_length)
    optimized = optimize(program).optimized

    worker_counts = (1, 2, 4, 8, 16)
    model = CostModel("single_core")

    def curve(priced):
        return {w: model.partitioned_cost(priced, w).total_seconds for w in worker_counts}

    curve_before, curve_after = curve(program), curve(optimized)

    print(f"element-wise chain of {chain_length} byte-codes over {size} elements")
    print(f"{'workers':>8} {'unoptimized':>14} {'optimized':>14} {'speedup':>9}")
    for workers in worker_counts:
        before = curve_before[workers]
        after = curve_after[workers]
        print(
            f"{workers:>8} {before * 1e3:>11.3f} ms {after * 1e3:>11.3f} ms "
            f"{before / after:>8.2f}x"
        )

    print()
    program, _ = repeated_constant_add(size, repeats=8)
    optimized = optimize(program).optimized
    curve_before, curve_after = curve(program), curve(optimized)
    print(f"repeated constant add (8 additions) over {size} elements")
    print(f"{'workers':>8} {'unoptimized':>14} {'optimized':>14} {'speedup':>9}")
    for workers in worker_counts:
        before = curve_before[workers]
        after = curve_after[workers]
        print(
            f"{workers:>8} {before * 1e3:>11.3f} ms {after * 1e3:>11.3f} ms "
            f"{before / after:>8.2f}x"
        )


if __name__ == "__main__":
    main()
