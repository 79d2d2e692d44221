"""Simulated partitioned (cluster / multicore) execution.

Bohrium's motivation includes running unchanged NumPy code "on multicore
CPUs, clusters, or GPUs".  We cannot run a real cluster here, so this
package provides a *simulated* data-parallel executor: arrays are
partitioned across workers along their first axis, element-wise byte-codes
run worker-locally, reductions and extension methods pay an explicit
communication cost (latency + bytes / bandwidth), and ``BH_SYNC`` gathers
data to the master.

The executor reuses the NumPy interpreter for correctness, so results are
exact; what changes with the worker count is the *simulated* time, which is
what the scaling benchmark (E8) reports.  The interesting interaction with
the paper's optimizer: every byte-code removed by a transformation also
removes a round of per-worker kernel launches, and every fused kernel
removes synchronisation points.
"""

from repro._exports import export_on_demand

export_on_demand(
    globals(),
    {
        "repro.cluster.comm": ("CommunicationModel",),
        "repro.cluster.partition": ("partition_length", "partition_view"),
        "repro.cluster.executor": ("ClusterExecutor", "ClusterStats"),
    },
)
