"""Multi-process sharded execution over shared memory.

The ``dist`` package is a :class:`~repro.dist.backend.DistributedBackend`
(registered as ``"dist"``) that executes plans as row shards, shard 0 on
the master and the others in a persistent pool of worker *processes*;
:meth:`repro.core.cost.CostModel.partitioned_cost`
prices the same block distribution.  Arrays live in POSIX shared-memory
segments managed by a :class:`~repro.dist.shardstore.ShardStore`; the
control channel (:mod:`repro.dist.protocol`) ships only plan fingerprints
and shard descriptors — never array payloads.
"""

from repro._exports import export_on_demand

export_on_demand(
    globals(),
    {
        "repro.dist.backend": ("DistributedBackend",),
        "repro.dist.shardstore": ("ShardStore", "sweep_manifests"),
    },
)
