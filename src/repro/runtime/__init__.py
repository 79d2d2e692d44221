"""Execution backends for byte-code programs.

Bohrium dispatches its byte-code to *vector engines* (OpenMP, OpenCL, CUDA).
We provide Python equivalents:

* :class:`NumPyInterpreter` (``"interpreter"``) — the reference backend:
  executes one byte-code at a time on NumPy storage.  Used for correctness
  and for wall-clock benchmarks where "one byte-code = one full-array
  traversal" holds, exactly the cost structure the paper's transformations
  attack.
* :class:`ParallelBackend` (``"parallel"``) — splits fused kernels and
  reductions into cache-sized contiguous tiles (decomposed once at plan
  time, cached with the execution plan) and executes independent tiles
  across a persistent thread pool, with tree-combined reduction partials
  and serial fallback for non-splittable byte-codes.
* ``NativeBackend`` (``"native"``) — the tiled backend whose map and
  reduce steps run as compiled C kernels.
* ``DistributedBackend`` (``"dist"``, :mod:`repro.dist`) — the tiled
  backend whose steps run as shards on a pool of worker processes.

Pricing a program against a device profile is a report, not a backend:
:class:`~repro.core.cost.CostModel`.

Backends are selected through a registry (:func:`register_backend` /
:func:`get_backend`); the :class:`ExecutionEngine` sits on top of the
registry and adds the fingerprint → plan-cache → execute staging that lets
repeated flushes skip the optimizer and kernel partitioning entirely.

All backends return an :class:`ExecutionResult` carrying the output arrays
and an :class:`ExecutionStats` record (kernel launches, elements traversed,
bytes moved, wall-clock time, plan/template cache outcomes).
"""

from repro._exports import export_on_demand

export_on_demand(
    globals(),
    {
        "repro.runtime.memory": ("MemoryManager", "BufferPool", "BufferDirective"),
        "repro.runtime.memplan": ("MemoryPlan", "attach_memory_plan", "bind_memory_plan"),
        "repro.runtime.instrumentation": ("ExecutionStats", "ExecutionResult"),
        "repro.runtime.backend": (
            "Backend",
            "get_backend",
            "register_backend",
            "available_backends",
        ),
        "repro.runtime.interpreter": ("NumPyInterpreter",),
        "repro.runtime.kernel": (
            "Kernel",
            "KernelTemplate",
            "compile_kernel_template",
            "kernel_slot_views",
            "kernel_structural_key",
            "partition_into_kernels",
        ),
        "repro.runtime.parallel": ("ParallelBackend",),
        "repro.runtime.tiling": (
            "SerialStep",
            "TileDecomposition",
            "TiledMapStep",
            "TiledReduceStep",
            "TileSpan",
            "decompose",
            "resolve_num_threads",
            "slice_view",
        ),
        "repro.runtime.plan": (
            "ExecutionPlan",
            "PlanCache",
            "canonical_program_key",
            "config_signature",
            "program_base_order",
            "program_fingerprint",
            "split_into_batches",
            "merge_batches",
        ),
        "repro.runtime.engine": ("ExecutionEngine",),
    },
)
