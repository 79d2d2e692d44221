"""Global library configuration.

The configuration object controls cross-cutting behaviour such as which
optimization passes are enabled by default, whether rewrites are verified
semantically after they are applied, and the default execution backend used
by the lazy front-end.

The configuration is intentionally a plain dataclass with module-level
accessors (:func:`get_config`, :func:`set_config`, :func:`config_override`)
rather than environment-variable magic, following the "explicit is better
than implicit" rule.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, List, Optional


@dataclass
class Config:
    """Library-wide configuration knobs.

    Attributes
    ----------
    default_backend:
        Name of the backend the front-end uses when none is given: any
        name registered in :mod:`repro.runtime.backend` (built in:
        ``"interpreter"``, ``"jit"``, ``"parallel"``, ``"native"``,
        ``"dist"``).
    optimize:
        Whether the front-end runs the optimization pipeline before
        executing a flushed program.
    verify_rewrites:
        When true, every pipeline run re-executes the original and the
        optimized program on the same inputs and compares the results.
        Expensive; meant for tests and debugging.
    check_ir:
        When true, the static checking layer (:mod:`repro.checks`) runs
        between every optimization pass (flow-sensitive program invariant
        checks, :class:`~repro.utils.errors.IRCheckError` naming the first
        offending pass) and on every plan preparation/execution
        (memory-plan, schedule and tiling soundness,
        :class:`~repro.utils.errors.PlanCheckError`).  Purely read-only:
        plans built with checks on are byte-identical to plans built with
        checks off, so the knob is deliberately *not* part of the
        plan-cache signature.
    max_constant_merge_window:
        Upper bound on how many consecutive constant operations the
        constant-merge pass will contract at once.
    power_expansion_limit:
        Largest integer exponent that the power-expansion pass will rewrite
        into multiplications.  Above this the ``BH_POWER`` op-code is kept.
    fusion_max_kernel_size:
        Maximum number of element-wise byte-codes fused into one kernel.
    fusion_scheduler:
        Clustering policy behind kernel fusion.  ``"dag"`` (the default)
        builds a data-dependency graph and clusters *non-adjacent* fusable
        byte-codes via legal topological reordering, accepting each merge
        with the cost model; ``"consecutive"`` restores the low-end policy
        of maximal runs of adjacent element-wise byte-codes.  Part of the
        plan-cache signature, so toggling it re-plans.
    fusion_cost_threshold:
        Minimum predicted saving (simulated seconds: one kernel launch plus
        re-streamed shared operands) a merge must clear before the
        dependency-graph scheduler accepts it.  ``0.0`` accepts every legal
        merge; a large value disables merging without disabling the
        scheduler's analysis.
    fixed_point_max_iterations:
        Safety bound on the pipeline's iterate-to-fixed-point loop.
    plan_cache_size:
        Maximum number of execution plans the engine's LRU plan cache holds.
    parallel_num_threads:
        Worker-thread count used by the tiled parallel backend.  ``None``
        (the default) resolves at execution time to the number of CPUs the
        process may run on: ``len(os.sched_getaffinity(0))`` where the
        platform has it, ``os.cpu_count()`` otherwise.
    parallel_tile_elements:
        Target number of elements per tile when the parallel backend splits
        a fused kernel or reduction into cache-sized contiguous tiles.
    parallel_serial_threshold:
        Operations over fewer elements than this run serially in the
        parallel backend: below it, tiling overhead exceeds the win.
    memory_plan_enabled:
        Whether plan compilation additionally runs the liveness-driven
        memory planner (:mod:`repro.runtime.memplan`): temporaries with
        disjoint lifetimes share storage slots and provably
        fully-initialised buffers skip their zero fill.  Part of the plan
        cache key, so toggling it re-plans instead of replaying a plan
        built under the other setting.
    memory_pool_max_bytes:
        Byte cap of the size-class buffer pool each
        :class:`~repro.runtime.memory.MemoryManager` recycles freed
        allocations through.  ``0`` disables pooling entirely (every
        allocation is fresh, every free returns storage to the host).
    memory_zero_policy:
        ``"auto"`` zero-fills a buffer only when the liveness analysis
        cannot prove every element is written before it is read;
        ``"always"`` zero-fills every allocation regardless (the
        pre-planning behaviour, useful when debugging a suspected
        planner unsoundness).
    codegen_enabled:
        Whether the native backend lowers eligible kernel forms to
        compiled C loops.  When off (or when lowering/compilation fails)
        every kernel runs through the interpreted templates, so the
        backend degrades to the tiled parallel backend's behaviour.  Part
        of the plan-cache signature.
    codegen_cache_dir:
        Directory of the on-disk compiled-artifact cache.  ``None`` (the
        default) resolves to the ``REPRO_CODEGEN_CACHE`` environment
        variable or ``~/.cache/repro-codegen``.  Part of the plan-cache
        signature because plans pre-compile their kernels against one
        concrete cache.  Every backend reads it: the kernel runtime
        artifact stored there holds the vector ``erf`` that ``BH_ERF``
        calls on the interpreted tiers too.
    codegen_opt_level:
        C compiler optimization level (0-3) for generated kernels.  Part
        of the artifact content digest, so changing it can never reuse a
        library built under different flags.
    codegen_disk_cache_enabled:
        Whether compiled artifacts persist on disk.  When off, kernels
        compile into a process-private temporary directory and only the
        in-process cache amortizes them.
    codegen_threads:
        Thread count passed to compiled kernels' ``repro_kernel_mt`` entry
        point (chunking across the process's one persistent worker pool,
        the kernel runtime artifact's).  ``None`` defers to the ``REPRO_CODEGEN_THREADS``
        environment variable and then to the parallel worker count.  This
        is a *runtime* argument of the artifact — changing it never
        recompiles or invalidates cached kernels.
    codegen_reductions_enabled:
        Whether tiled reductions lower to compiled C kernels.  When off
        (or when a reduction form has no lowering) reductions run on the
        tiled interpreted paths, counted as
        ``native_reduction_fallbacks``.
    service_max_inflight:
        Global cap on concurrently executing flushes inside an
        :class:`~repro.service.ArrayService`.  Arrivals beyond the cap
        queue (with backpressure) until a slot frees or the admission
        timeout expires.
    service_tenant_max_inflight:
        Per-tenant cap on queued-plus-executing flushes; one tenant
        hammering the service cannot starve the others past this depth.
    service_admission_timeout_seconds:
        How long an over-cap flush waits for admission before it is
        cleanly rejected with
        :class:`~repro.utils.errors.ServiceOverloadError`.
    service_pool_max_bytes:
        Byte cap of the *shared* buffer pool an ``ArrayService`` hands to
        every tenant session (tenant-agnostic recycling, per-tenant
        accounting).  Independent of ``memory_pool_max_bytes``, which caps
        the private pool of a stand-alone session.
    service_fairness:
        ``"shared"`` lets any tenant park freed buffers until the global
        cap; ``"fair"`` additionally caps each tenant's parked bytes at an
        equal share of the pool, so one tenant's burst of large frees
        cannot monopolize the recycling budget.
    dist_num_workers:
        Worker-process count of the distributed (``"dist"``) backend's
        persistent pool.  Shard plans depend on it, so it is signed into
        the plan signature; pools are shared process-wide per worker
        count.
    dist_shm_max_bytes:
        Byte cap on live POSIX shared-memory segments (active
        arrays plus the recycling free list) owned by the distributed
        backend's shard store.  Exceeding it raises
        :class:`~repro.utils.errors.DistributedExecutionError` instead of
        exhausting ``/dev/shm``.
    enabled_passes:
        Names of passes that the default pipeline should include.  ``None``
        means "all registered default passes".
    random_seed:
        Seed used by verification and workload generators for
        reproducibility.
    """

    default_backend: str = "interpreter"
    optimize: bool = True
    verify_rewrites: bool = False
    check_ir: bool = False
    max_constant_merge_window: int = 1024
    power_expansion_limit: int = 64
    fusion_max_kernel_size: int = 32
    fusion_scheduler: str = "dag"
    fusion_cost_threshold: float = 0.0
    fixed_point_max_iterations: int = 16
    plan_cache_size: int = 128
    parallel_num_threads: Optional[int] = None
    parallel_tile_elements: int = 65536
    parallel_serial_threshold: int = 8192
    memory_plan_enabled: bool = True
    memory_pool_max_bytes: int = 1 << 26  # 64 MiB
    memory_zero_policy: str = "auto"
    codegen_enabled: bool = True
    codegen_cache_dir: Optional[str] = None
    codegen_opt_level: int = 3
    codegen_disk_cache_enabled: bool = True
    codegen_threads: Optional[int] = None
    codegen_reductions_enabled: bool = True
    service_max_inflight: int = 16
    service_tenant_max_inflight: int = 4
    service_admission_timeout_seconds: float = 5.0
    service_pool_max_bytes: int = 1 << 28  # 256 MiB
    service_fairness: str = "shared"
    dist_num_workers: int = 2
    dist_shm_max_bytes: int = 1 << 30  # 1 GiB
    enabled_passes: Optional[List[str]] = None
    random_seed: int = 0x5EED

    def copy(self) -> "Config":
        """Return a deep copy of this configuration."""
        return copy.deepcopy(self)

    def replace(self, **changes) -> "Config":
        """Return a new configuration with ``changes`` applied."""
        return dataclasses.replace(self.copy(), **changes)


_CONFIG = Config()


def get_config() -> Config:
    """Return the currently active global configuration object."""
    return _CONFIG


def set_config(config: Config) -> None:
    """Replace the global configuration with ``config``."""
    global _CONFIG
    if not isinstance(config, Config):
        raise TypeError(f"expected Config, got {type(config)!r}")
    _CONFIG = config


@contextlib.contextmanager
def config_override(**changes) -> Iterator[Config]:
    """Temporarily override configuration fields within a ``with`` block.

    Example
    -------
    >>> with config_override(optimize=False):
    ...     ...  # front-end flushes run unoptimized here
    """
    global _CONFIG
    previous = _CONFIG
    _CONFIG = previous.replace(**changes)
    try:
        yield _CONFIG
    finally:
        _CONFIG = previous
