"""Global library configuration.

The configuration holds what a caller chooses: which optimization passes
run by default, the default execution backend of the lazy front-end, the
tiers' thread, tile and worker counts, the memory and shared-memory caps,
and where compiled artifacts live.  Design constants of the optimizer
(merge windows, expansion and kernel-size limits, the fixed-point bound,
the verifier's seed), the capacities of caches and of the array service,
and the C optimization level are not here: each is the default of the
constructor that takes it (for example ``PowerExpansionPass(limit=)``,
``Pipeline(verify=)``, ``ArrayService(max_inflight=)``).

The configuration is intentionally a plain dataclass with module-level
accessors (:func:`get_config`, :func:`set_config`, :func:`config_override`)
rather than environment-variable magic, following the "explicit is better
than implicit" rule.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional


@dataclass
class Config:
    """Library-wide configuration knobs.

    Attributes
    ----------
    default_backend:
        Name of the backend the front-end uses when none is given: any
        name registered in :mod:`repro.runtime.backend` (see
        :func:`~repro.runtime.backend.available_backends`).  Default
        ``"interpreter"``.
    optimize:
        Whether the front-end runs the optimization pipeline before
        executing a flushed program.  Default ``True``.
    check_ir:
        When true, the static checking layer (:mod:`repro.checks`) runs
        between every optimization pass (flow-sensitive program invariant
        checks, :class:`~repro.utils.errors.IRCheckError` naming the first
        offending pass) and on every plan preparation/execution
        (memory-plan, schedule and tiling soundness,
        :class:`~repro.utils.errors.PlanCheckError`).  Purely read-only:
        plans built with checks on are byte-identical to plans built with
        checks off, so the knob is deliberately *not* part of the
        plan-cache signature.  Default ``False``.
    fusion_scheduler:
        Clustering policy behind kernel fusion.  ``"dag"`` (the default)
        builds a data-dependency graph and clusters *non-adjacent* fusable
        byte-codes via legal topological reordering, taking every merge
        that is legal and fits the kernel-size limit; ``"consecutive"``
        restores the low-end policy of maximal runs of adjacent
        element-wise byte-codes.  Part of the plan-cache signature, so
        toggling it re-plans.
    parallel_num_threads:
        Worker-thread count used by the tiled parallel backend.  ``None``
        (the default) resolves at execution time to the number of CPUs the
        process may run on: ``len(os.sched_getaffinity(0))`` where the
        platform has it, ``os.cpu_count()`` otherwise.
    parallel_tile_elements:
        Target number of elements per tile when the parallel backend splits
        a fused kernel or reduction into cache-sized contiguous tiles.
        Default 65 536.
    parallel_serial_threshold:
        Operations over fewer elements than this run serially in the
        parallel backend: below it, tiling overhead exceeds the win.
        Default 8 192.
    memory_plan_enabled:
        Whether plan compilation additionally runs the liveness-driven
        memory planner (:mod:`repro.runtime.memplan`): temporaries with
        disjoint lifetimes share storage slots and provably
        fully-initialised buffers skip their zero fill.  Part of the plan
        cache key, so toggling it re-plans instead of replaying a plan
        built under the other setting.  Default ``True``.
    memory_pool_max_bytes:
        Byte cap of the size-class buffer pool each
        :class:`~repro.runtime.memory.MemoryManager` recycles freed
        allocations through.  ``0`` disables pooling entirely (every
        allocation is fresh, every free returns storage to the host).
        Default 64 MiB.
    memory_zero_policy:
        ``"auto"`` (the default) zero-fills a buffer only when the
        liveness analysis cannot prove every element is written before it
        is read; ``"always"`` zero-fills every allocation regardless (the
        pre-planning behaviour, useful when debugging a suspected planner
        unsoundness).
    codegen_cache_dir:
        Directory of the on-disk compiled-artifact cache.  ``None`` (the
        default) resolves to the ``REPRO_CODEGEN_CACHE`` environment
        variable or ``~/.cache/repro-codegen``.  Part of the plan-cache
        signature because plans pre-compile their kernels against one
        concrete cache.  Every backend reads it: the kernel runtime
        artifact stored there holds the vector ``erf`` that ``BH_ERF``
        calls on the interpreted tiers too.
    codegen_disk_cache_enabled:
        Whether compiled artifacts persist on disk.  When off, kernels
        compile into a process-private temporary directory and only the
        in-process cache amortizes them.  Default ``True``.
    codegen_threads:
        Thread count passed to compiled kernels' ``repro_kernel_mt`` entry
        point (chunking across the process's one persistent worker pool,
        the kernel runtime artifact's).  ``None`` (the default) defers to
        the ``REPRO_CODEGEN_THREADS`` environment variable (a positive
        integer) and then to the parallel worker count.  This is a
        *runtime* argument of the artifact — changing it never recompiles
        or invalidates cached kernels.
    dist_num_workers:
        Worker-process count of the distributed (``"dist"``) backend's
        persistent pool.  Shard plans depend on it, so it is signed into
        the plan signature; pools are shared process-wide per worker
        count.  Default 2.
    dist_shm_max_bytes:
        Byte cap on live POSIX shared-memory segments (active
        arrays plus the recycling free list) owned by the distributed
        backend's shard store.  Exceeding it raises
        :class:`~repro.utils.errors.DistributedExecutionError` instead of
        exhausting ``/dev/shm``.  Default 1 GiB.
    enabled_passes:
        Names of passes that the default pipeline should include.  ``None``
        (the default) means "all registered default passes".
    """

    default_backend: str = "interpreter"
    optimize: bool = True
    check_ir: bool = False
    fusion_scheduler: str = "dag"
    parallel_num_threads: Optional[int] = None
    parallel_tile_elements: int = 65536
    parallel_serial_threshold: int = 8192
    memory_plan_enabled: bool = True
    memory_pool_max_bytes: int = 1 << 26  # 64 MiB
    memory_zero_policy: str = "auto"
    codegen_cache_dir: Optional[str] = None
    codegen_disk_cache_enabled: bool = True
    codegen_threads: Optional[int] = None
    dist_num_workers: int = 2
    dist_shm_max_bytes: int = 1 << 30  # 1 GiB
    enabled_passes: Optional[List[str]] = None

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
