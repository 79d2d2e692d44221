"""Global library configuration, read once per flush.

The configuration holds what a caller chooses: which optimization passes
run by default, the default execution backend of the lazy front-end, the
tiers' thread, tile and worker counts, the memory and shared-memory caps,
and where compiled artifacts live.  Design constants of the optimizer
(merge windows, expansion and kernel-size limits, the fixed-point bound,
the verifier's seed), the capacities of caches and of the array service,
and the C optimization level are not here: each is the default of the
constructor that takes it (for example ``PowerExpansionPass(limit=)``,
``Pipeline(verify=)``, ``ArrayService(max_inflight=)``).  Nor is whether
a flush is optimized at all: that is the ``optimize=`` argument of
``ExecutionEngine``, ``Session`` and ``ArrayService`` (default ``True``).

A :class:`Config` is a frozen value; :func:`set_config` and
:func:`config_override` swap which one is live.  Only the engine boundary
reads it: ``ExecutionEngine.execute`` (and a backend's plan-less
``execute``) calls :func:`get_config` once per flush and resolves the
value through ``Backend.resolve_config`` into a snapshot, memoised per
configuration value, with what the backend reads made concrete — the
thread count from the affinity mask, the artifact directory from
``REPRO_CODEGEN_CACHE`` or the home directory and, on ``native``, the
codegen thread count from ``REPRO_CODEGEN_THREADS``.  The snapshot keys the flush's plan and is the
argument of everything below: optimizer, schedule, memory plan, tiling,
plan checks and launches.  A change therefore applies from the next flush;
one issued while a flush runs does not reach it.  Constructors that default
to a configured value (``ExecutionEngine``, ``MemoryManager``'s pool cap,
``Pipeline``, ``default_pipeline``) read it when called.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class Config:
    """Library-wide configuration knobs (a frozen, hashable value).

    Every field but ``default_backend`` and ``check_ir`` is part of the
    plan-cache signature
    (:func:`~repro.runtime.plan.config_signature`): changing one re-plans
    instead of replaying a plan built under the other value.

    Attributes
    ----------
    default_backend:
        Name of the backend the front-end uses when none is given: any
        name registered in :mod:`repro.runtime.backend` (see
        :func:`~repro.runtime.backend.available_backends`).  Default
        ``"interpreter"``.
    check_ir:
        When true, the static checking layer (:mod:`repro.checks`) runs
        between every optimization pass (flow-sensitive program invariant
        checks, :class:`~repro.utils.errors.IRCheckError` naming the first
        offending pass) and before every plan execution (memory-plan,
        schedule and tiling soundness,
        :class:`~repro.utils.errors.PlanCheckError`).  Purely read-only:
        plans built with checks on are byte-identical to plans built with
        checks off.  Default ``False``.
    fusion_scheduler:
        Clustering policy behind kernel fusion.  ``"dag"`` (the default)
        builds a data-dependency graph and clusters *non-adjacent* fusable
        byte-codes via legal topological reordering, taking every merge
        that is legal and fits the kernel-size limit; ``"consecutive"``
        restores the low-end policy of maximal runs of adjacent
        element-wise byte-codes.
    parallel_num_threads:
        Worker-thread count used by the tiled parallel backend.  ``None``
        (the default) is resolved in the flush's snapshot to the number of
        CPUs the process may run on: ``len(os.sched_getaffinity(0))``
        where the platform has it, ``os.cpu_count()`` otherwise.
    parallel_tile_elements:
        Target number of elements per tile when the parallel backend splits
        a fused kernel or reduction into cache-sized contiguous tiles, and
        the least work a thread of a compiled ``native`` step gets: such a
        step runs in ``min(codegen_threads, elements // this)`` parts, one
        part being one serial call.  Default 65 536.
    parallel_serial_threshold:
        Operations over fewer elements than this run serially in the
        parallel backend: below it, tiling overhead exceeds the win.
        Default 8 192.
    memory_plan_enabled:
        Whether plan compilation additionally runs the liveness-driven
        memory planner (:mod:`repro.runtime.memplan`): temporaries with
        disjoint lifetimes share storage slots and provably
        fully-initialised buffers skip their zero fill.  Default ``True``.
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
        default) is resolved in the flush's snapshot to the
        ``REPRO_CODEGEN_CACHE`` environment variable or
        ``~/.cache/repro-codegen``.  Every backend reads it: the kernel
        runtime artifact stored there holds the vector ``erf`` that
        ``BH_ERF`` calls on the interpreted tiers too.
    codegen_threads:
        Most parts a compiled map step is split into: one call of the
        step's kernel per contiguous row block, on the tile pool of this
        many threads (a part gets at least ``parallel_tile_elements``
        elements).  ``None`` (the default) is resolved
        in a ``native`` flush's snapshot to the ``REPRO_CODEGEN_THREADS``
        environment variable (a positive integer; anything else fails the
        flush before its first step) and then to 1: threads are asked for,
        not inferred from the CPU count.  Changing it never recompiles
        cached kernels: every part calls the same artifact.
    dist_num_workers:
        Shard count of the distributed (``"dist"``) backend: the master,
        which runs shard 0 of every distributed step, plus
        ``dist_num_workers − 1`` worker processes in a persistent pool
        (shared process-wide per count; 1 spawns none).  Default 2.
    dist_shm_max_bytes:
        Byte cap on live POSIX shared-memory segments (active
        arrays plus the recycling free list) owned by the distributed
        backend's shard store.  Exceeding it raises
        :class:`~repro.utils.errors.DistributedExecutionError` instead of
        exhausting ``/dev/shm``.  Default 1 GiB.
    enabled_passes:
        Names of passes that the default pipeline should include, held as
        a tuple (any iterable is accepted).  ``None`` (the default) means
        "all registered default passes".
    """

    default_backend: str = "interpreter"
    check_ir: bool = False
    fusion_scheduler: str = "dag"
    parallel_num_threads: Optional[int] = None
    parallel_tile_elements: int = 65536
    parallel_serial_threshold: int = 8192
    memory_plan_enabled: bool = True
    memory_pool_max_bytes: int = 1 << 26  # 64 MiB
    memory_zero_policy: str = "auto"
    codegen_cache_dir: Optional[str] = None
    codegen_threads: Optional[int] = None
    dist_num_workers: int = 2
    dist_shm_max_bytes: int = 1 << 30  # 1 GiB
    enabled_passes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.enabled_passes is not None:
            object.__setattr__(self, "enabled_passes", tuple(self.enabled_passes))

    #: ``config.replace(**changes)``: a new configuration with ``changes``.
    replace = dataclasses.replace


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
    >>> with config_override(check_ir=True):
    ...     ...  # flushes run the static checks here
    """
    global _CONFIG
    previous = _CONFIG
    _CONFIG = previous.replace(**changes)
    try:
        yield _CONFIG
    finally:
        _CONFIG = previous
