"""Backend interface and registry.

A backend turns a byte-code :class:`~repro.bytecode.program.Program` into
results.  Backends are registered by name so configuration and the lazy
front-end can select them with a string (:func:`available_backends` lists
the names).  Pricing a program is not a backend:
:class:`~repro.core.cost.CostModel` reports it.
"""

from __future__ import annotations

import abc
import importlib
from typing import Callable, Dict, Optional

from repro.bytecode.program import Program
from repro.runtime.instrumentation import ExecutionResult
from repro.runtime.memory import BufferPool, MemoryManager
from repro.runtime.tiling import resolve_num_threads
from repro.utils.config import Config, get_config
from repro.utils.errors import ExecutionError
from repro.utils.lru import BoundedLRU


def fresh_memory(config: Config) -> MemoryManager:
    """The zero-initialised manager a flush handed no memory runs on."""
    return MemoryManager(BufferPool(config.memory_pool_max_bytes))


class Backend(abc.ABC):
    """Abstract execution backend."""

    #: Human-readable backend name, set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Execute ``program`` and return the resulting memory and statistics.

        Parameters
        ----------
        program:
            The byte-code program to run.
        memory:
            Optional pre-populated memory manager (input data).  When
            omitted a fresh, zero-initialised manager is created.
        """

    def resolve_config(self, config: Config) -> Config:
        """The snapshot a flush under ``config`` runs under: every value this
        backend reads made concrete.  Memoised per configuration value (16
        of them), so a warm flush reads neither the affinity mask nor the
        environment.
        """
        memo = self.__dict__.get("_resolved_configs")
        if memo is None:  # made here: subclasses need not call ``__init__``
            memo = self.__dict__.setdefault("_resolved_configs", BoundedLRU(16))
        resolved = memo.get(config)
        if resolved is None:
            resolved = memo.setdefault(config, self._resolve_config(config))
        return resolved

    def _resolve_config(self, config: Config) -> Config:
        """The uncached resolution; backends extend it with their own values."""
        from repro.codegen.cache import resolve_cache_dir

        return config.replace(
            parallel_num_threads=resolve_num_threads(config),
            codegen_cache_dir=resolve_cache_dir(config.codegen_cache_dir),
            dist_num_workers=max(1, int(config.dist_num_workers)),
        )

    def flush_config(self) -> Config:
        """The resolved live configuration: what a plan-less :meth:`execute`
        of a built-in backend reads once per flush and hands down."""
        return self.resolve_config(get_config())

    def prepare_plan(self, plan) -> None:
        """Hook: attach backend-specific artifacts to a freshly compiled plan.

        The execution engine calls this once per plan-cache miss (and per
        :meth:`~repro.runtime.engine.ExecutionEngine.prime`), inside the
        plan stage, under the configuration the plan carries
        (``plan.config``).  The base implementation attaches the
        liveness-driven :class:`~repro.runtime.memplan.MemoryPlan` — slot
        aliasing and zero-fill waivers are backend-independent, so every
        backend gets them for free.  Backends that precompute further
        per-program artifacts (the parallel backend's tile decomposition)
        override this, call ``super().prepare_plan(plan)`` and store their
        own artifacts alongside, so replays of the plan never recompute
        either.  Whoever executes the plan checks its artifacts first
        (:func:`~repro.checks.plancheck.maybe_check_plan`, under
        ``check_ir``).
        """
        from repro.runtime.memplan import attach_memory_plan

        attach_memory_plan(plan)

    def execute_plan(
        self, plan, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Execute a program that was bound from a prepared ``plan``.

        ``program`` is the plan's optimized program rebound onto the
        current flush's base arrays; ``plan`` carries whatever
        :meth:`prepare_plan` attached.  The default installs the plan's
        memory directives (slot aliasing, zero-fill waivers) on the
        memory manager and delegates to :meth:`execute`; it covers every
        backend whose execution itself is plan-agnostic.
        """
        from repro.runtime.memplan import bind_memory_plan

        memory = memory if memory is not None else fresh_memory(plan.config)
        bind_memory_plan(plan, program, memory)
        return self.execute(program, memory)

    def cache_stats(self) -> Dict[str, int]:
        """Counters of any backend-local caches (compiled kernels, plans).

        The default backend has no caches; backends that do (the tiled
        backends' templates, plan artifacts and compiled kernels) override
        this so the execution engine and the CLI can report them.
        """
        return {}

    def fallback_reasons(self) -> Dict[str, int]:
        """Why work left this backend's fast path: message -> count.

        Cumulative, like :meth:`cache_stats`, but kept apart from it: that
        dict is all-numeric by contract and this one is keyed by message.
        The tiers that keep a cumulative record answer (parallel, native,
        dist): steps that left native's compiled path, and launches whose
        ``BH_ERF`` ran the ``math.erf`` loop.  Per flush, every tier
        reports both in ``ExecutionStats.native_fallback_reasons``.
        """
        return {}


#: User-registered factories; consulted before the built-ins.
_BACKEND_FACTORIES: Dict[str, Callable[[], Backend]] = {}

#: The built-in backends as ``"module:attribute"``: resolving one imports
#: that module and nothing else — a ``native`` session never loads the
#: distributed tier's ``multiprocessing`` machinery.
_BUILTIN_BACKENDS: Dict[str, str] = {
    "interpreter": "repro.runtime.interpreter:NumPyInterpreter",
    "parallel": "repro.runtime.parallel:ParallelBackend",
    "native": "repro.runtime.native:NativeBackend",
    "dist": "repro.dist.backend:DistributedBackend",
}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (overwrites silently).

    A factory registered under a built-in name takes precedence over it.
    """
    _BACKEND_FACTORIES[name] = factory


def available_backends() -> tuple:
    """Names of every registered backend (imports none of them)."""
    return tuple(sorted(set(_BACKEND_FACTORIES) | set(_BUILTIN_BACKENDS)))


def get_backend(name_or_backend) -> Backend:
    """Resolve a backend instance from a name or pass an instance through."""
    if isinstance(name_or_backend, Backend):
        return name_or_backend
    if isinstance(name_or_backend, str):
        factory = _BACKEND_FACTORIES.get(name_or_backend)
        if factory is None:
            target = _BUILTIN_BACKENDS.get(name_or_backend)
            if target is None:
                raise ExecutionError(
                    f"unknown backend {name_or_backend!r}; available: {available_backends()}"
                )
            module, _, attribute = target.partition(":")
            factory = getattr(importlib.import_module(module), attribute)
        return factory()
    raise TypeError(f"expected backend name or Backend, got {type(name_or_backend)!r}")
