"""The execution engine: the staged flush → plan → backend pipeline.

Before this layer existed every flush ran the ad-hoc sequence "optimize the
pending program, then hand it to whatever backend the session resolved" —
re-paying the full fixed-point optimizer and kernel partitioning cost even
when the program was structurally identical to the previous flush.  The
:class:`ExecutionEngine` turns that sequence into three explicit stages:

1. **Fingerprint** — compute the canonical structural key of the program
   (:func:`~repro.runtime.plan.canonical_program_walk`), tolerant of
   base-array identity and of data operands (the ``BH_RANDOM`` seed) so
   iterative workloads that allocate fresh temporaries and draw fresh
   seeds every round still match.
2. **Plan** — look the fingerprint up in an LRU
   :class:`~repro.runtime.plan.PlanCache` (keyed additionally by backend
   name, pipeline signature and the signature of the flush's configuration
   snapshot: the live configuration, read once per flush and resolved by
   :meth:`~repro.runtime.backend.Backend.resolve_config`, which every
   stage below receives as an argument).
   A hit rebinds the cached optimized program onto the new program's bases
   and data values in one linear pass; a miss runs the optimization
   pipeline and caches the resulting
   :class:`~repro.runtime.plan.ExecutionPlan`.
3. **Execute** — dispatch the bound program through the backend registry
   (:func:`~repro.runtime.backend.get_backend`).  The engine resolves the
   backend once and keeps the instance, so backend-local caches (kernel
   templates, compiled kernels) persist across flushes.

Every result's :class:`~repro.runtime.instrumentation.ExecutionStats`
carries the plan-cache hit/miss outcome and the middleware overhead
(``plan_time_seconds``) of the flush, so benchmarks can prove the reuse.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.bytecode.program import Program
from repro.runtime.backend import Backend, get_backend
from repro.runtime.instrumentation import ExecutionResult
from repro.runtime.memory import MemoryManager
from repro.runtime.plan import (
    PLAN_CACHE_SIZE,
    ExecutionPlan,
    PlanCache,
    canonical_program_walk,
    config_report,
    config_signature,
    fingerprint_of_key,
)
from repro.utils.config import Config, get_config


class ExecutionEngine:
    """Fingerprints, plans and executes byte-code programs.

    Parameters
    ----------
    backend:
        Backend instance or registered backend name; defaults to the
        configuration's ``default_backend``.
    optimize:
        Whether programs run through the transformation pipeline before
        execution (default ``True``).
    pipeline:
        Custom :class:`~repro.core.pipeline.Pipeline` (it runs under the
        configuration it was built with); defaults to the canonical
        pipeline, built per plan-cache miss under the flush's snapshot.
    plan_cache_size:
        Capacity of the LRU plan cache (default
        :data:`~repro.runtime.plan.PLAN_CACHE_SIZE`, 128 plans).
    """

    def __init__(
        self,
        backend: Optional[object] = None,
        optimize: bool = True,
        pipeline=None,
        plan_cache_size: int = PLAN_CACHE_SIZE,
    ) -> None:
        self._backend_spec = backend if backend is not None else get_config().default_backend
        self._backend_instance: Optional[Backend] = None
        self.optimize = optimize
        self._pipeline = pipeline
        self.plan_cache = PlanCache(plan_cache_size)
        #: Per-cache-key build latches: when several sessions first-flush
        #: the same fingerprint concurrently, exactly one runs the
        #: optimizer; the rest wait on its latch and replay the published
        #: plan.  Without this, concurrent first-flushes double-optimize
        #: and double-insert, skewing eviction order and the counters.
        self._inflight: Dict[tuple, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self._backend_lock = threading.Lock()
        #: Cross-session dedup counters: plans actually compiled by this
        #: engine, and flushes that waited behind a concurrent compile.
        self.plans_built = 0
        self.plan_waits = 0
        # Observability of the most recent flush; under concurrent
        # sessions these reflect *some* recent flush (reads are atomic
        # object reads, never torn), which is all reporting needs.
        self.last_report = None
        self.last_plan: Optional[ExecutionPlan] = None

    # ------------------------------------------------------------------ #
    # Backend resolution
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> Backend:
        """The resolved backend instance (resolved once, then kept).

        Keeping the instance is load-bearing: backend-local caches such as
        the tiled backends' template and compiled-kernel caches only
        amortize anything if the same backend object serves every flush.  Resolution is
        double-checked under a lock so concurrent first flushes share one
        instance instead of racing two into existence (and leaking one
        backend's worker pool).
        """
        instance = self._backend_instance
        if instance is None:
            with self._backend_lock:
                if self._backend_instance is None:
                    self._backend_instance = get_backend(self._backend_spec)
                instance = self._backend_instance
        return instance

    @property
    def backend_spec(self):
        """The backend name or instance the engine was configured with."""
        return self._backend_spec

    def set_backend(self, backend) -> None:
        """Switch the engine to a different backend (plans are keyed per backend).

        The previous instance's resources (the parallel backend's worker
        pool) are released eagerly instead of waiting for garbage
        collection; ``close()`` is recoverable, so a still-shared instance
        simply rebuilds its pool on next use.
        """
        previous = self._backend_instance
        self._backend_spec = backend
        self._backend_instance = None
        if previous is not None and previous is not backend:
            closer = getattr(previous, "close", None)
            if callable(closer):
                closer()

    # ------------------------------------------------------------------ #
    # The staged pipeline
    # ------------------------------------------------------------------ #

    def _pipeline_signature(self) -> tuple:
        if self._pipeline is None:
            return ("default",)
        return self._pipeline.signature()

    def _build_pipeline(self, config: Config):
        if self._pipeline is not None:
            return self._pipeline
        from repro.core.pipeline import default_pipeline

        return default_pipeline(config=config)

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        """Run ``program`` through fingerprint → plan cache → backend.

        Returns the backend's :class:`ExecutionResult` with the plan-stage
        statistics (cache outcome, middleware overhead) filled in.
        """
        backend = self.backend
        plan_started = time.perf_counter()
        hit = False
        plan = None
        if self.optimize:
            config = backend.resolve_config(get_config())
            executable, plan, hit = self._plan(program, backend, config)
        else:
            # The direct path: the differential oracle runs here, so the
            # reference never depends on the plan machinery it checks.
            self.last_report = None
            self.last_plan = None
            executable = program
        plan_seconds = time.perf_counter() - plan_started
        miss = plan is not None and not hit

        # Plan checks already charged to this plan belong to earlier
        # flushes; the delta after execution is what this flush paid.  (A
        # concurrent flush replaying the same shared plan may skew the
        # delta by its own checks — per-flush stats are observability, the
        # authoritative totals live in ``cache_stats()``.)
        plan_checks_before = plan.plan_checks_run if hit else 0

        pool_before = memory.pool_counters() if memory is not None else None
        if memory is not None:
            memory.reset_peak_window()
        if plan is not None:
            # Per execution, not just per build, and under this flush's
            # ``check_ir``: a plan corrupted after caching never executes.
            if config.check_ir:
                from repro.checks.plancheck import maybe_check_plan

                maybe_check_plan(plan, config)
            result = backend.execute_plan(plan, executable, memory)
        else:
            if memory is not None:
                # Directives from a previous plan-bound flush must not leak
                # into a plan-less execution: a dead base's id can be
                # reused by a fresh base this program allocates.
                memory.apply_plan(None)
            result = backend.execute(executable, memory)
        stats = result.stats
        stats.plan_time_seconds = plan_seconds
        stats.plan_cache_hits += 1 if hit else 0
        stats.plan_cache_misses += 1 if miss else 0
        if miss and plan.report is not None:
            stats.ir_checks_run += plan.report.ir_checks_run
        if plan is not None:
            stats.plan_checks_run += max(0, plan.plan_checks_run - plan_checks_before)
        self._capture_memory_stats(stats, result.memory, pool_before, plan)
        return result

    @staticmethod
    def _capture_memory_stats(stats, memory: MemoryManager, pool_before, plan) -> None:
        """Fill in the buffer-pool and peak-footprint counters for one flush.

        Pool counters are cumulative on the (session-lived) memory manager,
        so the per-flush numbers are deltas against the pre-flush snapshot;
        a backend-created fresh manager starts at zero and needs none.
        """
        after = memory.pool_counters()
        before = pool_before if pool_before is not None else {}
        stats.pool_hits += after["pool_hits"] - before.get("pool_hits", 0)
        stats.pool_misses += after["pool_misses"] - before.get("pool_misses", 0)
        stats.pool_bytes_reused += after["pool_bytes_reused"] - before.get(
            "pool_bytes_reused", 0
        )
        stats.actual_peak_bytes = memory.window_peak_bytes
        memory_plan = getattr(plan, "memory_plan", None) if plan is not None else None
        if memory_plan is not None:
            stats.planned_peak_bytes = memory_plan.planned_peak_bytes

    def _fingerprint(self, program: Program, backend: Backend, config: Config):
        """Stage 1: ``(canonical bases, data values, plan-cache key)``; the
        key leads with the fingerprint."""
        key, bases, values = canonical_program_walk(program)
        fingerprint = fingerprint_of_key(key)
        cache_key = (
            fingerprint,
            backend.name,
            self._pipeline_signature(),
            config_signature(config),
        )
        return bases, values, cache_key

    def _publish_plan(
        self, backend: Backend, config: Config, cache_key: tuple, bases, values, report
    ) -> ExecutionPlan:
        """Wrap ``report`` in a backend-prepared plan and cache it."""
        from repro.core.schedule import fusion_schedule_of

        fingerprint = cache_key[0]
        report.fingerprint = fingerprint
        plan = ExecutionPlan(
            fingerprint=fingerprint,
            backend_name=backend.name,
            source_bases=bases,
            optimized=report.optimized,
            source_values=values,
            report=report,
            config=config,
            fusion_schedule=fusion_schedule_of(report),
        )
        # Plan-time backend preparation (e.g. tile decomposition): paid
        # once here, replayed for free on every hit.
        backend.prepare_plan(plan)
        self.plan_cache.put(cache_key, plan)
        self.plans_built += 1
        return plan

    def _plan(self, program: Program, backend: Backend, config: Config):
        """Stage 2: resolve an execution plan for ``program`` under ``config``.

        Returns ``(executable program, plan, hit)``.  Lookup-or-build
        is guarded by a per-cache-key in-flight latch: the first flush of a
        fingerprint claims the builder role, every concurrent flush of the
        same key waits on its latch and then replays the published plan (a
        cross-session hit) with its own bases and data values — tenants whose
        seeds differ share one build.  If the builder fails, waiters wake,
        find no plan, and compete to build it themselves — the latch can
        therefore never deadlock a fingerprint on one failed compile.
        """
        bases, values, cache_key = self._fingerprint(program, backend, config)
        while True:
            plan = self.plan_cache.get(cache_key)
            if plan is not None:
                self.last_plan = plan
                report = plan.report
                self.last_report = report.replayed() if report is not None else None
                return plan.bind(bases, values), plan, True
            with self._inflight_lock:
                waiting_on = self._inflight.get(cache_key)
                if waiting_on is None:
                    # A builder may have published between the (miss-counted)
                    # lookup and here; peek so the re-check stays silent.
                    if self.plan_cache.peek(cache_key) is not None:
                        continue
                    latch = threading.Event()
                    self._inflight[cache_key] = latch
                    break
            self.plan_waits += 1
            waiting_on.wait()
        try:
            report = self._build_pipeline(config).run(program)
            plan = self._publish_plan(backend, config, cache_key, bases, values, report)
        finally:
            with self._inflight_lock:
                self._inflight.pop(cache_key, None)
            latch.set()
        self.last_plan = plan
        self.last_report = report
        return report.optimized, plan, False

    def prime(self, program: Program, report) -> ExecutionPlan:
        """Seed the plan cache with an already-computed optimization report.

        Callers that have just run the pipeline themselves (the CLI prints
        the report before executing) hand the result over instead of letting
        the first :meth:`execute` re-optimize the same program.  The primed
        entry counts as neither hit nor miss; subsequent executions of a
        structurally identical program hit it normally.
        """
        backend = self.backend
        config = backend.resolve_config(get_config())
        bases, values, cache_key = self._fingerprint(program, backend, config)
        return self._publish_plan(backend, config, cache_key, bases, values, report)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def config_stats(self) -> Optional[Dict[str, object]]:
        """The resolved configuration the most recent planned flush ran under
        (:func:`~repro.runtime.plan.config_report`); ``None`` before one."""
        plan = self.last_plan
        return config_report(plan.config) if plan is not None else None

    def cache_stats(self) -> Dict[str, int]:
        """Plan-cache counters plus whatever the backend's caches report.

        Includes the process-wide static-check counters
        (:data:`repro.checks.COUNTERS`) — the authoritative totals of how
        often the ``check_ir`` analyzers actually ran, which test suites
        use to assert non-vacuity.
        """
        from repro.checks import COUNTERS

        stats = dict(self.plan_cache.stats())
        stats["plan_builds"] = self.plans_built
        stats["plan_waits"] = self.plan_waits
        stats.update(COUNTERS.snapshot())
        stats.update(self.backend.cache_stats())
        return stats
