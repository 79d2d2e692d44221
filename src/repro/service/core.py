"""The multi-tenant array service: sessions share one thread-safe engine.

The paper's middleware sits between many user programs and one set of
expensive artifacts — optimized plans, compiled kernels, recycled buffers.
This module is the layer that actually *shares* them: an
:class:`ArrayService` owns a single :class:`~repro.runtime.engine.ExecutionEngine`
(whose plan cache is keyed structurally, so one tenant's optimization run
is every tenant's cache hit) and a single byte-capped
:class:`~repro.runtime.memory.BufferPool`, and hands out per-tenant
:class:`ServiceSession` handles whose recorded programs, live arrays and
statistics stay fully isolated.

Admission control keeps the shared engine from being overrun: flushes are
admitted against a global in-flight cap (backpressure: excess flushes wait)
and a timeout (a flush that cannot be admitted in time fails with a clean
:class:`~repro.utils.errors.ServiceOverloadError` — nothing executed, the
session still usable).  No tenant can occupy more than one slot: a tenant
has one open session, a session is driven by one thread at a time, and a
flush never re-enters itself, so a tenant has at most one flush admitted
or waiting.

Lock ordering (see ``docs/architecture.md`` §9): admission is decided
before any engine lock is taken and released after all are dropped, so the
admission condition variable sits strictly *above* the engine/pool/codegen
locks and can never participate in a cycle with them.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.bytecode.base import BaseArray
from repro.bytecode.instruction import Instruction
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.bytecode.operand import is_constant
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.memory import BufferPool, MemoryManager
from repro.runtime.plan import PLAN_CACHE_SIZE, program_base_order
from repro.utils.errors import ExecutionError, ServiceOverloadError
from repro.utils.locking import SingleOwner

#: Default admission limits and shared-pool cap of an :class:`ArrayService`.
MAX_INFLIGHT = 16
ADMISSION_TIMEOUT_SECONDS = 5.0
SERVICE_POOL_MAX_BYTES = 1 << 28  # 256 MiB


class AdmissionController:
    """Bounded admission of flushes into the shared engine.

    Two policies compose over one condition variable:

    * **Global cap** (``max_inflight``): at most this many flushes execute
      concurrently; further arrivals block (backpressure) until a slot
      frees or the timeout expires.
    * **Timeout** (``timeout_seconds``): a waiter that cannot be admitted
      in time is rejected with :class:`ServiceOverloadError`.

    There is no per-tenant cap: through :class:`ArrayService` a tenant
    never has more than one flush admitted or waiting (one open session
    per tenant, one thread per session).

    Rejections are clean by construction: they happen strictly before the
    engine sees the program, so no partial execution ever needs undoing.
    """

    def __init__(
        self,
        max_inflight: int = MAX_INFLIGHT,
        timeout_seconds: float = ADMISSION_TIMEOUT_SECONDS,
    ) -> None:
        self.max_inflight = max_inflight
        self.timeout_seconds = timeout_seconds
        if self.max_inflight < 1:
            raise ValueError(
                f"service needs at least one in-flight slot, got {self.max_inflight}"
            )
        self._cond = threading.Condition()
        self._inflight = 0
        self.admitted = 0
        self.rejected_timeout = 0
        self.waits = 0
        self.peak_inflight = 0

    def admit(self) -> None:
        """Block until a flush may run, or raise :class:`ServiceOverloadError`."""
        with self._cond:
            # The deadline is fixed up front on the monotonic clock, so
            # repeated wakeups (other tenants winning the freed slot) can
            # never stretch one admission beyond the configured timeout.
            deadline = time.monotonic() + self.timeout_seconds
            waited = False
            while self._inflight >= self.max_inflight:
                if not waited:
                    waited = True
                    self.waits += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    if self._inflight < self.max_inflight:
                        break
                    self.rejected_timeout += 1
                    raise ServiceOverloadError(
                        f"no in-flight slot freed within {self.timeout_seconds}s "
                        f"(cap {self.max_inflight}); flush rejected cleanly"
                    )
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            self.admitted += 1

    def release(self) -> None:
        """Return an in-flight slot and wake one waiter."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def stats(self) -> Dict[str, int]:
        """Admission counters for the service's statistics report.

        ``rejected_tenant_cap`` always reads 0 (there is no per-tenant cap);
        the key stays for readers of the report that still sum it.
        """
        with self._cond:
            return {
                "admitted": self.admitted,
                "rejected_tenant_cap": 0,
                "rejected_timeout": self.rejected_timeout,
                "waits": self.waits,
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "max_inflight": self.max_inflight,
            }


class ServiceSession(Session):
    """One tenant's handle onto a shared :class:`ArrayService`.

    A thin :class:`~repro.frontend.session.Session` whose engine is the
    service's shared engine and whose memory manager recycles through the
    shared buffer pool.  Everything tenant-visible — pending byte-code,
    live base arrays, flush statistics, the manager's pool counters —
    lives on this object and never leaks across tenants; everything
    expensive — plans, compiled kernels, parked buffers — is shared
    underneath.

    Each session is contractually single-threaded (one tenant, one driver
    thread at a time); a :class:`~repro.utils.locking.SingleOwner` guard
    turns a violation into an immediate
    :class:`~repro.utils.errors.ConcurrencyError` instead of a silent race
    between two threads mutating one pending program.
    """

    def __init__(self, service: "ArrayService", tenant: object) -> None:
        super().__init__(
            engine=service.engine,
            memory=MemoryManager(pool=service.pool),
        )
        self.service = service
        self.tenant = tenant
        self.closed = False
        self._guard = SingleOwner(f"session of tenant {tenant!r}")

    def _ensure_open(self) -> None:
        if self.closed:
            raise ExecutionError(
                f"session of tenant {self.tenant!r} is closed"
            )

    def flush(self, sync_views=()) -> Optional[ExecutionResult]:
        """Flush under admission control (may raise :class:`ServiceOverloadError`).

        An admission rejection is raised *before* the pending program is
        consumed: the recorded byte-code stays pending, so the tenant can
        simply retry the flush after backing off.
        """
        with self._guard:
            self._ensure_open()
            if (
                len(self.pending) == 0
                and not sync_views
                and not self._deferred_frees
            ):
                return None
            self.service.admission.admit()
            try:
                return super().flush(sync_views)
            finally:
                self.service.admission.release()

    def execute(self, program: Program) -> ExecutionResult:
        """Run an already-built byte-code program through the shared engine.

        The raw-program seam used by the stress harness and by callers that
        construct byte-code directly (e.g. from a parsed listing) instead of
        recording through the lazy front-end.  Counts as a flush: admission
        control applies and the result lands in the session's statistics.
        """
        with self._guard:
            self._ensure_open()
            self.service.admission.admit()
            try:
                result = self.engine.execute(program, self.memory)
            finally:
                self.service.admission.release()
            self.memory = result.memory
            self._record(result.stats)
            return result

    def close(self) -> None:
        """Release the tenant's live arrays back to the shared pool.

        Idempotent.  Already-parked buffers the tenant released stay in the
        pool for other tenants to reuse — evicting them would throw away
        exactly the reuse the shared pool exists for.
        """
        with self._guard:
            if self.closed:
                return
            self.closed = True
            self.memory.free_all()


class ArrayService:
    """Owns the shared engine, pool and admission control; vends sessions.

    The service is itself thread-safe: sessions may be opened, closed and
    flushed from many threads concurrently (each individual session still
    belongs to one thread at a time).

    Parameters
    ----------
    backend, optimize, pipeline:
        Forwarded to the shared :class:`~repro.runtime.engine.ExecutionEngine`.
    plan_cache_size:
        Capacity of the shared plan cache (default 128 plans).
    max_inflight:
        Flushes executing at once across all tenants (default 16); more
        wait for a slot.  A tenant has one open session driven by one
        thread, so it never has more than one flush executing or waiting.
    admission_timeout:
        Seconds a flush waits for a slot before it is rejected with
        :class:`~repro.utils.errors.ServiceOverloadError` (default 5).
    pool_max_bytes:
        Byte cap of the buffer pool every tenant session shares (default
        256 MiB), independent of ``Config.memory_pool_max_bytes``, which
        caps a stand-alone session's private pool.  Any tenant parks
        freed buffers up to the cap and reuses any parked buffer.
    """

    def __init__(
        self,
        backend: Optional[object] = None,
        optimize: bool = True,
        pipeline=None,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        max_inflight: int = MAX_INFLIGHT,
        admission_timeout: float = ADMISSION_TIMEOUT_SECONDS,
        pool_max_bytes: int = SERVICE_POOL_MAX_BYTES,
    ) -> None:
        self.engine = ExecutionEngine(
            backend=backend,
            optimize=optimize,
            pipeline=pipeline,
            plan_cache_size=plan_cache_size,
        )
        self.pool = BufferPool(max_bytes=pool_max_bytes)
        self.admission = AdmissionController(
            max_inflight=max_inflight, timeout_seconds=admission_timeout
        )
        self._sessions: Dict[object, ServiceSession] = {}
        self._lock = threading.Lock()
        self._tenant_counter = itertools.count()
        #: The folded totals of sessions that have been closed and dropped,
        #: so :meth:`total_stats` never loses history to session churn — in
        #: one record, however many sessions came and went.
        self._retired_stats = ExecutionStats()
        self.sessions_opened = 0
        self.closed = False

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def open_session(self, tenant: Optional[object] = None) -> ServiceSession:
        """Open a session for ``tenant`` (auto-named when omitted)."""
        with self._lock:
            if self.closed:
                raise ExecutionError("service is closed")
            if tenant is None:
                tenant = f"tenant-{next(self._tenant_counter)}"
            if tenant in self._sessions:
                raise ValueError(f"tenant {tenant!r} already has an open session")
            session = ServiceSession(self, tenant)
            self._sessions[tenant] = session
            self.sessions_opened += 1
            return session

    def close_session(self, session: ServiceSession) -> None:
        """Close ``session`` and retire its statistics."""
        session.close()
        with self._lock:
            self._retire(session)

    def _retire(self, session: ServiceSession) -> None:
        """Move a closed session's total from the open table into the retired
        record (service lock held) — once, however often it is asked."""
        if self._sessions.get(session.tenant) is session:
            del self._sessions[session.tenant]
            self._retired_stats.merge(session.total_stats())

    def sessions(self) -> Tuple[ServiceSession, ...]:
        """The currently open sessions (snapshot)."""
        with self._lock:
            return tuple(self._sessions.values())

    def close(self) -> None:
        """Close every session and release the backend's resources."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            open_sessions = tuple(self._sessions.values())
        for session in open_sessions:
            session.close()
        with self._lock:
            for session in open_sessions:
                self._retire(session)
        backend = self.engine._backend_instance
        closer = getattr(backend, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "ArrayService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def total_stats(self) -> ExecutionStats:
        """Aggregate execution statistics across every flush of every tenant.

        Merges open sessions' running totals with the retired one of closed
        sessions, so the number is service-lifetime-cumulative regardless of
        churn.  A session is either open or retired under the service lock,
        and each total is read under the lock its flushes append under:
        every finished flush counts exactly once.
        """
        total = ExecutionStats(backend_name=str(self.engine.backend_spec))
        with self._lock:
            total.merge(self._retired_stats)
            for session in self._sessions.values():
                total.merge(session.total_stats())
        return total

    def stats(self) -> Dict[str, object]:
        """One nested dict with every shared-structure counter.

        The shape feeds straight into ``repro-opt --stats-json``: admission
        (backpressure behaviour), the shared pool (occupancy, discards,
        lock contention) and the engine's cache counters (plan
        builds vs cross-session hits, codegen outcomes) — all numeric —
        and, keyed by message, why steps left the compiled path, and the
        resolved configuration the latest flush ran under.
        """
        with self._lock:
            open_sessions = len(self._sessions)
        return {
            "sessions_open": open_sessions,
            "sessions_opened": self.sessions_opened,
            "admission": self.admission.stats(),
            "pool": self.pool.stats(),
            "cache": self.engine.cache_stats(),
            "native_fallback_reasons": self.engine.backend.fallback_reasons(),
            "config": self.engine.config_stats(),
        }


# --------------------------------------------------------------------------- #
# Program cloning and the stress harness
# --------------------------------------------------------------------------- #


def clone_program_with_fresh_bases(
    program: Program,
) -> Tuple[Program, Tuple[BaseArray, ...]]:
    """Copy ``program`` onto brand-new base arrays.

    Returns ``(clone, bases)`` where ``bases`` is the clone's canonical
    (first-use) base order.  This is what a real tenant does every
    iteration — same structure, fresh temporaries — so it is exactly the
    shape that must produce cross-session plan-cache hits: every clone
    fingerprints identically while sharing no storage with any other.
    """
    mapping: Dict[int, BaseArray] = {}
    fresh_order: List[BaseArray] = []
    for base in program_base_order(program):
        fresh = BaseArray(base.nelem, base.dtype)
        mapping[id(base)] = fresh
        fresh_order.append(fresh)
    view_cache: Dict[int, View] = {}

    def clone_operand(operand):
        if is_constant(operand):
            return operand
        cached = view_cache.get(id(operand))
        if cached is None:
            cached = View(
                mapping[id(operand.base)],
                operand.offset,
                operand.shape,
                operand.strides,
            )
            view_cache[id(operand)] = cached
        return cached

    def clone_instruction(instruction: Instruction) -> Instruction:
        operands = tuple(clone_operand(op) for op in instruction.operands)
        kernel = None
        if instruction.kernel is not None:
            kernel = tuple(clone_instruction(inner) for inner in instruction.kernel)
        return Instruction(
            instruction.opcode, operands, kernel=kernel, tag=instruction.tag
        )

    clone = Program(clone_instruction(instruction) for instruction in program)
    return clone, tuple(fresh_order)


def _snapshot(bases: Tuple[BaseArray, ...], memory: MemoryManager) -> tuple:
    """Bitwise state of every still-allocated base, by canonical position."""
    state = []
    for index, base in enumerate(bases):
        if memory.is_allocated(base):
            state.append((index, memory.allocate(base).tobytes()))
    return tuple(state)


def run_service_stress(
    program: Program,
    threads: int = 4,
    sessions: int = 8,
    repeats: int = 3,
    backend: Optional[object] = None,
    pipeline=None,
    service: Optional[ArrayService] = None,
) -> Dict[str, object]:
    """Hammer one service with ``sessions`` tenants over ``threads`` threads.

    Every tenant executes a fresh-based clone of ``program`` ``repeats``
    times; each result is compared *bitwise* against a serial reference
    computed on a private engine of the same backend.  Sessions are
    partitioned across threads (a session stays on one thread — its
    single-owner contract), so all cross-thread interleaving happens in
    the shared engine, pool and admission controller, which is where the
    bugs would live.

    Returns a report dict (``ok``, ``mismatches``, ``errors``, per-layer
    stats) consumed by ``repro-opt --serve-stress`` and the stress suite.
    """
    if threads < 1 or sessions < 1 or repeats < 1:
        raise ValueError("threads, sessions and repeats must all be at least 1")

    # Serial reference on a private engine: same backend spec, no sharing.
    reference_engine = ExecutionEngine(backend=backend, pipeline=pipeline)
    reference_clone, reference_bases = clone_program_with_fresh_bases(program)
    reference_result = reference_engine.execute(reference_clone, MemoryManager())
    reference = _snapshot(reference_bases, reference_result.memory)
    reference_closer = getattr(reference_engine._backend_instance, "close", None)
    if callable(reference_closer):
        reference_closer()

    owns_service = service is None
    if owns_service:
        service = ArrayService(backend=backend, pipeline=pipeline)
    mismatches = [0]
    errors: List[str] = []
    rejections = [0]
    record_lock = threading.Lock()
    handles = [service.open_session() for _ in range(sessions)]

    def drive(partition: List[ServiceSession]) -> None:
        try:
            for session in partition:
                for _ in range(repeats):
                    clone, bases = clone_program_with_fresh_bases(program)
                    try:
                        result = session.execute(clone)
                    except ServiceOverloadError:
                        with record_lock:
                            rejections[0] += 1
                        continue
                    snapshot = _snapshot(bases, result.memory)
                    if snapshot != reference:
                        with record_lock:
                            mismatches[0] += 1
                    # Free the clone's surviving arrays so session memory
                    # does not grow with the repeat count — and so the
                    # shared pool's recycle path churns under contention.
                    for base in bases:
                        result.memory.free(base)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with record_lock:
                errors.append(f"{type(exc).__name__}: {exc}")

    partitions: List[List[ServiceSession]] = [[] for _ in range(threads)]
    for index, session in enumerate(handles):
        partitions[index % threads].append(session)
    workers = [
        threading.Thread(target=drive, args=(partition,), name=f"stress-{i}")
        for i, partition in enumerate(partitions)
        if partition
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    total = service.total_stats()
    stats = service.stats()
    for session in handles:
        service.close_session(session)
    if owns_service:
        service.close()

    flushes = sessions * repeats
    report: Dict[str, object] = {
        "backend": service.engine.backend.name,
        "threads": threads,
        "sessions": sessions,
        "repeats": repeats,
        "flushes": flushes,
        "executed": flushes - rejections[0],
        "mismatches": mismatches[0],
        "rejections": rejections[0],
        "errors": errors,
        "total_wall_seconds": total.wall_time_seconds,
        "plan_builds": stats["cache"]["plan_builds"],
        "plan_cache_hits": stats["cache"]["plan_cache_hits"],
        "pool_peak_bytes_held": stats["pool"]["pool_peak_bytes_held"],
        "pool_max_bytes": service.pool.max_bytes,
        "stats": stats,
    }
    report["ok"] = not errors and mismatches[0] == 0
    return report
