"""The recording session behind the lazy front-end.

A :class:`Session` owns:

* the byte-code recorded since the last flush (the *pending program*),
* the memory manager holding materialized base arrays across flushes,
* the :class:`~repro.runtime.engine.ExecutionEngine` that fingerprints,
  plans and executes each flush (and caches plans across flushes),
* statistics of its flushes: a running total of all of them and the
  records of the most recent :data:`STATS_HISTORY_WINDOW`.

A module-level default session exists so the front-end can be used like
NumPy without explicitly threading a session object around; tests create
private sessions to stay isolated.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional, Sequence

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.pipeline import OptimizationReport
from repro.runtime.backend import Backend
from repro.runtime.engine import ExecutionEngine
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.memory import MemoryManager
from repro.utils.config import get_config


#: Flush records ``Session.stats_history`` keeps, newest last.  A record is
#: ~2.4 KB, so a history of every flush is a leak at service flush rates
#: (60 MiB after 10 000 flushes); older records live on in the running total
#: only.  A constant, not a knob: readers use the last record or sum a
#: short session.
STATS_HISTORY_WINDOW = 64


class Session:
    """Records byte-code lazily and executes it at flush points."""

    def __init__(
        self,
        backend: Optional[object] = None,
        optimize: Optional[bool] = None,
        pipeline=None,
        engine: Optional[ExecutionEngine] = None,
        memory: Optional[MemoryManager] = None,
    ) -> None:
        """
        Parameters
        ----------
        backend:
            Backend instance or registered backend name (``"interpreter"``,
            ``"jit"``, ``"parallel"``, ``"native"``, ``"dist"``); defaults
            to the configuration's ``default_backend``.
            ``Session(backend="parallel")`` executes flushes on the tiled
            multi-threaded backend.
        optimize:
            Whether flushes run the transformation pipeline first; defaults
            to the configuration's ``optimize`` flag.
        pipeline:
            Custom :class:`~repro.core.pipeline.Pipeline`; defaults to the
            canonical pipeline.
        engine:
            An existing (possibly shared) :class:`ExecutionEngine` to flush
            through instead of constructing a private one.  This is how the
            multi-tenant :class:`~repro.service.ArrayService` multiplexes
            many sessions onto one thread-safe plan/kernel cache; when
            given, ``backend``/``optimize``/``pipeline`` must be ``None``
            (they describe an engine this session would otherwise build).
        memory:
            An existing :class:`MemoryManager` holding this session's base
            arrays — the service passes one whose buffer pool is a
            per-tenant view over the shared pool.  Defaults to a private
            manager.
        """
        config = get_config()
        if engine is not None:
            if backend is not None or optimize is not None or pipeline is not None:
                raise ValueError(
                    "pass either a shared engine or backend/optimize/pipeline "
                    "settings for a private one, not both"
                )
            self.engine = engine
        else:
            self.engine = ExecutionEngine(
                backend=backend, optimize=optimize, pipeline=pipeline
            )
        self.memory = memory if memory is not None else MemoryManager()
        self.pending = Program()
        self.flush_count = 0
        self.stats_history: Deque[ExecutionStats] = deque(maxlen=STATS_HISTORY_WINDOW)
        self._total = ExecutionStats()
        # Taken by each append and by ``total_stats``, which a service reads
        # from other threads than the one that flushes.
        self._stats_lock = threading.Lock()
        self._seed_counter = config.random_seed
        self._base_refcounts: dict = {}
        self._bases_by_id: dict = {}
        self._deferred_frees: list = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> Backend:
        """The resolved backend instance (owned by the engine)."""
        return self.engine.backend

    @property
    def optimize_enabled(self) -> bool:
        """Whether flushes run the optimization/planning stage."""
        return self.engine.optimize_enabled

    @optimize_enabled.setter
    def optimize_enabled(self, enabled: bool) -> None:
        self.engine.optimize_enabled = enabled

    @property
    def last_report(self) -> Optional[OptimizationReport]:
        """The optimization report of the most recent flush.

        On plan-cache hits this is a replayed copy of the cached report (its
        ``cached`` flag is set); ``None`` when nothing ran or optimization
        was disabled.
        """
        return self.engine.last_report

    @last_report.setter
    def last_report(self, report: Optional[OptimizationReport]) -> None:
        self.engine.last_report = report

    def record(self, instruction: Instruction) -> None:
        """Append one byte-code to the pending program."""
        self.pending.append(instruction)

    def next_seed(self) -> int:
        """Deterministic per-call seed for ``BH_RANDOM`` byte-codes."""
        self._seed_counter += 1
        return self._seed_counter

    def pending_size(self) -> int:
        """Number of byte-codes recorded since the last flush."""
        return len(self.pending)

    # ------------------------------------------------------------------ #
    # Base-array lifetime tracking (mirrors Bohrium's BH_FREE-on-GC)
    # ------------------------------------------------------------------ #

    def retain_base(self, base) -> None:
        """Note that one more front-end array refers to ``base``."""
        key = id(base)
        self._base_refcounts[key] = self._base_refcounts.get(key, 0) + 1
        self._bases_by_id[key] = base

    def release_base(self, base) -> None:
        """Note that one front-end array referring to ``base`` was collected.

        When the last reference disappears a ``BH_FREE`` byte-code is
        scheduled — exactly what Bohrium does when the owning Python object
        is garbage collected.  The free is *deferred to the end of the next
        flush* rather than recorded immediately: garbage collection can run
        between two recorded byte-codes of one expression, and an eager free
        would then precede (and invalidate) uses recorded a moment later.
        Deferring keeps every free after every recorded use of the base,
        which is what lets the optimizer's liveness analysis prove such
        temporaries dead (and makes the Equation 2 rewrite legal for the
        ``inv(A) @ b`` idiom, where the inverse is an unnamed temporary).
        A base the next flush records no use of is freed at its front
        instead (see :meth:`flush`).
        """
        key = id(base)
        count = self._base_refcounts.get(key)
        if count is None:
            return
        if count > 1:
            self._base_refcounts[key] = count - 1
            return
        del self._base_refcounts[key]
        self._bases_by_id.pop(key, None)
        self._deferred_frees.append(base)

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #

    def flush(self, sync_views: Sequence[View] = ()) -> Optional[ExecutionResult]:
        """Optimize and execute the pending byte-code.

        Parameters
        ----------
        sync_views:
            Views whose values the caller is about to observe; a ``BH_SYNC``
            is appended for each so the optimizer knows they are outputs.

        Returns the backend's :class:`ExecutionResult`, or ``None`` when
        there was nothing to execute.
        """
        if len(self.pending) == 0 and not sync_views and not self._deferred_frees:
            return None
        # Garbage-collected temporaries are freed at the end of the batch so
        # the free always follows every recorded use of the base.  A base
        # this batch has no use of (the previous flush's result, typically)
        # is freed at the front instead: its buffer is back in the pool
        # before the batch's first allocation, not after its last.
        used = {id(base) for base in self.pending.bases()}
        used.update(id(view.base) for view in sync_views)
        freed, self._deferred_frees = self._deferred_frees, []
        program = Program(
            Instruction(OpCode.BH_FREE, (View.full(base),))
            for base in freed
            if id(base) not in used
        )
        program.extend(self.pending)
        for view in sync_views:
            program.append(Instruction(OpCode.BH_SYNC, (view,)))
        for base in freed:
            if id(base) in used:
                program.append(Instruction(OpCode.BH_FREE, (View.full(base),)))
        if len(program) == 0:
            return None
        result = self.engine.execute(program, self.memory)
        self.memory = result.memory
        # A rewrite that deletes a base's only definition deletes its free
        # with it; storage an *earlier* flush gave such a base goes here.
        for base in freed:
            self.memory.free(base)
        self._record(result.stats)
        self.pending = Program()
        return result

    def _record(self, stats: ExecutionStats) -> None:
        """Keep one finished flush's record: in the window and in the total."""
        with self._stats_lock:
            self.stats_history.append(stats)
            self._total.merge(stats)
        self.flush_count += 1

    def total_stats(self) -> ExecutionStats:
        """Aggregate statistics across every flush so far (a copy)."""
        total = ExecutionStats(backend_name=str(self.engine.backend_spec))
        with self._stats_lock:
            return total.merge(self._total)

    def cache_stats(self) -> Dict[str, int]:
        """Plan-cache and backend cache counters for this session's engine."""
        return self.engine.cache_stats()


_SESSION: Optional[Session] = None


def get_session() -> Session:
    """Return the active default session, creating it on first use."""
    global _SESSION
    if _SESSION is None:
        _SESSION = Session()
    return _SESSION


def set_session(session: Session) -> Session:
    """Install ``session`` as the default session and return it."""
    global _SESSION
    _SESSION = session
    return session


def reset_session(
    backend: Optional[object] = None,
    optimize: Optional[bool] = None,
    pipeline=None,
) -> Session:
    """Discard any recorded state and start a fresh default session."""
    return set_session(Session(backend=backend, optimize=optimize, pipeline=pipeline))
