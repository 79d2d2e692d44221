"""The distributed backend: sharded execution over worker processes.

The master (this process) owns all data — every base a shard must
address lives in a shared-memory segment from the
:class:`~repro.dist.shardstore.ShardStore`, which the flush's memory plan
draws its storage from (temporaries on one plan slot share one segment,
kernel-local bases get none) — and sequences execution step by step over a
persistent pool of spawned worker processes, one flush at a time per pool.
A flush of N shards runs shard 0 on the master, with the worker's own
shard code (:meth:`repro.dist.worker.LoadedPlan.run_shard`), and shards 1 … N − 1 in
N − 1 worker processes.  The hot path ships nothing but plan tokens and
shard descriptors: a cold plan is pickled to the pool once (``load``),
each flush sends one segment-name mapping per worker (``map``) and one
``step``/``complete`` round trip per distributed step per participating
worker.  Array payloads never cross the control channel; the counters
prove it rather than assume it.  Nor do rows move between workers: each
``map`` frame names the same segments to every worker, so a shard whose
views reach past its rows reads its neighbours' where they lie.

Pools are process-wide singletons per worker count: every session/engine
constructs its own backend instance, and respawning interpreters per
instance would swamp any benefit.  A worker death tears the pool down
(clean :class:`~repro.utils.errors.DistributedExecutionError`, no hang)
and the next flush simply respawns.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from functools import partial
from multiprocessing import connection, get_context
from types import SimpleNamespace
from typing import Dict, Optional

import numpy as np

from repro.bytecode.opcodes import OpCode
from repro.codegen.cache import resolve_cache_dir, resolve_runtime
from repro.dist.planner import (
    DistPlan,
    MapShardStep,
    MasterStep,
    ReduceShardStep,
    build_dist_plan,
    validate_dist_plan,
)
from repro.dist.protocol import (
    array_payload_nbytes,
    decode_frame,
    encode_frame,
    make_frame,
)
from repro.dist.shardstore import ShardStore
from repro.runtime.backend import fresh_memory
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.memory import MemoryManager
from repro.runtime.memplan import bind_memory_plan
from repro.runtime.parallel import ParallelBackend
from repro.runtime.plan import (
    config_signature,
    fingerprint_of_key,
    program_base_order,
    program_fingerprint,
)
from repro.runtime.tiling import TiledReduceStep, combine_partials
from repro.utils.errors import DistributedExecutionError
from repro.utils.lru import BoundedLRU

#: Plan tokens a pool keeps loaded, per worker — as many as one engine's
#: plan cache holds by default.  The master evicts the least recently
#: flushed token beyond this and names it in the ``load`` frame that
#: displaced it.  A constant like ``KERNEL_CACHE_CAPACITY``, not a knob.
PLAN_TABLE_CAPACITY = 128

#: Generous ceilings — the watchdog for a wedged (but alive) worker.  A
#: *dead* worker is detected immediately through its process sentinel.
HELLO_TIMEOUT_SECONDS = 120.0
STEP_TIMEOUT_SECONDS = 300.0

#: The frame kinds a worker answers (``loaded``, ``complete``); ``map``,
#: ``crash`` and ``shutdown`` are one-way.
REPLIED_KINDS = ("load", "step")


class WorkerDiedError(DistributedExecutionError):
    """A worker process exited while the master awaited its reply."""


class _WorkerHandle:
    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn


class WorkerPool:
    """A persistent pool of spawned workers behind duplex pipes: for flushes
    of ``num_workers`` shards, workers 1 … ``num_workers`` − 1 — the master
    runs shard 0 itself, so one shard spawns nothing."""

    def __init__(self, num_workers: int) -> None:
        from repro.dist.worker import worker_main

        ctx = get_context("spawn")
        self.num_workers = num_workers
        self.workers: Dict[int, _WorkerHandle] = {}
        #: Held across one whole flush (binding included): the pipes carry
        #: one conversation, and the flush's slot segments belong to
        #: exactly one flush at a time.
        self.flush_lock = threading.Lock()
        #: Plan tokens every live worker has cached (cold-load bookkeeping).
        #: The policy is the master's: workers drop what this table evicts.
        self.loaded_tokens = BoundedLRU(PLAN_TABLE_CAPACITY)
        #: The largest plan table any worker reported in reply to the last
        #: ``load``: the bound above, observed where the memory is.
        self.worker_plans = 0
        self.frames_sent = 0
        self.frames_received = 0
        #: Requests sent whose good reply has not been read (each spawned
        #: worker owes a hello).  Non-zero when an exception leaves a flush
        #: means the pipes and the bookkeeping above are out of step with
        #: the workers: the next flush would read this one's replies.
        self.replies_outstanding = num_workers - 1
        try:
            for worker_id in range(1, num_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=worker_main,
                    args=(worker_id, child_conn),
                    name=f"repro-dist-worker-{worker_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.workers[worker_id] = _WorkerHandle(worker_id, process, parent_conn)
            for handle in self.workers.values():
                frame = self._recv_handle(handle, HELLO_TIMEOUT_SECONDS, None)
                if frame["kind"] != "hello":
                    raise DistributedExecutionError(
                        f"worker {handle.worker_id} spoke {frame['kind']!r} before hello"
                    )
        except BaseException:
            # No pool object escapes to shut them down later.
            self.shutdown(graceful=False)
            raise

    def healthy(self) -> bool:
        return all(handle.process.is_alive() for handle in self.workers.values())

    # ------------------------------------------------------------------ #
    # Framed, metered channel
    # ------------------------------------------------------------------ #

    def send(self, worker_id: int, frame: dict, stats: Optional[ExecutionStats]) -> None:
        handle = self.workers[worker_id]
        data = encode_frame(frame)
        self.frames_sent += 1
        if frame["kind"] in REPLIED_KINDS:
            self.replies_outstanding += 1
        if stats is not None:
            stats.dist_control_frames += 1
            stats.dist_control_bytes += len(data)
            stats.dist_payload_bytes += array_payload_nbytes(frame)
        try:
            handle.conn.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDiedError(
                f"worker {worker_id} (pid {handle.process.pid}) is gone: {exc}"
            ) from exc

    def recv(
        self,
        worker_id: int,
        stats: Optional[ExecutionStats],
        timeout: float = STEP_TIMEOUT_SECONDS,
    ) -> dict:
        return self._recv_handle(self.workers[worker_id], timeout, stats)

    def _recv_handle(
        self, handle: _WorkerHandle, timeout: float, stats: Optional[ExecutionStats]
    ) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DistributedExecutionError(
                    f"worker {handle.worker_id} did not reply within {timeout:.0f}s"
                )
            ready = connection.wait(
                [handle.conn, handle.process.sentinel], timeout=remaining
            )
            if handle.conn in ready:
                try:
                    data = handle.conn.recv_bytes()
                except EOFError as exc:
                    raise WorkerDiedError(
                        f"worker {handle.worker_id} closed its channel mid-flush"
                    ) from exc
                self.frames_received += 1
                frame = decode_frame(data)
                if stats is not None:
                    stats.dist_control_frames += 1
                    stats.dist_control_bytes += len(data)
                    stats.dist_payload_bytes += array_payload_nbytes(frame)
                if frame["kind"] == "error":
                    raise DistributedExecutionError(
                        f"worker {handle.worker_id} failed: {frame['message']}\n"
                        f"{frame['traceback']}"
                    )
                self.replies_outstanding -= 1
                return frame
            if handle.process.sentinel in ready:
                # Drain a reply that raced the death before declaring it.
                if handle.conn.poll(0):
                    continue
                raise WorkerDiedError(
                    f"worker {handle.worker_id} (pid {handle.process.pid}) died "
                    f"mid-flush (exit code {handle.process.exitcode})"
                )

    def shutdown(self, graceful: bool = True) -> None:
        for handle in self.workers.values():
            try:
                if graceful and handle.process.is_alive():
                    handle.conn.send_bytes(encode_frame(make_frame("shutdown")))
                # Either way the worker's next read ends its serve loop.
                handle.conn.close()
            except OSError:
                pass
        for handle in self.workers.values():
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        self.loaded_tokens.clear()


# --------------------------------------------------------------------------- #
# Process-wide pool and store singletons
# --------------------------------------------------------------------------- #

_POOLS: Dict[int, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()
_STORE: Optional[ShardStore] = None
_STORE_LOCK = threading.Lock()
_WORKERS_SPAWNED = 0


def _get_store() -> ShardStore:
    global _STORE
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = ShardStore()
        return _STORE


def _get_pool(num_workers: int) -> WorkerPool:
    """The shared pool for ``num_workers``, (re)spawned when absent or dead."""
    global _WORKERS_SPAWNED
    with _POOLS_LOCK:
        pool = _POOLS.get(num_workers)
        if pool is not None and pool.healthy():
            return pool
        if pool is not None:
            pool.shutdown(graceful=False)
        pool = WorkerPool(num_workers)
        _WORKERS_SPAWNED += len(pool.workers)
        _POOLS[num_workers] = pool
        return pool


def _discard_pool(pool: WorkerPool) -> None:
    with _POOLS_LOCK:
        if _POOLS.get(pool.num_workers) is pool:
            del _POOLS[pool.num_workers]
    pool.shutdown(graceful=False)


def _shutdown_all_pools() -> None:
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(_shutdown_all_pools)


class DistributedBackend(ParallelBackend):
    """Plan execution sharded across a pool of worker processes.

    Subclasses the tiled parallel backend for its plan integration (tile
    decomposition at prepare time, plan-less programs wrapped in ordinary
    plans) and replaces the launch layer: tiled steps run as row shards —
    shard 0 on the master, the others in worker processes over the control
    channel — instead of as tiles on threads; serial steps run on the
    master against the same shared-memory storage.
    """

    name = "dist"

    def __init__(self) -> None:
        super().__init__()
        self.loads_shipped = 0

    # ------------------------------------------------------------------ #
    # Plan integration
    # ------------------------------------------------------------------ #

    def prepare_plan(self, plan) -> None:
        """Attach tiling (parent), the shard plan and the master's shard 0."""
        super().prepare_plan(plan)
        config = plan.config
        # The token names what a worker loads: the program and the
        # configuration its tiling, sharding and vector erf derive from.
        token = fingerprint_of_key(
            (program_fingerprint(plan.optimized), config_signature(config))
        )
        dist_plan = build_dist_plan(
            plan.optimized, plan.tiling, config.dist_num_workers
        )._with_token(token)
        if config.dist_num_workers == 1:
            # No worker loads this plan, so none checks it: the master does,
            # once, and charges the checks to the plan like its own.
            from repro.checks import COUNTERS

            checks = validate_dist_plan(
                plan.optimized, plan.tiling, dist_plan, config.check_ir
            )
            COUNTERS.note_plan_check(checks)
            with plan.lock:
                plan.plan_checks_run += checks
        # The shard code, imported with the first plan that runs it.
        from repro.dist.worker import LoadedPlan

        plan.dist_plan = dist_plan
        plan.dist_loaded = LoadedPlan(plan.optimized, dist_plan, config)

    def execute_plan(self, plan, program, memory: Optional[MemoryManager] = None):
        memory = memory if memory is not None else fresh_memory(plan.config)
        store = _get_store()
        # The store as this flush's storage source, under its budget.
        source = SimpleNamespace(
            create=partial(store.create, max_bytes=plan.config.dist_shm_max_bytes),
            release=store.release,
        )
        bind_memory_plan(plan, program, memory, source=source)
        return self._run(program, plan, memory)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run(self, program, plan, memory: MemoryManager) -> ExecutionResult:
        dist_plan: DistPlan = plan.dist_plan
        stats = ExecutionStats(backend_name=self.name)
        stats.dist_workers_used = dist_plan.num_workers
        private = dist_plan.unbound_positions(plan.memory_plan is not None)
        start = time.perf_counter()
        filled = memory.zero_fill_bytes
        try:
            while True:
                pool = _get_pool(dist_plan.num_workers)
                with pool.flush_lock:
                    if not pool.healthy():
                        continue  # died under the previous holder: respawn
                    try:
                        self._run_sharded(
                            pool, program, plan, private, memory, stats
                        )
                    except BaseException as exc:
                        if isinstance(exc, WorkerDiedError) or pool.replies_outstanding:
                            _discard_pool(pool)
                        raise
                break
        finally:
            # Slot segments go back to the store with the flush, not with
            # the manager's next plan; a failed flush has already unbound
            # their occupants.
            memory.clear_plan()
            stats.dist_zero_fill_bytes = memory.zero_fill_bytes - filled
            stats.wall_time_seconds = time.perf_counter() - start
            with self._cache_lock:
                self._totals.merge(stats)
        return ExecutionResult(memory=memory, stats=stats)

    def _bind(self, memory: MemoryManager, base_order, private, store, budget, stats):
        """Settle every addressable base's segment before the first step.

        Returns ``position -> (segment name, nbytes)``: a resident base is
        a token hit (the zero-copy warm path), a host-resident one migrates
        into a dedicated segment, anything else gets the storage its
        directive names from the store.  ``private`` positions get nothing.
        """
        segments = {}
        for position, base in enumerate(base_order):
            if position in private:
                continue
            name = memory.external_token(base)
            if name is None:
                stats.dist_bases_adopted += 1
                if memory.is_allocated(base):
                    host = memory.allocate(base)
                    name, buffer = store.create(base.nbytes, budget)
                    typed = buffer[: base.nbytes].view(base.dtype.np_dtype)
                    np.copyto(typed, host)
                    stats.dist_bytes_migrated += base.nbytes
                    memory.free(base)  # recycle the host buffer through the pool
                    memory.adopt_external(
                        base, typed, release=partial(store.release, name), token=name
                    )
                else:
                    name = memory.reserve(base)
            segments[position] = (name, base.nbytes)
        return segments

    def _run_sharded(self, pool, program, plan, private, memory, stats) -> None:
        tiling, dist_plan, config = plan.tiling, plan.dist_plan, plan.config
        loaded = plan.dist_loaded
        budget = config.dist_shm_max_bytes
        store = _get_store()
        workers = range(1, dist_plan.num_workers)
        base_order = program_base_order(program)
        private_ids = {id(base_order[position]) for position in private}
        scratch_name = None
        # What a failed flush must unbind again: storage it created itself.
        fresh = [base for base in base_order if not memory.is_allocated(base)]
        try:
            # Free before reserve, the order every other tier executes: the
            # previous result's segment is parked where slot 0 picks it up,
            # not held beside it (the step loop's own frees are then no-ops).
            for instruction in program:
                if instruction.opcode is not OpCode.BH_FREE:
                    break
                for view in instruction.views():
                    memory.free(view.base)
            segments = self._bind(memory, base_order, private, store, budget, stats)
            if dist_plan.max_partials:
                scratch_name, _ = store.create(
                    dist_plan.max_partials * dist_plan.partial_itemsize, budget
                )
            # Shard 0's storage: the segments just bound, as this process
            # already maps them, under the contract a worker's ``map`` obeys.
            shard_memory = loaded.map_segments(segments, scratch_name, store.buffer)
            if workers and pool.loaded_tokens.get(dist_plan.token) is None:
                extras = {}
                if dist_plan.shards_erf:
                    # Workers load the vector erf from a cache directory and
                    # never compile: name the one this process's runtime
                    # really lies in (a runtime already loaded serves every
                    # directory here, and is written to none).
                    runtime = resolve_runtime(config.codegen_cache_dir)[0]
                    extras["codegen"] = (
                        os.path.dirname(runtime.path)
                        if runtime is not None
                        else resolve_cache_dir(config.codegen_cache_dir)
                    )
                payload = pickle.dumps(
                    (program, tiling, dist_plan), protocol=pickle.HIGHEST_PROTOCOL
                )
                load = make_frame(
                    "load",
                    token=dist_plan.token,
                    payload=payload,
                    check=bool(config.check_ir),
                    evict=pool.loaded_tokens.put(dist_plan.token, True),
                    **extras,
                )
                pool.worker_plans = 0
                for worker_id in workers:
                    pool.send(worker_id, load, stats)
                for worker_id in workers:
                    frame = pool.recv(worker_id, stats)
                    if frame["kind"] != "loaded":
                        raise DistributedExecutionError(
                            f"expected loaded ack, got {frame['kind']!r}"
                        )
                    checks = int(frame["plan_checks_run"])
                    if checks:
                        from repro.checks import COUNTERS

                        COUNTERS.note_plan_check(checks)
                        stats.plan_checks_run += checks
                    pool.worker_plans = max(pool.worker_plans, int(frame["plans"]))
                self.loads_shipped += 1
            map_frame = make_frame(
                "map",
                token=dist_plan.token,
                segments=segments,
                scratch=scratch_name,
            )
            for worker_id in workers:
                pool.send(worker_id, map_frame, stats)
            for shard_step, tile_step in zip(dist_plan.steps, tiling.steps):
                instruction = program[shard_step.index]
                if isinstance(shard_step, MasterStep):
                    if isinstance(tile_step, TiledReduceStep):
                        # Kept here by the shard planner, counted; the spans
                        # and combine tree stay the tiling's, so do the bits.
                        stats.note_fallback(f"dist: {shard_step.reason}")
                        serial = config.replace(parallel_num_threads=1)
                        self._run_reduce(instruction, tile_step, memory, stats, serial)
                    else:
                        self._run_serial(instruction, memory, stats, config)
                    continue
                # Slot occupants bind (and zero-fill, unless waived) here,
                # when the slot's previous occupant is dead; a private base
                # has no storage to bind.
                for view in instruction.views():
                    if id(view.base) not in private_ids:
                        memory.allocate(view.base)
                self._launch_shards(
                    pool, loaded, shard_step, instruction, memory, shard_memory, stats
                )
        except BaseException:
            # A flush that dies leaves no base bound to storage it no
            # longer owns: what it created goes back to the store with it.
            for base in fresh:
                memory.free(base)
            raise
        finally:
            if scratch_name is not None:
                store.release(scratch_name)

    def _launch_shards(
        self, pool, loaded, step, instruction, memory, shard_memory, stats
    ) -> None:
        """Run one distributed step: send it to the workers' shards, run
        shard 0 here on the flushing thread, then collect the replies."""
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        stats.record_launch(instructions, fused)
        stats.tiled_instructions += len(instructions)
        if isinstance(step, MapShardStep):
            shards = range(len(step.shards))
            stats.tiles_executed += len(step.shards)
        else:
            shards = [shard for shard, spans in enumerate(step.assignments) if spans]
            stats.tiles_executed += len(step.spans)
        stats.dist_shard_launches += len(shards)
        frame = make_frame("step", token=loaded.dist_plan.token, step=step.index)
        for worker_id in shards[1:]:
            pool.send(worker_id, frame, stats)
        try:
            self._fold(loaded.run_shard(step, 0, shard_memory), stats)
        except DistributedExecutionError:
            raise
        except Exception as exc:
            raise DistributedExecutionError(
                f"shard 0 failed on the master: {type(exc).__name__}: {exc}"
            ) from exc
        for worker_id in shards[1:]:
            reply = pool.recv(worker_id, stats)
            if reply["kind"] != "complete" or reply["step"] != step.index:
                raise DistributedExecutionError(
                    f"out-of-order reply {reply['kind']!r} for step {step.index}"
                )
            self._fold(reply["counters"], stats)
        if isinstance(step, ReduceShardStep) and step.combine:
            # Spans depend only on tiling configuration and the combine
            # order only on the span count, so the result is bitwise
            # identical at any worker count.
            dtype = np.dtype(step.partial_dtype)
            scratch = shard_memory.scratch[: len(step.spans) * dtype.itemsize]
            combine_partials(memory, instructions[-1], scratch.view(dtype))

    @staticmethod
    def _fold(counters: dict, stats) -> None:
        """Note what a shard reports — a worker's ``complete`` frame or
        shard 0's counters — on the flush's record."""
        stats.template_slots_elided += int(counters.get("template_slots_elided", 0))
        stats.note_fallback(counters.get("erf_fallback"))

    # ------------------------------------------------------------------ #
    # Fault injection and statistics
    # ------------------------------------------------------------------ #

    def inject_worker_crash(self, worker_id: int = 1) -> None:
        """Queue a crash frame for one worker (tests: deterministic death);
        workers are numbered from 1, by the shard they run.

        The worker dies when it *processes* the frame — before any later
        queued work — so a flush sent immediately afterwards observes a
        mid-flush death.
        """
        pool = _get_pool(self.flush_config().dist_num_workers)
        pool.send(worker_id, make_frame("crash"), None)

    def cache_stats(self) -> Dict[str, int]:
        stats = super().cache_stats()
        stats.update(_get_store().stats())
        stats.update(
            {
                "dist_workers_spawned": _WORKERS_SPAWNED,
                "dist_shard_launches": self._totals.dist_shard_launches,
                "dist_payload_bytes": self._totals.dist_payload_bytes,
                "dist_bases_adopted": self._totals.dist_bases_adopted,
                "dist_zero_fill_bytes": self._totals.dist_zero_fill_bytes,
                "dist_loads_shipped": self.loads_shipped,
            }
        )
        pool = _POOLS.get(self.flush_config().dist_num_workers)
        if pool is not None:
            stats.update(pool.loaded_tokens.stats("dist_plan_table_"))
            stats["dist_worker_plans"] = pool.worker_plans
        return stats
