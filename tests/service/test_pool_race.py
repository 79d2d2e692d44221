"""Regression tests for BufferPool recycle/stats races, for tenants sharing
one pool, and for the tiled backends' worker-thread pools.

Before the pool lock, concurrent sessions recycling through one shared
pool could pop the same parked buffer twice (two tenants writing through
one storage block) and lose counter increments to read-modify-write
interleavings.  These tests hammer the pool from many threads and assert
the invariants the service depends on: no double-hand-out, a byte cap
that is never exceeded, and counters that add up exactly.

A tiled backend's thread pool has the same shape of hazard: a flush
resolves the pool for its thread count and then submits its tile blocks
to it, so a flush on the same instance that asks for a different count
must never shut that pool down under it.
"""

import threading
import time

import numpy as np

from repro.bytecode.base import BaseArray
from repro.bytecode.builder import ProgramBuilder
from repro.runtime.memory import BufferPool, MemoryManager, size_class
from repro.runtime.parallel import ParallelBackend
from repro.service import ArrayService, clone_program_with_fresh_bases
from repro.utils.config import get_config, set_config


class TestPoolRaces:
    def test_no_double_hand_out_under_contention(self):
        pool = BufferPool(max_bytes=1 << 20)
        held_ids = set()
        held_lock = threading.Lock()
        double_hand_outs = []
        rounds = 300
        nbytes = 4096

        def worker():
            for _ in range(rounds):
                buffer = pool.acquire(nbytes)[0]
                with held_lock:
                    if id(buffer) in held_ids:
                        double_hand_outs.append(id(buffer))
                    held_ids.add(id(buffer))
                buffer[:8] = 0xAB  # touch it, as a real tenant would
                with held_lock:
                    held_ids.discard(id(buffer))
                pool.release(buffer)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert double_hand_outs == [], "one parked buffer was handed to two threads"
        total = 8 * rounds
        assert pool.hits + pool.misses == total
        # Everything released at the end: held bytes are whatever parked
        # (bounded by the cap), and the cap was never exceeded even
        # transiently (peak is maintained under the same lock).
        assert pool.bytes_held <= pool.max_bytes
        assert pool.peak_bytes_held <= pool.max_bytes

    def test_byte_cap_never_exceeded_and_discards_counted(self):
        cls = size_class(4096)
        pool = BufferPool(max_bytes=4 * cls)

        def worker():
            buffers = [pool.acquire(4096)[0] for _ in range(6)]
            for buffer in buffers:
                pool.release(buffer)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert pool.bytes_held <= pool.max_bytes
        assert pool.peak_bytes_held <= pool.max_bytes
        # 36 releases raced for 4 parking slots: most fell through.
        assert pool.discards > 0
        parked = sum(len(bin_) for bin_ in pool._bins.values())
        assert parked * cls == pool.bytes_held

    def test_counter_consistency_across_threads(self):
        pool = BufferPool(max_bytes=1 << 22)
        rounds = 200

        def worker():
            local = []
            for index in range(rounds):
                local.append(pool.acquire(1024 * (1 + index % 3))[0])
                if len(local) >= 4:
                    pool.release(local.pop(0))
            for buffer in local:
                pool.release(buffer)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pool.hits + pool.misses == 8 * rounds
        stats = pool.stats()
        assert stats["pool_hits"] == pool.hits
        assert stats["pool_bytes_held"] == pool.bytes_held


class TestSharedPoolTenants:
    def test_any_tenant_may_reuse_any_parked_buffer(self):
        pool = BufferPool(max_bytes=1 << 20)
        a, b = MemoryManager(pool=pool), MemoryManager(pool=pool)
        first, second = BaseArray(256), BaseArray(256)
        buffer = a.allocate(first)
        a.free(first)
        recycled = b.allocate(second)
        assert np.shares_memory(recycled, buffer), "the shared pool should recycle across tenants"
        assert b.pool_counters()["pool_hits"] == 1
        assert b.host_allocations == 0
        assert a.pool_counters()["pool_hits"] == 0, "tenant counters must stay tenant-local"
        assert a.host_allocations == 1
        assert pool.hits == 1 and pool.misses == 1

    def test_per_flush_counters_are_the_tenants_own(self, program):
        """Each session's per-flush pool counters count only its own
        allocations, and they add up to the shared pool's totals."""
        with ArrayService(backend="interpreter") as service:
            alice, bob = service.open_session("alice"), service.open_session("bob")
            clone, bases = clone_program_with_fresh_bases(program)
            first = alice.execute(clone)
            for base in bases:
                first.memory.free(base)
            parked = service.pool.bytes_held
            assert parked > 0
            # Bob's flush recycles what Alice parked; Alice's record and
            # counters do not see it.
            bob.execute(clone_program_with_fresh_bases(program)[0])
            alice_flush, bob_flush = alice.stats_history[-1], bob.stats_history[-1]
            assert alice_flush.pool_hits == 0
            assert alice_flush.pool_misses > 0
            assert bob_flush.pool_hits > 0
            assert bob_flush.pool_misses == 0
            assert bob_flush.pool_bytes_reused > 0
            assert alice.memory.pool_counters()["pool_hits"] == 0
            shared = service.pool.stats()
            for counter in ("pool_hits", "pool_misses", "pool_bytes_reused"):
                assert sum(
                    getattr(session.total_stats(), counter) for session in (alice, bob)
                ) == shared[counter], counter
            assert (
                alice.memory.host_allocations + bob.memory.host_allocations
                == shared["pool_misses"]
            )


class TestThreadPoolResize:
    #: Elements per vector: several default-sized tiles, so every flush submits.
    LENGTH = 400_000
    #: How long the flushers and the thread-count toggler race.
    RACE_SECONDS = 3.0

    def _program(self):
        builder = ProgramBuilder()
        x, out = builder.new_vector(self.LENGTH), builder.new_vector(self.LENGTH)
        builder.arange(x)
        builder.multiply(out, x, 2.0)
        builder.add(out, out, 1.0)
        builder.sync(out)
        return builder.build(), out

    def test_a_thread_count_change_does_not_kill_a_concurrent_flush(self, thread_hammer):
        """Two flushes on one backend while a third thread alternates
        ``parallel_num_threads`` 2/3 (``native`` and ``dist`` inherit the
        pools); fails within a second when a resize shuts a pool down."""
        backend = ParallelBackend()
        program, out = self._program()
        expected = np.arange(self.LENGTH, dtype=np.float64) * 2.0 + 1.0
        stop = threading.Event()
        flushes = [0, 0]
        base = get_config()

        def body(index):
            if index == 2:  # the toggler: the next flush asks for another count
                deadline = time.monotonic() + self.RACE_SECONDS
                threads = 2
                while time.monotonic() < deadline and not stop.is_set():
                    set_config(base.replace(parallel_num_threads=threads))
                    threads = 5 - threads  # 2, 3, 2, ...
                    time.sleep(0.001)
                stop.set()
                return
            try:
                while not stop.is_set():
                    result = backend.execute(program)
                    assert np.array_equal(result.value(out), expected)
                    flushes[index] += 1
            finally:
                stop.set()

        try:
            thread_hammer(3, body)
        finally:
            backend.close()
        assert min(flushes) > 0, flushes
