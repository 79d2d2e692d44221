"""Regression tests for BufferPool recycle/stats races and fairness, and for
the tiled backends' worker-thread pools.

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
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.runtime.memory import BufferPool, TenantPoolView, size_class
from repro.runtime.parallel import ParallelBackend
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
                buffer = pool.acquire(nbytes)
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
            buffers = [pool.acquire(4096) for _ in range(6)]
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
                local.append(pool.acquire(1024 * (1 + index % 3)))
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


class TestTenantFairness:
    def test_fair_policy_caps_one_tenant_parked_bytes(self):
        cls = size_class(8192)
        pool = BufferPool(max_bytes=8 * cls, fairness="fair")
        hog = TenantPoolView(pool, "hog")
        meek = TenantPoolView(pool, "meek")
        share = pool.fair_share_bytes()
        assert share == 4 * cls

        # The hog floods releases far beyond its share.
        buffers = [hog.acquire(8192) for _ in range(10)]
        for buffer in buffers:
            hog.release(buffer)
        assert pool.parked_bytes_of("hog") <= share
        assert hog.discards > 0
        # The meek tenant still has its full share of parking available.
        parked_before = pool.parked_bytes_of("meek")
        meek_buffers = [meek.acquire(8192) for _ in range(4)]
        for buffer in meek_buffers:
            meek.release(buffer)
        assert pool.parked_bytes_of("meek") >= parked_before

    def test_shared_policy_has_no_per_tenant_cap(self):
        cls = size_class(8192)
        pool = BufferPool(max_bytes=8 * cls, fairness="shared")
        hog = TenantPoolView(pool, "hog")
        TenantPoolView(pool, "other")
        buffers = [hog.acquire(8192) for _ in range(8)]
        for buffer in buffers:
            hog.release(buffer)
        # Under "shared", first-come-first-parked up to the global cap.
        assert pool.parked_bytes_of("hog") == 8 * cls

    def test_any_tenant_may_reuse_any_parked_buffer(self):
        pool = BufferPool(max_bytes=1 << 20)
        a = TenantPoolView(pool, "a")
        b = TenantPoolView(pool, "b")
        buffer = a.acquire(2048)
        marker = np.arange(16, dtype=np.uint8)
        buffer[:16] = marker
        a.release(buffer)
        recycled = b.acquire(2048)
        assert recycled is buffer, "the shared pool should recycle across tenants"
        assert b.hits == 1
        assert a.hits == 0, "tenant counters must stay tenant-local"
        # Owner accounting moved with the buffer.
        assert pool.parked_bytes_of("a") == 0

    def test_view_counters_are_tenant_local(self):
        pool = BufferPool(max_bytes=1 << 20)
        a = TenantPoolView(pool, "a")
        b = TenantPoolView(pool, "b")
        a.acquire(512)
        a.acquire(512)
        assert a.misses == 2
        assert b.misses == 0
        assert b.stats()["pool_misses"] == 0
        assert pool.misses == 2

    def test_unknown_fairness_policy_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(max_bytes=1024, fairness="roulette")


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
