"""Lockcheck fixture: takes a pool's flush lock while holding rank-2 locks.

This file is test data for the lock-hierarchy lint — it is never imported.
"""

import threading


class Backend:
    def __init__(self):
        self._cache_lock = threading.Lock()  # rank 2

    def bad(self, pool):
        with self._cache_lock:
            with pool.flush_lock:  # upward edge: rank 1 under rank 2
                return True


class ShardStore:
    def __init__(self):
        self._segments_lock = threading.Lock()  # rank 2

    def bad(self, pool):
        with self._segments_lock:
            pool.flush_lock.acquire()  # upward edge: rank 1 under rank 2
            pool.flush_lock.release()

    def fine(self, pool):
        with pool.flush_lock:
            with self._segments_lock:  # downward: the flush holds the store
                return True
