"""Lockcheck fixture: legal downward nesting — must produce no violations.

This file is test data for the lock-hierarchy lint — it is never imported.
"""

import threading


class PlanCache:
    def __init__(self):
        self._lock = threading.Lock()  # rank 3 (leaf)

    def get(self):
        with self._lock:
            return True


class BufferPool:
    def __init__(self):
        self._lock = threading.Lock()  # rank 3 (leaf)

    def fine(self, plan):
        with plan.lock:      # rank 2
            with self._lock:  # downward: 3 under 2 is the allowed direction
                return True

    def helper_lock_is_unranked(self, helper):
        with helper._lock:   # unrecognised owner: recorded, never judged
            return True
