"""Lockcheck fixture: an upward edge hidden inside a thunk for a worker pool.

This file is test data for the lock-hierarchy lint — it is never imported.
"""

import threading
from functools import partial


class Backend:
    def __init__(self):
        self._cache_lock = threading.Lock()     # rank 2
        self._inflight_lock = threading.Lock()  # rank 1

    def _resolve(self, form):
        with self._inflight_lock:  # rank 1, fine on its own
            return form

    def _scatter(self, tasks):
        for task in tasks:
            task()

    def bad(self, forms):
        with self._cache_lock:
            # The pool runs the thunks while this thread holds rank 2.
            self._scatter([partial(self._resolve, form) for form in forms])
