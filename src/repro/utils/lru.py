"""The one bounded, locked, counted LRU every runtime cache is an instance of.

The engine's plan cache, the tiled backends' plan-less plan cache, the
native launch cache, the JIT's schedule cache and the dist pool's table
of loaded plan tokens all need a
capacity-bounded mapping whose recency order, eviction and hit/miss
counters stay exact while the multi-tenant service multiplexes threads
over one shared backend.

The lock is a leaf of the hierarchy (``docs/architecture.md`` §9): it is
held for dict surgery only.  Values are built *outside* it and published
with :meth:`BoundedLRU.put` or :meth:`BoundedLRU.setdefault`; two threads
that miss the same key concurrently may both build, which is benign.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.utils.locking import ContendedLock

_ABSENT = object()


class BoundedLRU:
    """A thread-safe least-recently-used mapping holding at most ``capacity`` entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"an LRU needs room for at least one entry, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = ContendedLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key, default=None):
        """Look ``key`` up, counting the hit/miss and refreshing recency.

        A cached ``None`` is a hit; pass a sentinel ``default`` to tell it
        from a miss.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key, default=None):
        """Look ``key`` up without touching recency or the counters."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key, value) -> list:
        """Insert or replace ``key``; return the keys evicted to make room
        (least recently used first), for owners that mirror the cache
        elsewhere."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return self._evict()

    def setdefault(self, key, value):
        """Publish ``value`` unless ``key`` is already cached; return the winner.

        Concurrent builders of one key all launch through the first
        published value.
        """
        with self._lock:
            winner = self._entries.setdefault(key, value)
            self._evict()
            return winner

    def _evict(self) -> list:
        evicted = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False)[0])
            self.evictions += 1
        return evicted

    def values(self) -> list:
        """A snapshot of the cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self, prefix: str) -> Dict[str, int]:
        """Counters for reporting, each key prefixed with ``prefix``."""
        with self._lock:
            return {
                f"{prefix}hits": self.hits,
                f"{prefix}misses": self.misses,
                f"{prefix}evictions": self.evictions,
                f"{prefix}size": len(self._entries),
                f"{prefix}capacity": self.capacity,
                f"{prefix}contentions": self._lock.contentions,
            }
