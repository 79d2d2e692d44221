"""Shared-memory segment registry for the distributed backend.

The :class:`ShardStore` owns every shared-memory segment the master
process creates: it hands out segments for adopted base arrays and
reduction scratch, parks released segments on a size-classed free list for
recycling (mirroring the buffer pool's policy), enforces the
``dist_shm_max_bytes`` budget, and keeps an on-disk *manifest* of live
segment names so a crashed master can never leak ``/dev/shm`` entries:
:func:`sweep_manifests` unlinks every segment whose owning pid is dead.

Segments
--------
A segment is a POSIX shared-memory object named ``psm_<8 hex digits>``
(the prefix ``multiprocessing.shared_memory`` uses, so leak guards that
look for ``psm_`` entries see these too) and mapped with :mod:`mmap`:
:func:`create_segment`, :func:`attach_segment` and :func:`unlink_segment`
make the same ``shm_open``/``shm_unlink`` calls ``SharedMemory`` makes,
minus its registration with the resource tracker.  Nothing here ever
registers a segment, so no process's exit unlinks one and no tracker
cache is shared between master and workers; lifetime is the store's alone.
A mapping unmaps when its last NumPy view dies.

Ownership rules
---------------
* Only the master creates and unlinks segments.  Workers *attach* and
  therefore can never leak one, neither by exiting nor by crashing.
* A released segment is parked, not unlinked — the recycling free list is
  what keeps warm flushes allocation-free — but parked bytes still count
  against the budget and are unlinked first when it tightens.
"""

from __future__ import annotations

import _posixshmem
import atexit
import json
import mmap
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.memory import size_class
from repro.utils.errors import DistributedExecutionError

#: Manifests live in one well-known temp subdirectory, named ``<pid>.json``.
MANIFEST_DIRNAME = "repro-dist-manifests"

SEGMENT_PREFIX = "psm_"


def manifest_dir() -> Path:
    path = Path(tempfile.gettempdir()) / MANIFEST_DIRNAME
    path.mkdir(exist_ok=True)
    return path


def _segment_name() -> str:
    return SEGMENT_PREFIX + os.urandom(4).hex()


def create_segment(size: int) -> Tuple[str, mmap.mmap]:
    """A new segment of ``size`` bytes: ``(name, mapping)``."""
    while True:
        name = _segment_name()
        try:
            fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        except FileExistsError:
            continue  # the name is taken: draw another
        try:
            os.ftruncate(fd, size)
            return name, mmap.mmap(fd, size)
        except OSError:
            unlink_segment(name)
            raise
        finally:
            os.close(fd)


def attach_segment(name: str) -> mmap.mmap:
    """Map an existing segment without taking over its lifetime."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, 0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def unlink_segment(name: str) -> bool:
    """Remove a segment's name; ``False`` when it was already gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


class ShardStore:
    """Registry, recycler and budget-keeper for shared-memory segments."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self._directory = directory if directory is not None else manifest_dir()
        #: name -> (size class, uint8 buffer over the mapping); live segments.
        self._active: Dict[str, Tuple[int, np.ndarray]] = {}
        #: size class -> parked (name, buffer) entries for reuse.
        self._parked: Dict[int, List[Tuple[str, np.ndarray]]] = {}
        self._segments_lock = threading.Lock()
        self.segments_created = 0
        self.segments_recycled = 0
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # Budget accounting (callers hold the lock)
    # ------------------------------------------------------------------ #

    def _active_bytes(self) -> int:
        return sum(cls for cls, _ in self._active.values())

    def _parked_bytes(self) -> int:
        return sum(cls * len(entries) for cls, entries in self._parked.items())

    def _evict_parked(self, needed: int, budget: int) -> None:
        """Unlink parked segments until ``needed`` bytes fit in ``budget``."""
        for cls in sorted(self._parked, reverse=True):
            entries = self._parked[cls]
            while entries and self._active_bytes() + self._parked_bytes() + needed > budget:
                unlink_segment(entries.pop()[0])
            if not entries:
                del self._parked[cls]
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # Segment lifecycle
    # ------------------------------------------------------------------ #

    def create(self, nbytes: int, max_bytes: int) -> Tuple[str, np.ndarray]:
        """A segment with at least ``nbytes`` capacity: ``(name, uint8 buffer)``.

        Recycles a parked segment of the same size class when one exists
        (its contents are stale — callers zero or overwrite), otherwise
        creates a fresh one, evicting parked segments if the budget —
        ``max_bytes`` of live segments, active and parked, the flush's
        ``dist_shm_max_bytes`` — needs the room.  The buffer may still hold
        data from a previous owner; never hand it out un-initialised.
        """
        cls = size_class(max(int(nbytes), 1))
        with self._segments_lock:
            if self._closed:
                raise DistributedExecutionError("shard store is closed")
            entries = self._parked.get(cls)
            if entries:
                name, buffer = entries.pop()
                if not entries:
                    del self._parked[cls]
                self.segments_recycled += 1
                self._active[name] = (cls, buffer)
                return name, buffer
            if self._active_bytes() + self._parked_bytes() + cls > max_bytes:
                self._evict_parked(cls, max_bytes)
            if self._active_bytes() + self._parked_bytes() + cls > max_bytes:
                raise DistributedExecutionError(
                    f"shared-memory budget exhausted: {cls} more bytes over "
                    f"{max_bytes} (dist_shm_max_bytes) with "
                    f"{self._active_bytes()} active"
                )
            name, mapping = create_segment(cls)
            buffer = np.frombuffer(mapping, dtype=np.uint8, count=cls)
            self.segments_created += 1
            self._active[name] = (cls, buffer)
            self._write_manifest()
            return name, buffer

    def release(self, name: str) -> None:
        """Park an active segment on the free list for recycling."""
        with self._segments_lock:
            entry = self._active.pop(name, None)
            if entry is None:
                return
            cls, buffer = entry
            self._parked.setdefault(cls, []).append((name, buffer))

    def buffer(self, name: str) -> np.ndarray:
        """The uint8 buffer of an active segment."""
        with self._segments_lock:
            return self._active[name][1]

    def nbytes(self, name: str) -> int:
        """The capacity (size class) of an active segment."""
        with self._segments_lock:
            return self._active[name][0]

    def active_segments(self) -> Tuple[str, ...]:
        with self._segments_lock:
            return tuple(self._active)

    def stats(self) -> Dict[str, int]:
        with self._segments_lock:
            return {
                "dist_segments_created": self.segments_created,
                "dist_segments_recycled": self.segments_recycled,
                "dist_segments_active": len(self._active),
                "dist_shm_bytes_active": self._active_bytes(),
                "dist_shm_bytes_parked": self._parked_bytes(),
            }

    def close(self) -> None:
        """Unlink every segment (active and parked) and drop the manifest."""
        with self._segments_lock:
            if self._closed:
                return
            self._closed = True
            for name in self._active:
                unlink_segment(name)
            self._active.clear()
            for entries in self._parked.values():
                for name, _ in entries:
                    unlink_segment(name)
            self._parked.clear()
            try:
                self._manifest_path().unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Crash-recovery manifest
    # ------------------------------------------------------------------ #

    def _manifest_path(self) -> Path:
        return self._directory / f"{os.getpid()}.json"

    def _write_manifest(self) -> None:
        """Record every live segment name under this pid (crash insurance)."""
        names = sorted(self._active) + sorted(
            name for entries in self._parked.values() for name, _ in entries
        )
        payload = {"pid": os.getpid(), "segments": names}
        try:
            self._manifest_path().write_text(json.dumps(payload))
        except OSError:  # pragma: no cover - tempdir trouble is best-effort
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def sweep_manifests(directory: Optional[Path] = None) -> List[str]:
    """Unlink segments whose owning process died without cleanup.

    Scans the manifest directory; for every manifest whose pid is no longer
    alive, unlinks each recorded segment that still exists (by name: nothing
    is mapped) and removes the manifest.  Returns the names actually unlinked.  Safe to run any time —
    live owners' manifests are left alone.
    """
    directory = directory if directory is not None else manifest_dir()
    swept: List[str] = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
            pid = int(payload["pid"])
            segments = list(payload.get("segments", ()))
        except (OSError, ValueError, KeyError):
            continue
        if _pid_alive(pid):
            continue
        swept.extend(name for name in segments if unlink_segment(name))
        try:
            path.unlink()
        except OSError:
            pass
    return swept
