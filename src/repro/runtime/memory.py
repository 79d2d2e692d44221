"""Memory management for byte-code execution.

Base arrays are materialized lazily as flat NumPy allocations; views are
realized as strided windows over those allocations, so an instruction that
writes a view writes straight into its base storage — the semantics the
paper relies on when it reuses the result tensor as scratch space in the
power-expansion example.

Two layers of storage reuse sit below the manager:

* a size-class :class:`BufferPool` recycles the raw byte buffers of freed
  bases instead of returning them to the host, so iterative workloads stop
  paying an allocation per temporary per flush, and
* plan-directed *aliasing*: the execution plan's
  :class:`~repro.runtime.memplan.MemoryPlan` may bind several temporaries
  with disjoint lifetimes to one shared storage slot (whose buffer an
  observable base may take over as the slot's final occupant), and may
  waive the zero fill for bases the liveness analysis proves fully written
  before any read.  Without directives every allocation is zero-initialised,
  matching Bohrium's behaviour for uninitialised operands — bit-for-bit
  the pre-pool semantics.

A bound plan may also name a storage *source* other than the pool (the
distributed backend's shared-memory segment store): slot buffers and
dedicated buffers are then drawn from it through the same directive path,
so slot sharing, fill waivers and byte accounting exist once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.bytecode.base import BaseArray
from repro.bytecode.view import View
from repro.utils.config import get_config
from repro.utils.errors import AllocationError
from repro.utils.locking import ContendedLock

#: Smallest size class the pool hands out; tiny buffers are not worth
#: recycling individually and round up to this.
_MIN_CLASS_BYTES = 64


def size_class(nbytes: int) -> int:
    """The pool size class for an allocation of ``nbytes``: next power of two."""
    if nbytes <= _MIN_CLASS_BYTES:
        return _MIN_CLASS_BYTES
    return 1 << (int(nbytes) - 1).bit_length()


@dataclass(frozen=True)
class BufferDirective:
    """One base's storage instruction from a bound memory plan.

    ``slot`` names a shared storage slot (``None`` for dedicated storage);
    ``slot_nbytes`` is the slot's capacity (the largest occupant).
    ``zero_fill`` is false only when liveness proved every element is
    written before it can be read.  ``adopts`` marks the slot's final
    occupant, an observable base: the slot's buffer becomes its own.
    """

    slot: Optional[int]
    slot_nbytes: int
    zero_fill: bool
    adopts: bool = False


class _Owned(NamedTuple):
    """A raw byte buffer plus how to give it back.

    ``token`` is the external source's handle for the buffer (a
    shared-memory segment name) and ``None`` for pool buffers; ``nbytes``
    is what the manager accounts for it.  ``release`` of a pool buffer is
    the pool's own, which returns False when the full pool drops it.
    """

    buffer: np.ndarray
    nbytes: int
    token: object
    release: Callable[[], Optional[bool]]


class BufferPool:
    """Recycles raw byte buffers in power-of-two size classes.

    Freed buffers are parked here instead of being released to the host;
    a later allocation of the same size class pops one back out.  The pool
    is bounded: once ``max_bytes`` worth of buffers are parked, further
    releases fall through to the host allocator's free.

    The pool is thread-safe: the size-class bins and every counter mutate
    only under one internal lock, so sessions sharing a pool (the
    multi-tenant service) can never double-hand-out a recycled buffer or
    lose counter updates to interleaved ``acquire``/``release`` calls.
    Host allocation itself happens outside the lock — only bin surgery is
    serialized.  Any session may reuse any parked buffer, which is the
    point of sharing the pool; each :class:`MemoryManager` counts its own
    hits and misses from the flags :meth:`acquire` and :meth:`release`
    return.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = (
            max_bytes if max_bytes is not None else get_config().memory_pool_max_bytes
        )
        self._bins: Dict[int, List[np.ndarray]] = {}
        self._lock = ContendedLock()
        self.bytes_held = 0
        self.peak_bytes_held = 0
        self.hits = 0
        self.misses = 0
        self.bytes_reused = 0
        self.discards = 0

    def acquire(self, nbytes: int) -> Tuple[np.ndarray, bool]:
        """A raw ``uint8`` buffer of ``size_class(nbytes)`` bytes and whether
        it was recycled.

        The contents of a recycled buffer are whatever its previous owner
        left there — the caller decides whether a zero fill is needed.
        """
        cls = size_class(nbytes)
        with self._lock:
            bin_ = self._bins.get(cls)
            if bin_:
                buffer = bin_.pop()
                self.bytes_held -= cls
                self.hits += 1
                self.bytes_reused += int(nbytes)
                return buffer, True
            self.misses += 1
        try:
            return np.empty(cls, dtype=np.uint8), False
        except MemoryError as exc:  # pragma: no cover - depends on host
            raise AllocationError(f"cannot allocate {cls} bytes") from exc

    def release(self, buffer: np.ndarray) -> bool:
        """Park ``buffer`` for reuse (True), or drop it when the pool is full."""
        cls = buffer.nbytes
        with self._lock:
            if self.bytes_held + cls > self.max_bytes:
                self.discards += 1
                return False
            self._bins.setdefault(cls, []).append(buffer)
            self.bytes_held += cls
            self.peak_bytes_held = max(self.peak_bytes_held, self.bytes_held)
            return True

    def clear(self) -> None:
        """Drop every parked buffer (counters are preserved)."""
        with self._lock:
            self._bins.clear()
            self.bytes_held = 0

    def stats(self) -> Dict[str, int]:
        """Counters for reporting: hits, misses, reused and held bytes."""
        with self._lock:
            return {
                "pool_hits": self.hits,
                "pool_misses": self.misses,
                "pool_bytes_reused": self.bytes_reused,
                "pool_bytes_held": self.bytes_held,
                "pool_peak_bytes_held": self.peak_bytes_held,
                "pool_discards": self.discards,
                "pool_lock_contentions": self._lock.contentions,
            }


class MemoryManager:
    """Allocates, tracks and frees the NumPy storage behind base arrays."""

    def __init__(self, pool: Optional[BufferPool] = None) -> None:
        self._storage: Dict[int, np.ndarray] = {}
        self._bases: Dict[int, BaseArray] = {}
        #: The buffer behind each dedicated (non-slot) base and its way
        #: home: the pool, the plan's storage source, or the ``release`` of
        #: an :meth:`adopt_external` caller.
        self._dedicated: Dict[int, _Owned] = {}
        #: Plan directives for the current execution, keyed by id(base).
        self._directives: Dict[int, BufferDirective] = {}
        #: Where the current plan's fresh storage comes from when not the
        #: pool: an object with ``create(nbytes) -> (token, uint8 buffer)``
        #: and ``release(token)`` (the distributed backend's shard store).
        self._source = None
        #: Shared slot buffers, keyed by (plan epoch, slot id): an epoch
        #: bump on every ``apply_plan`` guarantees a new plan's slot ids
        #: can never adopt a previous plan's buffer (whose capacity the
        #: new plan knows nothing about).  Accounted at the planned
        #: capacity, not the size class.
        self._slots: Dict[tuple, _Owned] = {}
        #: Which slot key (if any) currently backs each live base.
        self._slot_of: Dict[int, tuple] = {}
        self._plan_epoch = 0
        #: The pool is always present; disabling pooling means a zero byte
        #: cap (every release falls through to the host), which keeps the
        #: allocation path single and the miss counter authoritative.  A
        #: service-owned session passes the service's shared pool here.
        self.pool: BufferPool = pool if pool is not None else BufferPool()
        #: This manager's own traffic through the pool, so the counters
        #: stay per session when the pool is shared.
        self.pool_hits = 0
        self.pool_misses = 0
        self.pool_bytes_reused = 0
        self.pool_discards = 0
        self.bytes_allocated = 0
        self.peak_bytes = 0
        #: High-water mark since :meth:`reset_peak_window` (the engine
        #: resets it per flush so per-execution statistics don't inherit
        #: an earlier flush's peak).
        self.window_peak_bytes = 0
        self.allocation_count = 0
        self.free_count = 0
        #: Bytes of fresh storage zero-initialised so far (waived fills and
        #: ``zero=False`` allocations do not count).
        self.zero_fill_bytes = 0

    # ------------------------------------------------------------------ #
    # Plan directives
    # ------------------------------------------------------------------ #

    def apply_plan(
        self, directives: Optional[Dict[int, BufferDirective]], source=None
    ) -> None:
        """Install the directives of a freshly bound memory plan.

        Replaces any previous plan: stale directives must never outlive the
        execution they were bound for (a dead base's ``id`` can be reused by
        a fresh one).  Slot buffers of the previous plan go back where they
        came from unless a still-live base occupies them (they are released
        once that base is freed and the next plan is applied).

        With a ``source``, storage allocated while this plan is installed —
        slot buffers and dedicated ones alike — is drawn from it instead of
        the pool, and :meth:`external_token` names it.
        """
        self.clear_plan()
        self._plan_epoch += 1
        self._source = source
        if directives:
            self._directives = dict(directives)

    def clear_plan(self) -> None:
        """Forget the current plan (directives, source); release idle slots."""
        self._directives = {}
        self._source = None
        occupied = set(self._slot_of.values())
        for slot_key in [key for key in self._slots if key not in occupied]:
            self._give_back(self._slots.pop(slot_key))

    def pool_counters(self) -> Dict[str, int]:
        """This manager's cumulative pool counters."""
        return {
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "pool_bytes_reused": self.pool_bytes_reused,
            "pool_discards": self.pool_discards,
        }

    @property
    def host_allocations(self) -> int:
        """Buffers this manager requested from the host allocator (``np.empty``).

        Every allocation path goes through the pool, so this is exactly the
        manager's pool miss count; pool hits and slot reuse keep it flat on
        warm flushes.
        """
        return self.pool_misses

    def reset_peak_window(self) -> None:
        """Start a fresh per-execution peak window at the current level."""
        self.window_peak_bytes = self.bytes_allocated

    # ------------------------------------------------------------------ #
    # Base-level operations
    # ------------------------------------------------------------------ #

    def is_allocated(self, base: BaseArray) -> bool:
        """True when storage for ``base`` currently exists."""
        return id(base) in self._storage

    def _note_peak(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self.bytes_allocated)
        self.window_peak_bytes = max(self.window_peak_bytes, self.bytes_allocated)

    def _carve(self, buffer: np.ndarray, base: BaseArray) -> np.ndarray:
        """The typed flat storage of ``base`` over the head of ``buffer``."""
        return buffer[: base.nbytes].view(base.dtype.np_dtype)

    def _acquire(self, nbytes: int) -> _Owned:
        """``nbytes`` of raw storage from the plan's source, else the pool."""
        if self._source is not None:
            token, buffer = self._source.create(nbytes)
            owned = _Owned(buffer, nbytes, token, partial(self._source.release, token))
        else:
            buffer, reused = self.pool.acquire(nbytes)
            if reused:
                self.pool_hits += 1
                self.pool_bytes_reused += nbytes
            else:
                self.pool_misses += 1
            owned = _Owned(buffer, nbytes, None, partial(self.pool.release, buffer))
        self.bytes_allocated += nbytes
        self._note_peak()
        return owned

    def _give_back(self, owned: _Owned) -> None:
        """Send ``owned`` home, counting a pool buffer the full pool drops."""
        self.bytes_allocated -= owned.nbytes
        if owned.release() is False:
            self.pool_discards += 1

    def _slot(self, directive: BufferDirective) -> Tuple[tuple, _Owned]:
        """The current plan's shared slot ``directive`` names, acquired once."""
        slot_key = (self._plan_epoch, directive.slot)
        slot = self._slots.get(slot_key)
        if slot is None:
            slot = self._slots[slot_key] = self._acquire(directive.slot_nbytes)
        return slot_key, slot

    def allocate(self, base: BaseArray, zero: Optional[bool] = None) -> np.ndarray:
        """Return the flat storage for ``base``, allocating it if needed.

        Fresh allocations are zero-initialised, matching Bohrium's behaviour
        for uninitialised operands — unless the current plan's directive for
        ``base`` waives the fill (liveness proved every element is written
        before it is read; a plan built under the ``"always"`` zero policy
        waives none), or the caller passes ``zero=False`` because it
        immediately overwrites the whole buffer (:meth:`set_data`).
        """
        key = id(base)
        existing = self._storage.get(key)
        if existing is not None:
            return existing
        directive = self._directives.get(key)
        if directive is not None and directive.slot is not None:
            slot_key, owned = self._slot(directive)
            if directive.adopts:
                # The final occupant outlives the plan: the buffer leaves
                # the plan's slots and goes home at the base's own free.
                self._dedicated[key] = self._slots.pop(slot_key)
            else:
                self._slot_of[key] = slot_key
        else:
            owned = self._dedicated[key] = self._acquire(base.nbytes)
        storage = self._carve(owned.buffer, base)
        if zero is None:
            zero = directive is None or directive.zero_fill
        if zero:
            storage.fill(0)
            self.zero_fill_bytes += base.nbytes
        self._storage[key] = storage
        self._bases[key] = base
        self.allocation_count += 1
        return storage

    def reserve(self, base: BaseArray):
        """Settle where ``base`` will live and return that storage's token.

        For callers that must name every base's storage before execution
        starts (the distributed backend's segment map).  A base the plan
        puts on a shared slot only has the slot acquired: its occupants
        bind — and zero-fill — at first use, when the previous occupant is
        dead.  Any other base is allocated outright.
        """
        key = id(base)
        if key not in self._storage:
            directive = self._directives.get(key)
            if directive is not None and directive.slot is not None:
                return self._slot(directive)[1].token
            self.allocate(base)
        return self.external_token(base)

    def adopt_external(self, base, storage, release, token=None) -> np.ndarray:
        """Register externally-owned ``storage`` as the backing of ``base``.

        For storage the manager did not acquire itself — the distributed
        backend migrating a host-resident base into a shared-memory
        segment.  Adoption makes it the base's storage for every ordinary
        path (``allocate`` returns it, ``view_array`` windows it, serial
        interpreter steps mutate it in place); :meth:`free` calls
        ``release`` and :meth:`external_token` returns ``token``, exactly
        as for storage drawn from a plan's source.
        """
        key = id(base)
        if key in self._storage:
            raise AllocationError(
                f"base {base.name or id(base)} already has storage; "
                "migrate (free, then adopt) instead of adopting over it"
            )
        storage = storage[: base.nelem]
        self._storage[key] = storage
        self._bases[key] = base
        self._dedicated[key] = _Owned(storage, base.nbytes, token, release)
        self.bytes_allocated += base.nbytes
        self._note_peak()
        self.allocation_count += 1
        return storage

    def external_token(self, base: BaseArray):
        """The external handle of ``base``'s storage, ``None`` for pool storage."""
        key = id(base)
        slot_key = self._slot_of.get(key)
        owned = self._slots.get(slot_key) if slot_key is not None else self._dedicated.get(key)
        return owned.token if owned is not None else None

    def set_data(self, base: BaseArray, data: np.ndarray) -> None:
        """Initialise ``base`` storage from an existing NumPy array.

        The data is copied (flattened) into the base's flat buffer so later
        byte-codes may mutate it freely without aliasing the caller's array.
        """
        flat = np.asarray(data, dtype=base.dtype.np_dtype).reshape(-1)
        if flat.size != base.nelem:
            raise AllocationError(
                f"data with {flat.size} elements does not fit base of {base.nelem} elements"
            )
        buffer = self.allocate(base, zero=False)
        np.copyto(buffer, flat)

    def free(self, base: BaseArray) -> None:
        """Release the storage behind ``base`` (no-op when not allocated).

        Dedicated buffers go back where they came from (the pool, the
        plan's source, an adopter's ``release``); a slot-backed base leaves
        its shared slot buffer in place for the slot's next occupant.
        """
        key = id(base)
        if key not in self._storage:
            return
        del self._storage[key]
        del self._bases[key]
        self.free_count += 1
        if self._slot_of.pop(key, None) is not None:
            # Shared slot: the buffer is owned by the plan, not the base.
            return
        self._give_back(self._dedicated.pop(key))

    def free_all(self) -> None:
        """Release every allocation (plan slots included)."""
        for key in list(self._storage):
            base = self._bases[key]
            self.free(base)
        self.clear_plan()

    def live_bases(self) -> Iterable[BaseArray]:
        """The base arrays that currently have storage."""
        return tuple(self._bases.values())

    # ------------------------------------------------------------------ #
    # View-level operations
    # ------------------------------------------------------------------ #

    def view_array(self, view: View) -> np.ndarray:
        """Return a writable NumPy window realizing ``view``.

        The window shares memory with the base storage, so writes through it
        are visible to later instructions.
        """
        buffer = self.allocate(view.base)
        itemsize = view.base.dtype.itemsize
        strides_bytes = tuple(stride * itemsize for stride in view.strides)
        window = np.lib.stride_tricks.as_strided(
            buffer[view.offset:],
            shape=view.shape,
            strides=strides_bytes,
            writeable=True,
        )
        return window

    def read_view(self, view: View) -> np.ndarray:
        """Return a *copy* of the data behind ``view`` (safe to hold)."""
        return np.array(self.view_array(view), copy=True)

    def write_view(self, view: View, data) -> None:
        """Copy ``data`` (broadcastable) into the elements addressed by ``view``."""
        window = self.view_array(view)
        np.copyto(window, data)

    def clone(self) -> "MemoryManager":
        """Deep-copy the manager: same bases, copied buffers.

        Used by the semantic verifier, which executes the original and the
        optimized program from identical initial states.  The clone gets
        dedicated storage for every base (slot sharing is a property of one
        plan-bound execution, not of the data), its own empty pool, and
        carries the accounting counters — including the true ``peak_bytes``
        high-water mark, which a fresh run from the cloned state could
        otherwise under-report.
        """
        other = MemoryManager()
        for key, storage in self._storage.items():
            base = self._bases[key]
            owned = other._dedicated[key] = other._acquire(base.nbytes)
            copied = other._carve(owned.buffer, base)
            np.copyto(copied, storage)
            other._storage[key] = copied
            other._bases[key] = base
        other.peak_bytes = max(self.peak_bytes, other.bytes_allocated)
        other.window_peak_bytes = other.bytes_allocated
        other.allocation_count = self.allocation_count
        other.free_count = self.free_count
        return other
