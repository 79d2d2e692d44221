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
    is what the manager accounts for it.
    """

    buffer: np.ndarray
    nbytes: int
    token: object
    release: Callable[[], None]


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
    serialized.

    Parked buffers optionally carry the *owner* (tenant) that released
    them, which enables two things: per-tenant parked-bytes accounting,
    and the ``"fair"`` fairness policy, under which one tenant may park at
    most an equal share (``max_bytes / registered owners``) of the pool —
    a burst of large frees from one tenant then falls through to the host
    instead of monopolizing the recycling budget.  Ownership never
    restricts *acquisition*: any tenant may reuse any parked buffer,
    which is the point of sharing the pool.
    """

    def __init__(
        self, max_bytes: Optional[int] = None, fairness: str = "shared"
    ) -> None:
        if fairness not in ("shared", "fair"):
            raise ValueError(f"unknown fairness policy {fairness!r}")
        self.max_bytes = (
            max_bytes if max_bytes is not None else get_config().memory_pool_max_bytes
        )
        self.fairness = fairness
        self._bins: Dict[int, List[Tuple[Optional[object], np.ndarray]]] = {}
        self._parked_by_owner: Dict[object, int] = {}
        self._owners: set = set()
        self._lock = ContendedLock()
        self.bytes_held = 0
        self.peak_bytes_held = 0
        self.hits = 0
        self.misses = 0
        self.bytes_reused = 0
        self.discards = 0

    # ------------------------------------------------------------------ #
    # Tenant registration (fair-share accounting)
    # ------------------------------------------------------------------ #

    def register_owner(self, owner: object) -> None:
        """Enroll a tenant for fair-share accounting (idempotent)."""
        with self._lock:
            self._owners.add(owner)

    def unregister_owner(self, owner: object) -> None:
        """Drop a tenant; its still-parked buffers stay reusable by others."""
        with self._lock:
            self._owners.discard(owner)
            self._parked_by_owner.pop(owner, None)

    def fair_share_bytes(self) -> int:
        """The per-tenant parked-bytes cap under the ``"fair"`` policy."""
        with self._lock:
            if not self._owners:
                return self.max_bytes
            return self.max_bytes // len(self._owners)

    def parked_bytes_of(self, owner: object) -> int:
        """Bytes currently parked that ``owner`` released."""
        with self._lock:
            return self._parked_by_owner.get(owner, 0)

    # ------------------------------------------------------------------ #
    # Acquire / release
    # ------------------------------------------------------------------ #

    def _acquire(
        self, nbytes: int, owner: Optional[object] = None
    ) -> Tuple[np.ndarray, bool]:
        """Acquire plus a ``reused`` flag (per-tenant views need to know)."""
        cls = size_class(nbytes)
        with self._lock:
            bin_ = self._bins.get(cls)
            if bin_:
                parked_owner, buffer = bin_.pop()
                self.bytes_held -= cls
                if parked_owner is not None:
                    remaining = self._parked_by_owner.get(parked_owner, cls) - cls
                    self._parked_by_owner[parked_owner] = max(0, remaining)
                self.hits += 1
                self.bytes_reused += int(nbytes)
                return buffer, True
            self.misses += 1
        try:
            return np.empty(cls, dtype=np.uint8), False
        except MemoryError as exc:  # pragma: no cover - depends on host
            raise AllocationError(f"cannot allocate {cls} bytes") from exc

    def acquire(self, nbytes: int) -> np.ndarray:
        """A raw ``uint8`` buffer of ``size_class(nbytes)`` bytes, recycled if possible.

        The contents of a recycled buffer are whatever its previous owner
        left there — the caller decides whether a zero fill is needed.
        """
        return self._acquire(nbytes)[0]

    def _release(self, buffer: np.ndarray, owner: Optional[object] = None) -> bool:
        """Park ``buffer`` (returns True) or drop it (cap or fairness)."""
        cls = buffer.nbytes
        with self._lock:
            if self.bytes_held + cls > self.max_bytes:
                self.discards += 1
                return False
            if self.fairness == "fair" and owner is not None and self._owners:
                share = self.max_bytes // len(self._owners)
                if self._parked_by_owner.get(owner, 0) + cls > share:
                    self.discards += 1
                    return False
            self._bins.setdefault(cls, []).append((owner, buffer))
            self.bytes_held += cls
            self.peak_bytes_held = max(self.peak_bytes_held, self.bytes_held)
            if owner is not None:
                self._parked_by_owner[owner] = (
                    self._parked_by_owner.get(owner, 0) + cls
                )
            return True

    def release(self, buffer: np.ndarray) -> None:
        """Park ``buffer`` for reuse, or drop it when the pool is full."""
        self._release(buffer)

    def clear(self) -> None:
        """Drop every parked buffer (counters are preserved)."""
        with self._lock:
            self._bins.clear()
            self._parked_by_owner.clear()
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


class TenantPoolView:
    """A per-tenant window onto a shared :class:`BufferPool`.

    A :class:`MemoryManager` built over this view recycles through the
    *shared* pool (any tenant's freed buffer serves any tenant's next
    allocation) while its ``pool_counters()`` stay tenant-local — so the
    engine's per-flush counter deltas report this tenant's hits and
    misses, not the whole service's.  The view also tags every release
    with the tenant, which is what the pool's fairness policy and
    per-tenant parked-bytes accounting key on.
    """

    def __init__(self, pool: BufferPool, owner: object) -> None:
        self.shared = pool
        self.owner = owner
        self.hits = 0
        self.misses = 0
        self.bytes_reused = 0
        self.discards = 0
        pool.register_owner(owner)

    @property
    def max_bytes(self) -> int:
        return self.shared.max_bytes

    @property
    def bytes_held(self) -> int:
        return self.shared.bytes_held

    def acquire(self, nbytes: int) -> np.ndarray:
        buffer, reused = self.shared._acquire(nbytes, owner=self.owner)
        if reused:
            self.hits += 1
            self.bytes_reused += int(nbytes)
        else:
            self.misses += 1
        return buffer

    def release(self, buffer: np.ndarray) -> None:
        if not self.shared._release(buffer, owner=self.owner):
            self.discards += 1

    def clear(self) -> None:
        """Clearing through a tenant view clears the shared pool."""
        self.shared.clear()

    def stats(self) -> Dict[str, int]:
        """Tenant-local counters plus the shared pool's occupancy."""
        return {
            "pool_hits": self.hits,
            "pool_misses": self.misses,
            "pool_bytes_reused": self.bytes_reused,
            "pool_bytes_held": self.shared.bytes_held,
            "pool_peak_bytes_held": self.shared.peak_bytes_held,
            "pool_discards": self.discards,
            "pool_lock_contentions": self.shared._lock.contentions,
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
        #: service-owned session passes a :class:`TenantPoolView` here, so
        #: recycling is shared while the counters stay tenant-local.
        self.pool: BufferPool = pool if pool is not None else BufferPool()
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
            slot = self._slots.pop(slot_key)
            self.bytes_allocated -= slot.nbytes
            slot.release()

    def pool_counters(self) -> Dict[str, int]:
        """The pool's cumulative counters."""
        return self.pool.stats()

    @property
    def host_allocations(self) -> int:
        """Buffers actually requested from the host allocator (``np.empty``).

        Every allocation path goes through the pool, so this is exactly the
        pool's miss count; pool hits and slot reuse keep it flat on warm
        flushes.
        """
        return self.pool.misses

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
            buffer = self.pool.acquire(nbytes)
            owned = _Owned(buffer, nbytes, None, partial(self.pool.release, buffer))
        self.bytes_allocated += nbytes
        self._note_peak()
        return owned

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
        owned = self._dedicated.pop(key)
        self.bytes_allocated -= owned.nbytes
        owned.release()

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
