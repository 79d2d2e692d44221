"""Tests for the memory manager."""

import gc
import weakref

import numpy as np
import pytest

from repro.bytecode.base import BaseArray
from repro.bytecode.dtypes import int64
from repro.bytecode.view import View
from repro.runtime.memory import BufferDirective, MemoryManager
from repro.utils.errors import AllocationError


class TestAllocation:
    def test_allocation_is_zero_initialised(self):
        memory = MemoryManager()
        base = BaseArray(5)
        assert np.all(memory.allocate(base) == 0.0)

    def test_allocation_is_idempotent(self):
        memory = MemoryManager()
        base = BaseArray(5)
        first = memory.allocate(base)
        first[:] = 7.0
        second = memory.allocate(base)
        assert second is first

    def test_accounting(self):
        memory = MemoryManager()
        base = BaseArray(1000)  # 8000 bytes
        memory.allocate(base)
        assert memory.bytes_allocated == 8000
        assert memory.peak_bytes == 8000
        memory.free(base)
        assert memory.bytes_allocated == 0
        assert memory.peak_bytes == 8000
        assert memory.allocation_count == 1
        assert memory.free_count == 1

    def test_free_unallocated_is_noop(self):
        memory = MemoryManager()
        memory.free(BaseArray(4))
        assert memory.free_count == 0

    def test_free_all(self):
        memory = MemoryManager()
        bases = [BaseArray(4) for _ in range(3)]
        for base in bases:
            memory.allocate(base)
        memory.free_all()
        assert memory.bytes_allocated == 0
        assert list(memory.live_bases()) == []

    def test_a_dropped_manager_is_freed_without_the_cycle_collector(self):
        """No reference cycle keeps a manager (and every buffer it holds)
        alive until the next collection: a benchmark op that drops one
        per flush would hold their storage in the meantime."""
        gc.disable()
        try:
            memory = MemoryManager()
            memory.allocate(BaseArray(1000))
            dropped = weakref.ref(memory)
            del memory
            assert dropped() is None
        finally:
            gc.enable()

    def test_set_data_copies(self):
        memory = MemoryManager()
        base = BaseArray(4)
        source = np.array([1.0, 2.0, 3.0, 4.0])
        memory.set_data(base, source)
        source[0] = 99.0
        assert memory.allocate(base)[0] == 1.0

    def test_set_data_wrong_size(self):
        memory = MemoryManager()
        with pytest.raises(AllocationError):
            memory.set_data(BaseArray(4), np.zeros(5))

    def test_set_data_casts_dtype(self):
        memory = MemoryManager()
        base = BaseArray(3, int64)
        memory.set_data(base, np.array([1.9, 2.1, 3.0]))
        assert memory.allocate(base).dtype == np.int64


class TestViews:
    def test_view_array_shares_storage(self):
        memory = MemoryManager()
        base = BaseArray(10)
        window = memory.view_array(View(base, 2, (3,), (1,)))
        window[:] = 5.0
        flat = memory.allocate(base)
        assert list(flat[2:5]) == [5.0, 5.0, 5.0]
        assert flat[0] == 0.0

    def test_strided_view(self):
        memory = MemoryManager()
        base = BaseArray(10)
        memory.set_data(base, np.arange(10.0))
        evens = memory.view_array(View(base, 0, (5,), (2,)))
        assert list(evens) == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_matrix_view(self):
        memory = MemoryManager()
        base = BaseArray(6)
        memory.set_data(base, np.arange(6.0))
        matrix = memory.view_array(View.full(base, (2, 3)))
        assert matrix.shape == (2, 3)
        assert matrix[1, 2] == 5.0

    def test_read_view_is_a_copy(self):
        memory = MemoryManager()
        base = BaseArray(4)
        copy = memory.read_view(View.full(base))
        copy[:] = 9.0
        assert np.all(memory.allocate(base) == 0.0)

    def test_write_view_broadcasts(self):
        memory = MemoryManager()
        base = BaseArray(4)
        memory.write_view(View.full(base), 3.5)
        assert np.all(memory.allocate(base) == 3.5)

    def test_clone_is_independent(self):
        memory = MemoryManager()
        base = BaseArray(4)
        memory.set_data(base, np.ones(4))
        clone = memory.clone()
        memory.write_view(View.full(base), 2.0)
        assert np.all(clone.read_view(View.full(base)) == 1.0)


class TestCloneAccounting:
    def test_clone_preserves_true_peak(self):
        """Regression: clone() used to reset the peak to the *current* level.

        A verifier run that cloned after a large temporary was freed
        under-reported the true high-water mark.
        """
        memory = MemoryManager()
        big = BaseArray(1000)  # 8000 bytes
        small = BaseArray(10)
        memory.allocate(big)
        memory.allocate(small)
        memory.free(big)
        assert memory.peak_bytes == 8080
        clone = memory.clone()
        assert clone.peak_bytes == 8080
        assert clone.bytes_allocated == 80

    def test_clone_carries_allocation_counters(self):
        memory = MemoryManager()
        first, second = BaseArray(4), BaseArray(4)
        memory.allocate(first)
        memory.allocate(second)
        memory.free(first)
        clone = memory.clone()
        assert clone.allocation_count == 2
        assert clone.free_count == 1


class TestViewRealizationEdgeCases:
    def test_negative_stride_view_reads_reversed(self):
        memory = MemoryManager()
        base = BaseArray(10)
        memory.set_data(base, np.arange(10.0))
        reversed_view = View(base, 9, (10,), (-1,))
        assert list(memory.view_array(reversed_view)) == list(reversed(range(10)))

    def test_negative_stride_view_writes_through(self):
        memory = MemoryManager()
        base = BaseArray(6)
        reversed_view = View(base, 5, (6,), (-1,))
        memory.write_view(reversed_view, np.arange(6.0))
        assert list(memory.allocate(base)) == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]

    def test_negative_stride_view_validates_lower_bound(self):
        base = BaseArray(10)
        with pytest.raises(ValueError):
            View(base, 3, (10,), (-1,))  # would index element -6

    def test_zero_stride_view_broadcasts_one_element(self):
        memory = MemoryManager()
        base = BaseArray(4)
        memory.set_data(base, np.array([3.0, 0.0, 0.0, 0.0]))
        broadcast = View(base, 0, (5,), (0,))
        window = memory.view_array(broadcast)
        assert window.shape == (5,)
        assert np.all(window == 3.0)

    def test_zero_stride_write_collapses_to_one_element(self):
        memory = MemoryManager()
        base = BaseArray(4)
        broadcast = View(base, 1, (3,), (0,))
        memory.write_view(broadcast, 9.0)
        assert list(memory.allocate(base)) == [0.0, 9.0, 0.0, 0.0]

    def test_overlapping_read_and_write_windows(self):
        """A shifted self-copy through overlapping windows (stencil idiom)."""
        memory = MemoryManager()
        base = BaseArray(6)
        memory.set_data(base, np.arange(6.0))
        source = View(base, 0, (5,), (1,))
        target = View(base, 1, (5,), (1,))
        # Read out-of-place first (read_view copies), then write: the
        # runtime's reduction/extension paths rely on this being safe.
        data = memory.read_view(source)
        memory.write_view(target, data)
        assert list(memory.allocate(base)) == [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]

    def test_write_view_broadcasts_row_into_matrix(self):
        memory = MemoryManager()
        base = BaseArray(6)
        matrix = View.full(base, (2, 3))
        memory.write_view(matrix, np.array([1.0, 2.0, 3.0]))
        assert memory.view_array(matrix).tolist() == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]

    def test_write_view_rejects_non_broadcastable(self):
        memory = MemoryManager()
        base = BaseArray(6)
        with pytest.raises(ValueError):
            memory.write_view(View.full(base, (2, 3)), np.zeros((3, 2)))

    def test_set_data_size_mismatch_both_directions(self):
        memory = MemoryManager()
        with pytest.raises(AllocationError):
            memory.set_data(BaseArray(4), np.zeros(5))
        with pytest.raises(AllocationError):
            memory.set_data(BaseArray(4), np.zeros(3))

    def test_set_data_accepts_any_shape_with_matching_size(self):
        memory = MemoryManager()
        base = BaseArray(6)
        memory.set_data(base, np.arange(6.0).reshape(2, 3))
        assert list(memory.allocate(base)) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class _FakeSource:
    """A plan storage source: ``create``/``release`` like the shard store."""

    def __init__(self):
        self.live = {}
        self.released = []

    def create(self, nbytes):
        token = f"seg{len(self.live) + len(self.released)}"
        self.live[token] = np.full(nbytes, 0xAB, dtype=np.uint8)
        return token, self.live[token]

    def release(self, token):
        self.released.append(token)
        del self.live[token]


class TestPlanStorageSource:
    """Storage a plan draws from an external source instead of the pool."""

    def _plan(self, memory, source, zero_fill=False):
        first, second, alone = BaseArray(8), BaseArray(6), BaseArray(4)
        shared = BufferDirective(slot=0, slot_nbytes=64, zero_fill=zero_fill)
        memory.apply_plan({id(first): shared, id(second): shared}, source)
        return first, second, alone

    def test_slot_occupants_share_one_token_and_it_is_accounted_once(self):
        memory, source = MemoryManager(), _FakeSource()
        first, second, _ = self._plan(memory, source)
        assert memory.reserve(first) == memory.reserve(second) == "seg0"
        assert not memory.is_allocated(first), "reserving must not bind"
        assert memory.bytes_allocated == 64 and len(source.live) == 1
        storage = memory.allocate(first)
        assert memory.external_token(first) == "seg0"
        assert memory.zero_fill_bytes == 0, "the waiver was honoured"
        assert storage.view(np.uint8)[0] == 0xAB
        assert memory.pool.misses == 0, "nothing came from the host pool"

    def test_an_occupant_is_filled_when_it_binds_not_when_it_is_reserved(self):
        memory, source = MemoryManager(), _FakeSource()
        first, second, _ = self._plan(memory, source, zero_fill=True)
        memory.reserve(first), memory.reserve(second)
        memory.allocate(first)[:] = 7.0
        memory.free(first)
        assert memory.zero_fill_bytes == first.nbytes
        # The second occupant binds after the first is dead, and is zeroed then.
        assert not memory.allocate(second).any()
        assert memory.zero_fill_bytes == first.nbytes + second.nbytes

    def test_dedicated_storage_is_allocated_on_reserve_and_freed_to_the_source(self):
        memory, source = MemoryManager(), _FakeSource()
        _, _, alone = self._plan(memory, source)
        token = memory.reserve(alone)
        assert memory.is_allocated(alone) and memory.external_token(alone) == token
        assert not memory.allocate(alone).any() and memory.zero_fill_bytes == alone.nbytes
        memory.free(alone)
        assert source.released == [token] and memory.bytes_allocated == 0

    def test_clear_plan_returns_idle_slots_and_forgets_the_source(self):
        memory, source = MemoryManager(), _FakeSource()
        first, second, _ = self._plan(memory, source)
        memory.allocate(first)
        memory.clear_plan()
        assert not source.released, "an occupied slot stays with its occupant"
        memory.free(first)
        memory.clear_plan()
        assert source.released == ["seg0"] and memory.bytes_allocated == 0
        # With the plan gone, storage comes from the pool again.
        memory.allocate(second)
        assert memory.external_token(second) is None and len(source.live) == 0
