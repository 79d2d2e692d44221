"""Tests for the multi-tenant array service: sessions, admission, isolation."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.interpreter import NumPyInterpreter
from repro.service import (
    AdmissionController,
    ArrayService,
    clone_program_with_fresh_bases,
)
from repro.utils.errors import (
    ConcurrencyError,
    ExecutionError,
    ServiceOverloadError,
)

from tests.service.conftest import chain_program


class SlowInterpreter(NumPyInterpreter):
    """An interpreter that dawdles, so tests can hold an in-flight slot."""

    name = "slow-interpreter"

    def __init__(self, delay=0.3):
        super().__init__()
        self.delay = delay

    def execute_plan(self, plan, program, memory=None):
        time.sleep(self.delay)
        return super().execute_plan(plan, program, memory)


class TestAdmissionController:
    def test_tenant_cap_rejects_immediately(self):
        admission = AdmissionController(
            max_inflight=8, tenant_max_inflight=2, timeout_seconds=5.0
        )
        admission.admit("t")
        admission.admit("t")
        started = time.monotonic()
        with pytest.raises(ServiceOverloadError):
            admission.admit("t")
        # Per-tenant cap violations reject without consuming the timeout.
        assert time.monotonic() - started < 1.0
        assert admission.rejected_tenant_cap == 1
        # Another tenant is unaffected.
        admission.admit("u")
        for tenant in ("t", "t", "u"):
            admission.release(tenant)
        # Slots fully returned: the tenant may flush again.
        admission.admit("t")
        admission.release("t")

    def test_global_cap_times_out_with_clean_rejection(self):
        admission = AdmissionController(
            max_inflight=1, tenant_max_inflight=4, timeout_seconds=0.1
        )
        admission.admit("holder")
        with pytest.raises(ServiceOverloadError):
            admission.admit("waiter")
        assert admission.rejected_timeout == 1
        stats = admission.stats()
        assert stats["inflight"] == 1
        admission.release("holder")
        # The rejected waiter left no residue: it can be admitted now.
        admission.admit("waiter")
        admission.release("waiter")
        assert admission.stats()["inflight"] == 0

    def test_backpressure_wait_until_slot_frees(self):
        admission = AdmissionController(
            max_inflight=1, tenant_max_inflight=4, timeout_seconds=10.0
        )
        admission.admit("holder")
        admitted = threading.Event()

        def waiter():
            admission.admit("waiter")
            admitted.set()
            admission.release("waiter")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set(), "the waiter should be blocked on backpressure"
        admission.release("holder")
        thread.join()
        assert admitted.is_set()
        stats = admission.stats()
        assert stats["waits"] == 1
        assert stats["admitted"] == 2
        assert stats["peak_inflight"] == 1

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(tenant_max_inflight=0)


class TestServiceSessions:
    def test_sessions_share_engine_and_pool_but_not_memory(self, program):
        with ArrayService(backend="interpreter") as service:
            a = service.open_session("alice")
            b = service.open_session("bob")
            assert a.engine is b.engine is service.engine
            assert a.memory is not b.memory
            assert a.memory.pool.shared is service.pool
            assert b.memory.pool.shared is service.pool

            clone_a, bases_a = clone_program_with_fresh_bases(program)
            clone_b, bases_b = clone_program_with_fresh_bases(program)
            a.execute(clone_a)
            b.execute(clone_b)
            # Cross-session reuse: bob's flush hit the plan alice built.
            assert service.engine.plans_built == 1
            assert service.engine.plan_cache.stats()["plan_cache_hits"] >= 1
            # Isolation: each session sees exactly its own live bases.
            live_a = {id(base) for base in a.memory.live_bases()}
            live_b = {id(base) for base in b.memory.live_bases()}
            assert live_a.isdisjoint(live_b)

    def test_identical_results_across_tenants(self, program):
        with ArrayService(backend="interpreter") as service:
            a = service.open_session()
            b = service.open_session()
            clone_a, bases_a = clone_program_with_fresh_bases(program)
            clone_b, bases_b = clone_program_with_fresh_bases(program)
            result_a = a.execute(clone_a)
            result_b = b.execute(clone_b)
            values_a = [
                np.array(result_a.memory.allocate(base), copy=True)
                for base in bases_a
                if result_a.memory.is_allocated(base)
            ]
            values_b = [
                np.array(result_b.memory.allocate(base), copy=True)
                for base in bases_b
                if result_b.memory.is_allocated(base)
            ]
            assert len(values_a) == len(values_b) > 0
            for left, right in zip(values_a, values_b):
                np.testing.assert_array_equal(left, right)

    def test_flush_records_through_frontend_session_protocol(self, program):
        with ArrayService(backend="interpreter") as service:
            session = service.open_session()
            clone, bases = clone_program_with_fresh_bases(program)
            for instruction in clone:
                session.record(instruction)
            result = session.flush()
            assert result is not None
            assert session.flush_count == 1
            assert session.pending_size() == 0
            assert any(result.memory.is_allocated(base) for base in bases)
            # An empty flush is a no-op and does not consume admission.
            assert session.flush() is None
            assert service.admission.stats()["admitted"] == 1

    def test_rejected_flush_keeps_pending_program(self, program):
        backend = SlowInterpreter(delay=0.4)
        with ArrayService(
            backend=backend, max_inflight=1, admission_timeout=0.05
        ) as service:
            holder = service.open_session("holder")
            victim = service.open_session("victim")
            clone_h, _ = clone_program_with_fresh_bases(program)
            clone_v, _ = clone_program_with_fresh_bases(program)
            for instruction in clone_v:
                victim.record(instruction)
            pending_before = victim.pending_size()

            hold_done = threading.Thread(
                target=lambda: holder.execute(clone_h)
            )
            hold_done.start()
            time.sleep(0.1)  # the holder is now inside its slow execute
            with pytest.raises(ServiceOverloadError):
                victim.flush()
            # Clean rejection: nothing executed, nothing consumed.
            assert victim.pending_size() == pending_before
            assert victim.flush_count == 0
            hold_done.join()
            # The slot freed: the very same flush now succeeds.
            assert victim.flush() is not None
            assert victim.flush_count == 1

    def test_session_close_releases_arrays_to_shared_pool(self, program):
        with ArrayService(backend="interpreter") as service:
            session = service.open_session("t")
            clone, bases = clone_program_with_fresh_bases(program)
            session.execute(clone)
            assert len(tuple(session.memory.live_bases())) > 0
            service.close_session(session)
            assert session.closed
            assert tuple(session.memory.live_bases()) == ()
            # Its buffers parked in the shared pool for other tenants.
            assert service.pool.bytes_held > 0
            with pytest.raises(ExecutionError):
                session.flush()
            with pytest.raises(ExecutionError):
                session.execute(clone)
            # Closing twice is a no-op.
            session.close()

    def test_duplicate_tenant_rejected(self):
        with ArrayService(backend="interpreter") as service:
            service.open_session("t")
            with pytest.raises(ValueError):
                service.open_session("t")

    def test_two_threads_driving_one_session_is_diagnosed(self, program):
        backend = SlowInterpreter(delay=0.3)
        with ArrayService(backend=backend) as service:
            session = service.open_session()
            clone_a, _ = clone_program_with_fresh_bases(program)
            clone_b, _ = clone_program_with_fresh_bases(program)
            started = threading.Event()
            errors = []

            def first():
                started.set()
                session.execute(clone_a)

            thread = threading.Thread(target=first)
            thread.start()
            started.wait()
            time.sleep(0.05)
            with pytest.raises(ConcurrencyError):
                session.execute(clone_b)
            thread.join()
            assert errors == []

    def test_service_stats_and_total_stats_aggregate_across_tenants(self, program):
        with ArrayService(backend="interpreter") as service:
            a = service.open_session()
            b = service.open_session()
            for session in (a, b):
                clone, _ = clone_program_with_fresh_bases(program)
                session.execute(clone)
            service.close_session(a)  # retired stats must still count
            total = service.total_stats()
            assert total.plan_cache_hits + total.plan_cache_misses == 2
            stats = service.stats()
            assert stats["sessions_open"] == 1
            assert stats["sessions_opened"] == 2
            assert stats["admission"]["admitted"] == 2
            assert stats["cache"]["plan_builds"] == 1
            # Messages live beside the counters, never among them.
            assert stats["native_fallback_reasons"] == {}
            # So does the resolved configuration the flushes ran under.
            assert stats["config"]["threads"] >= 1
            assert stats["config"]["cache_dir"]
            assert all(
                isinstance(value, (int, float)) for value in stats["cache"].values()
            )

    def test_closed_service_rejects_new_sessions(self):
        service = ArrayService(backend="interpreter")
        service.close()
        with pytest.raises(ExecutionError):
            service.open_session()

    def test_defaults_are_the_documented_ones(self):
        with ArrayService(backend="interpreter") as service:
            assert service.admission.max_inflight == 16
            assert service.admission.tenant_max_inflight == 4
            assert service.admission.timeout_seconds == 5.0
            assert service.pool.max_bytes == 1 << 28
            assert service.pool.fairness == "shared"
            assert service.engine.plan_cache.capacity == 128
