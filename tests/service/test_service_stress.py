"""The N-threads × M-sessions stress suite (the issue's acceptance gate).

Drives one shared service hard enough that every shared structure — plan
cache, in-flight latch, buffer pool, admission controller, codegen memo —
is contended, then asserts the invariants that make multi-tenancy safe:

* every tenant's result is **bitwise identical** to a serial single-tenant
  reference,
* each distinct program fingerprint was optimized **exactly once**
  service-wide (and at least one flush was a cross-session cache hit),
* the shared pool's byte cap was never exceeded,
* admission accounting balances to zero in-flight at the end, and
  saturation produced clean rejections, never corruption.
"""

import pytest

from repro.service import ArrayService, run_service_stress
from repro.utils.config import config_override

from tests.service.conftest import chain_program


class TestServiceStress:
    def test_eight_threads_thirty_two_sessions_bitwise_identical(self, program):
        report = run_service_stress(
            program, threads=8, sessions=32, repeats=2, backend="interpreter"
        )
        assert report["errors"] == []
        assert report["mismatches"] == 0, "a tenant observed non-serial results"
        assert report["ok"]
        assert report["executed"] == 64
        # Exactly-once optimization: one fingerprint, one build, and every
        # other flush replayed it — cross-session plan-cache hits.
        assert report["plan_builds"] == 1
        assert report["plan_cache_hits"] >= 1
        assert report["plan_cache_hits"] + report["stats"]["cache"][
            "plan_waits"
        ] >= 63
        # The pool cap held at every instant (peak maintained under lock).
        assert report["pool_peak_bytes_held"] <= report["pool_max_bytes"]
        admission = report["stats"]["admission"]
        assert admission["inflight"] == 0
        assert admission["peak_inflight"] <= admission["max_inflight"]
        assert admission["admitted"] == 64

    def test_stress_on_the_parallel_backend(self, program):
        # Tiny tiles: the 32-element chain still launches templates per tile.
        with config_override(parallel_tile_elements=8, parallel_serial_threshold=4):
            report = run_service_stress(
                program, threads=4, sessions=8, repeats=2, backend="parallel"
            )
        assert report["errors"] == []
        assert report["mismatches"] == 0
        assert report["plan_builds"] == 1
        # The shared backend's template cache deduped across tenants too.
        cache = report["stats"]["cache"]
        assert cache["tile_template_hits"] > 0
        assert cache["tile_template_misses"] <= cache["tile_template_hits"]

    def test_stress_on_the_native_backend(self, program):
        # Without a C compiler the native backend degrades to interpreted
        # templates — still a valid concurrency stress, just no compiles.
        report = run_service_stress(
            program, threads=4, sessions=8, repeats=2, backend="native"
        )
        assert report["errors"] == []
        assert report["mismatches"] == 0
        assert report["plan_builds"] == 1
        # The shared engine surfaces the native tier's counters, so the
        # service path's codegen behaviour is observable from the report.
        cache = report["stats"]["cache"]
        for key in (
            "native_mt_launches",
            "native_reduction_fallbacks",
            "native_slots_elided",
        ):
            assert key in cache, key

    def test_two_fingerprints_each_optimized_exactly_once(self):
        small = chain_program(size=16, adds=2)
        large = chain_program(size=64, adds=5)
        with ArrayService(backend="interpreter") as service:
            first = run_service_stress(
                small, threads=4, sessions=8, repeats=2, service=service
            )
            second = run_service_stress(
                large, threads=4, sessions=8, repeats=2, service=service
            )
            assert first["errors"] == second["errors"] == []
            assert first["mismatches"] == second["mismatches"] == 0
            assert first["plan_builds"] == 1
            # The same service compiled exactly one more plan for the new
            # fingerprint; the first one stayed cached and untouched.
            assert second["plan_builds"] == 2

    def test_tiny_pool_cap_is_never_exceeded_under_churn(self):
        # Each flush frees two 2 KiB buffers (256 float64 elements each)
        # into a pool that parks one.
        program = chain_program(size=256)
        with ArrayService(backend="interpreter", pool_max_bytes=2048) as service:
            report = run_service_stress(
                program, threads=8, sessions=16, repeats=2, service=service
            )
            assert report["errors"] == []
            assert report["mismatches"] == 0
            pool = report["stats"]["pool"]
            assert pool["pool_peak_bytes_held"] <= 2048
            # A 2 KiB cap under 32 flushes of multi-buffer programs must
            # have forced discards — proof the cap actually bit.
            assert pool["pool_discards"] > 0

    def test_saturated_admission_rejects_cleanly_and_recovers(self, program):
        # One in-flight slot, an immediate timeout and one flush per tenant
        # queued behind it: some flushes are rejected, none corrupt state,
        # and every executed flush is still bitwise correct.
        with ArrayService(
            backend="interpreter",
            max_inflight=1,
            admission_timeout=0.0,
        ) as service:
            report = run_service_stress(
                program, threads=8, sessions=16, repeats=3, service=service
            )
            assert report["errors"] == []
            assert report["mismatches"] == 0
            admission = report["stats"]["admission"]
            assert admission["inflight"] == 0
            assert (
                admission["admitted"]
                == report["flushes"] - report["rejections"]
            )
            assert report["executed"] + report["rejections"] == report["flushes"]

    def test_plan_cache_contention_is_observable(self, program):
        report = run_service_stress(
            program, threads=8, sessions=32, repeats=2, backend="interpreter"
        )
        cache = report["stats"]["cache"]
        # The counters exist and are coherent; actual contention depends on
        # scheduling, so only the accounting identity is asserted.
        assert cache["plan_cache_contentions"] >= 0
        assert (
            cache["plan_cache_hits"] + cache["plan_cache_misses"]
            >= report["executed"]
        )

    def test_stress_respects_config_backend_default(self, program):
        with config_override(default_backend="parallel"):
            report = run_service_stress(
                program, threads=2, sessions=4, repeats=2
            )
            assert report["backend"] == "parallel"
            assert report["ok"]
