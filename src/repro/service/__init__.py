"""Multi-tenant array service: many sessions, one thread-safe engine.

A long-lived middleware process serves thousands of concurrent tenants;
each records byte-code through its own lightweight session while every
flush funnels into one shared :class:`~repro.runtime.engine.ExecutionEngine`
— so a plan optimized for one tenant's fingerprint is a cache hit for
every other tenant running the same structural workload, and compiled
native kernels amortize across the whole fleet instead of per session.

* :class:`ArrayService` — owns the shared engine, the shared byte-capped
  :class:`~repro.runtime.memory.BufferPool`, and admission control.
* :class:`ServiceSession` — a per-tenant session handle: isolated
  :class:`~repro.runtime.memory.MemoryManager` over the shared pool,
  flushes gated by admission control.  A tenant has one open session,
  driven by one thread at a time, so at most one flush per tenant is
  admitted or waiting.
* :class:`AdmissionController` — bounded in-flight flushes with
  backpressure and timeout-with-clean-rejection
  (:class:`~repro.utils.errors.ServiceOverloadError`).
* :func:`run_service_stress` — the deterministic N-threads × M-sessions
  hammer used by the stress suite and ``repro-opt --serve-stress``.
"""

from repro.service.core import (
    AdmissionController,
    ArrayService,
    ServiceSession,
    clone_program_with_fresh_bases,
    run_service_stress,
)

__all__ = [
    "AdmissionController",
    "ArrayService",
    "ServiceSession",
    "clone_program_with_fresh_bases",
    "run_service_stress",
]
