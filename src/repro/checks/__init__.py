"""Static checking layer: machine-checked invariants for programs and plans.

Two analyzers, both purely static (no program is ever executed), each
imported only once ``check_ir`` is on:

* :mod:`repro.checks.ircheck` — flow-sensitive program invariant checker
  run by the optimization pipeline *between passes* under the ``check_ir``
  config knob; a broken rewrite is rejected naming the offending pass and
  instruction instead of producing silently wrong results downstream.
* :mod:`repro.checks.plancheck` — independent soundness checks for
  plan-time artifacts (memory plan, fusion schedule, tiling decomposition)
  run by ``Backend.prepare_plan`` under the same knob, so a corrupted
  cached plan can never execute.

The lock-hierarchy lint is not a runtime check: it lives with the tests,
as ``tests/lockcheck.py``.

The module-level :class:`CheckCounters` singleton aggregates how often the
runtime checkers actually fired; the engine snapshots it into
``cache_stats()`` and the CLI's ``--stats-json`` ``checks`` block so test
suites can assert non-vacuity (checks genuinely ran, not silently skipped).
"""

from __future__ import annotations

import threading
from typing import Dict


class CheckCounters:
    """Thread-safe counters for the runtime (ir/plan) checkers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ir_checks_run = 0
        self.ir_check_failures = 0
        self.plan_checks_run = 0
        self.plan_check_failures = 0

    def note_ir_check(self, count: int = 1) -> None:
        with self._lock:
            self.ir_checks_run += count

    def note_ir_failure(self) -> None:
        with self._lock:
            self.ir_check_failures += 1

    def note_plan_check(self, count: int = 1) -> None:
        with self._lock:
            self.plan_checks_run += count

    def note_plan_failure(self) -> None:
        with self._lock:
            self.plan_check_failures += 1

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of all counters."""
        with self._lock:
            return {
                "ir_checks_run": self.ir_checks_run,
                "ir_check_failures": self.ir_check_failures,
                "plan_checks_run": self.plan_checks_run,
                "plan_check_failures": self.plan_check_failures,
            }

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        with self._lock:
            self.ir_checks_run = 0
            self.ir_check_failures = 0
            self.plan_checks_run = 0
            self.plan_check_failures = 0


#: Process-wide counters; reset by the test suite's ``clean_global_state``.
COUNTERS = CheckCounters()

__all__ = ["CheckCounters", "COUNTERS"]
