"""The five workloads: set-up, the closed-loop op, and the output checks.

One *op* is one user-visible "build arrays -> flush -> read result".  Every
workload runs the library's default configuration; only the backend name
and the private ``codegen_cache_dir`` (set by the harness) are chosen here.
Ops are timed with ``time.perf_counter`` around the op alone.  Checking an
output against its reference happens either after the window or inside
``Window.checking()``, whose wall and CPU time the rounds leave out.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import random
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import codegen
from repro.frontend import zeros
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memory import MemoryManager
from repro.runtime.plan import program_fingerprint
from repro.service import ArrayService
from repro.utils.errors import ServiceOverloadError
from repro.workloads.applications import black_scholes, heat_equation, monte_carlo_pi
from repro.workloads.generators import random_elementwise_program, random_mixed_program
from repro.workloads.microbench import (
    linear_solve_program,
    power_program,
    repeated_constant_add,
)

from bench.procstat import cpu_seconds, peak_rss_mib
from bench.trace import engine_options

#: Reductions, linear algebra and the overflow-prone random programs are
#: compared with this tolerance; everything else bitwise.
RTOL, ATOL = 1e-6, 1e-8
HOT_EDGE = 100.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; identical on every commit."""

    grid_large: int = 1200
    iterations: int = 4
    grid_small: int = 96
    programs: int = 32
    vector: int = 16384
    options: int = 200_000
    #: flush_storm_small compares its grid with the reference every this many ops.
    check_every: int = 500
    #: service_tenants checks one op in this many against the oracle.
    oracle_every: int = 16
    warmup_ops: int = 4


FULL = Sizes()
# Tiny, but every view stays above the 4096 elements under which
# ``View.overlaps`` enumerates elements in Python (which makes *smaller*
# programs slower to optimize than these).
SMOKE = Sizes(
    grid_large=128,
    iterations=2,
    grid_small=72,
    programs=5,
    vector=8192,
    options=8192,
    check_every=8,
    oracle_every=1,
    warmup_ops=3,
)


def client_threads() -> int:
    """Tenant threads: never more than ``min(nproc, 4)``."""
    return min(len(os.sched_getaffinity(0)), 4)


@dataclass
class Window:
    """What one measured window produced."""

    start: float = 0.0
    end: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bytecodes: int = 0
    overloads: int = 0
    errors: List[str] = field(default_factory=list)
    #: Peak RSS is read when this many ops are done, not when the time is
    #: up: memory that grows per op (``Session.stats_history``) must not
    #: read higher just because faster code fitted more ops into the window.
    rss_after_ops: int = 0
    peak_rss_mb: float = 0.0
    #: ``(start, end, CPU seconds)`` of every output check inside the window.
    pauses: List[tuple] = field(default_factory=list)

    @contextlib.contextmanager
    def checking(self):
        """Stops the clock around an output check made between two ops.

        Only for the single-client workloads: a tenant thread that checks
        does not stop the others.
        """
        started, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.pauses.append((started, time.perf_counter(), cpu_seconds() - cpu))

    def record(self, started: float, ended: float, bytecodes: int = 0) -> None:
        self.latencies_ms.append((ended - started) * 1e3)
        self.ends.append(ended)
        self.attempted += 1
        self.bytecodes += bytecodes
        if self.attempted == self.rss_after_ops:
            self.peak_rss_mb = peak_rss_mib()

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(reason)
            print(f"bench: op failed: {reason}", file=sys.stderr)

    def raised(self, started: float) -> None:
        """An op that raised: attempted, failed, and timed up to the raise."""
        self.record(started, time.perf_counter())
        self.fail(1, traceback.format_exc(limit=3).strip().splitlines()[-1])

    def merge(self, other: "Window") -> None:
        self.latencies_ms += other.latencies_ms
        self.ends += other.ends
        self.attempted += other.attempted
        self.failed += other.failed
        self.bytecodes += other.bytecodes
        self.overloads += other.overloads
        self.errors += other.errors
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """Same shape, dtype and bits (so ``-0.0 != 0.0`` and equal NaNs match)."""
    if left.shape != right.shape or left.dtype != right.dtype:
        return False
    raw = np.dtype(f"u{left.dtype.itemsize}")
    return bool(
        np.array_equal(
            np.ascontiguousarray(left).view(raw), np.ascontiguousarray(right).view(raw)
        )
    )


def close_enough(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and bool(
        np.allclose(left, right, rtol=RTOL, atol=ATOL, equal_nan=True)
    )


# --------------------------------------------------------------------------- #
# Pure-NumPy Jacobi reference (written here, shares no code with the library)
# --------------------------------------------------------------------------- #


def jacobi_grid(size: int) -> np.ndarray:
    grid = np.zeros((size, size), dtype=np.float64)
    grid[0, :] = HOT_EDGE
    grid[-1, :] = HOT_EDGE
    return grid


def jacobi_step_reference(grid: np.ndarray) -> np.ndarray:
    # Same association as the front-end expression: ((up + down) + left) + right.
    interior = (grid[0:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, 0:-2] + grid[1:-1, 2:]) * 0.25
    following = grid.copy()
    following[1:-1, 1:-1] = interior
    return following


def jacobi_reference(size: int, iterations: int) -> np.ndarray:
    grid = jacobi_grid(size)
    for _ in range(iterations):
        grid = jacobi_step_reference(grid)
    return grid


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class Workload:
    """Common shape: ``setup`` -> ``run(seconds)`` -> ``close``.

    The defaults of ``cache_stats`` and ``close`` serve the workloads that
    keep one ``self.session``.
    """

    name = ""
    backend = "native"
    #: Ops after which the window reads peak RSS (see ``Window``); chosen
    #: so that even the host's slow phases reach it well inside a run.
    rss_after_ops = 0

    def __init__(self, seed: int, tracer, sizes: Sizes = FULL) -> None:
        self.seed = seed
        self.tracer = tracer
        self.sizes = sizes
        self._op_ids = 0

    def _next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    def setup(self) -> None:
        raise NotImplementedError

    def _require_clean(self, warmup: Window) -> None:
        if warmup.failed:
            raise RuntimeError(f"{self.name}: warm-up failed: {warmup.errors}")

    def run(self, seconds: float) -> Window:
        """Closed loop from this thread: the next op starts when the last ended."""
        window = Window(start=time.perf_counter(), rss_after_ops=self.rss_after_ops)
        deadline = window.start + seconds
        while time.perf_counter() < deadline:
            self.op(window)
        window.end = time.perf_counter()
        self.finish(window)
        return window

    def op(self, window: Window) -> None:
        raise NotImplementedError

    def finish(self, window: Window) -> None:
        """Checks that must wait until the clock has stopped."""

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative engine + backend counters (public ``cache_stats()``)."""
        return self.session.cache_stats()

    def service_stats(self) -> Optional[dict]:
        """``ArrayService.stats()`` where there is a service."""
        return None

    def close(self) -> None:
        _close_engine(self.session.engine)


def _close_engine(engine: ExecutionEngine) -> None:
    closer = getattr(engine.backend, "close", None)
    if callable(closer):
        closer()


class StencilLarge(Workload):
    """``heat_equation(1200, 4).to_numpy()`` on one long-lived session."""

    name = "stencil_large"
    rss_after_ops = 150

    def setup(self) -> None:
        sizes = self.sizes
        self.session = Session(**engine_options(self.backend, self.tracer))
        self.reference = jacobi_reference(sizes.grid_large, sizes.iterations)
        warmup = Window()
        for _ in range(sizes.warmup_ops):
            self.op(warmup)
        self._require_clean(warmup)

    def op(self, window: Window) -> None:
        tracer, session, sizes = self.tracer, self.session, self.sizes
        started = time.perf_counter()
        try:
            with tracer.op(self._next_op()):
                with tracer.span("frontend.record"):
                    result = heat_equation(
                        grid_size=sizes.grid_large,
                        iterations=sizes.iterations,
                        hot_edge_value=HOT_EDGE,
                        session=session,
                    )
                    bytecodes = session.pending_size()
                # ``to_numpy()`` is exactly these two calls.
                with tracer.span("flush"):
                    session.flush(sync_views=(result.view,))
                with tracer.span("frontend.read"):
                    output = session.memory.read_view(result.view)
        except Exception:  # noqa: BLE001 - the benchmark counts it and goes on
            window.raised(started)
            return
        window.record(started, time.perf_counter(), bytecodes)
        with window.checking():
            if not bitwise_equal(output, self.reference):
                window.fail(1, f"{self.name}: output differs from the NumPy Jacobi reference")


class DistStencil(StencilLarge):
    """The same op on the multi-process backend at its default worker count."""

    name = "dist_stencil"
    backend = "dist"
    rss_after_ops = 40


def _jacobi_step(work):
    up = work[0:-2, 1:-1]
    down = work[2:, 1:-1]
    left = work[1:-1, 0:-2]
    right = work[1:-1, 2:]
    interior = (up + down + left + right) * 0.25
    following = work.copy()
    following[1:-1, 1:-1] = interior
    return following


class FlushStormSmall(Workload):
    """One 96x96 Jacobi step recorded through the front-end, then ``flush()``."""

    name = "flush_storm_small"
    rss_after_ops = 5000

    def setup(self) -> None:
        size = self.sizes.grid_small
        self.session = Session(**engine_options(self.backend, self.tracer))
        grid = zeros((size, size), session=self.session)
        grid[0, :] = HOT_EDGE
        grid[-1, :] = HOT_EDGE
        self.work = grid
        self.reference = jacobi_grid(size)
        self.unchecked = 0
        # Two blocks, so that the flush shapes around a check (the read's
        # sync, the shorter free list after it) are planned before timing.
        warmup = Window()
        for _ in range(2):
            for _ in range(self.sizes.warmup_ops):
                self.op(warmup)
            self._check(warmup)
        self._require_clean(warmup)

    def op(self, window: Window) -> None:
        tracer, session = self.tracer, self.session
        started = time.perf_counter()
        try:
            with tracer.op(self._next_op()):
                with tracer.span("frontend.record"):
                    self.work = _jacobi_step(self.work)
                    bytecodes = session.pending_size()
                with tracer.span("flush"):
                    session.flush()
        except Exception:  # noqa: BLE001
            window.raised(started)
            return
        window.record(started, time.perf_counter(), bytecodes)
        self.unchecked += 1
        if self.unchecked >= self.sizes.check_every:
            self._check(window)

    def _check(self, window: Window) -> None:
        """Compare the evolving grid with the reference advanced as far."""
        with window.checking():
            steps, self.unchecked = self.unchecked, 0
            for _ in range(steps):
                self.reference = jacobi_step_reference(self.reference)
            output = self.work.to_numpy()
            if not bitwise_equal(output, self.reference):
                window.fail(steps, f"{self.name}: grid differs from the NumPy Jacobi reference")
                self.reference = output  # judge the next block on its own

    def finish(self, window: Window) -> None:
        self._check(window)


@dataclass
class _ColdProgram:
    kind: str
    program: object
    outputs: list
    inputs: Optional[MemoryManager]
    exact: bool
    expected: list = field(default_factory=list)

    def fresh_memory(self) -> MemoryManager:
        """The op's "build arrays": a private copy of the inputs, if any."""
        return self.inputs.clone() if self.inputs is not None else MemoryManager()


#: The shapes of the cold programs: what each one costs is fixed here, so
#: that no seed makes the set cheaper or dearer.  Generator seeds pick the
#: random programs' structure; the other numbers are exponents, repeat
#: counts and system sizes.
_CATALOGUE = {
    "elementwise": range(101, 108),
    "mixed": range(201, 207),
    "power": (3, 5, 8, 13, 21, 34, 40),
    "constant_add": (2, 3, 5, 8, 13, 15),
    "linear_solve": (24, 32, 40, 48, 56, 64),
}


def generate_cold_programs(seed: int, sizes: Sizes) -> List[_ColdProgram]:
    """The seeded, structurally distinct program set (same seed, same keys).

    The seed chooses what does not change the work: each program's exact
    vector length (within 3 %), the added constants, the linear systems'
    data (and size, within 2) and the order of execution.  Every seed
    therefore yields programs with other canonical keys — nothing can be
    keyed on a fingerprint — at the same cost.
    """
    rng = random.Random(seed)
    programs: List[_ColdProgram] = []
    seen = set()
    # Round-robin over the kinds, so that a smaller set keeps the mix.
    entries = [
        entry
        for row in itertools.zip_longest(
            *([(kind, shape) for shape in shapes] for kind, shapes in _CATALOGUE.items())
        )
        for entry in row
        if entry is not None
    ]
    for kind, shape in entries[: sizes.programs]:
        draw = rng.randrange(1 << 30)
        length = sizes.vector + 8 * (draw % 64)
        inputs = None
        if kind == "elementwise":
            program, outputs = random_elementwise_program(
                shape, num_instructions=12, vector_length=length
            )
        elif kind == "mixed":
            side = int(round(sizes.vector ** 0.5))
            program, outputs = random_mixed_program(
                shape, num_instructions=10, rows=side + draw % 4, cols=side + (draw >> 2) % 4
            )
        elif kind == "power":
            program, out, inputs = power_program(length, shape)
            outputs = [out]
        elif kind == "constant_add":
            # Quarters add exactly, so this kind is compared bitwise.
            program, out = repeated_constant_add(
                length, repeats=shape, constant=(1 + draw % 16) / 4
            )
            outputs = [out]
        else:
            program, out, inputs = linear_solve_program(shape + draw % 3, seed=draw)
            outputs = [out]
        fingerprint = program_fingerprint(program)
        if fingerprint in seen:
            raise AssertionError(f"cold program {kind}/{shape} duplicates another")
        seen.add(fingerprint)
        # Everything but constant merging (power chains, reductions,
        # solve-for-inverse) legitimately differs from the oracle in the
        # last bits.
        programs.append(
            _ColdProgram(kind, program, list(outputs), inputs, exact=kind == "constant_add")
        )
    rng.shuffle(programs)
    return programs


class ColdPrograms(Workload):
    """Every op a plan miss: fresh engine per pass over the program set."""

    name = "cold_programs"
    rss_after_ops = 1500

    def setup(self) -> None:
        self.programs = generate_cold_programs(self.seed, self.sizes)
        oracle = ExecutionEngine(backend="interpreter", optimize=False)
        for item in self.programs:
            result = oracle.execute(item.program, item.fresh_memory())
            item.expected = [result.value(view) for view in item.outputs]
        self.totals: Dict[str, int] = {}
        self.engine: Optional[ExecutionEngine] = None
        self.position = 0
        # First-ever pass into the empty artifact directory (the compiles),
        # then one disk-warm pass like the measured ones.
        warmup = Window()
        for _ in range(2 * len(self.programs)):
            self.op(warmup)
        self._require_clean(warmup)

    def _retire_engine(self) -> None:
        if self.engine is None:
            return
        for key, value in self.engine.cache_stats().items():
            self.totals[key] = self.totals.get(key, 0) + value
        _close_engine(self.engine)
        self.engine = None

    def op(self, window: Window) -> None:
        if self.position == 0:
            # A pass starts like a new process: no engine, no loaded
            # artifacts — they come from the disk cache.
            self._retire_engine()
            codegen.clear_memory_cache()
            self.engine = ExecutionEngine(**engine_options(self.backend, self.tracer))
        item = self.programs[self.position]
        self.position = (self.position + 1) % len(self.programs)
        tracer, engine = self.tracer, self.engine
        started = time.perf_counter()
        try:
            with tracer.op(self._next_op()):
                with tracer.span("frontend.record"):
                    memory = item.fresh_memory()
                with tracer.span("flush"):
                    result = engine.execute(item.program, memory)
                with tracer.span("frontend.read"):
                    values = [result.value(view) for view in item.outputs]
        except Exception:  # noqa: BLE001
            window.raised(started)
            return
        window.record(started, time.perf_counter(), len(item.program))
        with window.checking():
            same = bitwise_equal if item.exact else close_enough
            if not all(same(value, want) for value, want in zip(values, item.expected)):
                window.fail(1, f"{self.name}: {item.kind} program differs from the oracle")

    def cache_stats(self) -> Dict[str, int]:
        stats = dict(self.totals)
        if self.engine is not None:
            for key, value in self.engine.cache_stats().items():
                stats[key] = stats.get(key, 0) + value
        return stats

    def close(self) -> None:
        self._retire_engine()


@dataclass
class _Tenant:
    session: object
    rng: random.Random
    ops_done: int = 0
    random_calls: int = 0
    #: (request order, BH_RANDOM seeds drawn before the op, kept outputs) per sampled op.
    samples: list = field(default_factory=list)


#: Request kind -> (front-end function, BH_RANDOM seeds it draws).
_REQUESTS = {"black_scholes": (black_scholes, 1), "monte_carlo_pi": (monte_carlo_pi, 2)}


def _keep(kind: str, output: np.ndarray):
    """What is kept of a sampled output until the oracle runs: a digest of
    the element-wise result (compared bitwise), the reduction's value."""
    if kind == "black_scholes":
        return hashlib.blake2b(output.tobytes(), digest_size=16).digest()
    return output.copy()


class ServiceTenants(Workload):
    """Tenant threads on one ``ArrayService``, black_scholes + monte_carlo_pi.

    One op is one tenant request pair — ``black_scholes(n).to_numpy()`` and
    ``monte_carlo_pi(n).to_numpy()``, in seeded order.  Timing the pair
    rather than the two halves keeps the op's cost unimodal: the median of
    a mix of a dear and a cheap request sits between the two clusters and
    jumps with every small change of the mix.
    """

    name = "service_tenants"
    rss_after_ops = 100  # of the first tenant

    def __init__(self, seed, tracer, sizes: Sizes = FULL, tenants: Optional[int] = None):
        super().__init__(seed, tracer, sizes)
        self.tenant_count = tenants if tenants is not None else client_threads()

    def setup(self) -> None:
        self.service = ArrayService(**engine_options(self.backend, self.tracer))
        self.tenants = [
            # Every tenant follows the same seeded order: their BH_RANDOM
            # seeds then line up, so whichever tenant reaches a program
            # second finds the first one's plan (hit ratio ~ 1 - 1/tenants)
            # or waits on its build latch.
            _Tenant(self.service.open_session(), random.Random(self.seed))
            for _ in range(self.tenant_count)
        ]
        warmup = Window()
        for index, tenant in enumerate(self.tenants):
            for _ in range(self.sizes.warmup_ops):
                self._op(index, tenant, warmup)
        self._verify_samples(warmup)
        self._require_clean(warmup)

    def _op(self, index: int, tenant: _Tenant, window: Window) -> None:
        tracer, session, count = self.tracer, tenant.session, self.sizes.options
        order = ["black_scholes", "monte_carlo_pi"]
        tenant.rng.shuffle(order)
        calls_before = tenant.random_calls
        tenant.random_calls += 3
        tenant.ops_done += 1
        outputs = []
        bytecodes = 0
        started = time.perf_counter()
        try:
            with tracer.op(index * 10_000_000 + tenant.ops_done):
                for kind in order:
                    with tracer.span("frontend.record"):
                        result = _REQUESTS[kind][0](count, session=session)
                        bytecodes += session.pending_size()
                    with tracer.span("flush"):
                        session.flush(sync_views=(result.view,))
                    with tracer.span("frontend.read"):
                        outputs.append(session.memory.read_view(result.view))
        except ServiceOverloadError:
            window.overloads += 1
            window.raised(started)
            return
        except Exception:  # noqa: BLE001
            window.raised(started)
            return
        window.record(started, time.perf_counter(), bytecodes)
        # Every op: a cheap plausibility check.  One in ``oracle_every``: kept
        # for the bit-for-bit / tolerance comparison with the oracle, which
        # runs after the clock has stopped so it cannot steal a tenant's CPU.
        prices, estimate = (outputs if order[0] == "black_scholes" else outputs[::-1])
        plausible = (
            prices.shape == (count,)
            and bool(np.isfinite(prices).all())
            and estimate.shape == (1,)
            and 2.5 < float(estimate[0]) < 3.8
        )
        if not plausible:
            window.fail(1, f"{self.name}: implausible output")
        elif tenant.ops_done % self.sizes.oracle_every == 0:
            kept = [_keep(kind, output) for kind, output in zip(order, outputs)]
            tenant.samples.append((order, calls_before, kept))

    def run(self, seconds: float) -> Window:
        windows = [Window() for _ in self.tenants]
        windows[0].rss_after_ops = self.rss_after_ops
        start = time.perf_counter()
        deadline = start + seconds

        def drive(index: int) -> None:
            tenant, window = self.tenants[index], windows[index]
            while time.perf_counter() < deadline:
                self._op(index, tenant, window)

        threads = [
            threading.Thread(target=drive, args=(index,), name=f"tenant-{index}")
            for index in range(len(self.tenants))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = Window(start=start, end=time.perf_counter())
        for window in windows:
            merged.merge(window)
        self._verify_samples(merged)
        return merged

    def _verify_samples(self, window: Window) -> None:
        """Replay each sampled op on the unoptimized interpreter oracle.

        ``BH_RANDOM`` seeds advance per call within a session, so the oracle
        session is stepped (``next_seed()``) to the sampled op's position.
        """
        count = self.sizes.options
        for tenant in self.tenants:
            oracle = Session(backend="interpreter", optimize=False)
            drawn = 0
            for order, calls_before, kept in tenant.samples:
                while drawn < calls_before:
                    oracle.next_seed()
                    drawn += 1
                for kind, have in zip(order, kept):
                    function, seeds = _REQUESTS[kind]
                    want = function(count, session=oracle).to_numpy()
                    drawn += seeds
                    if kind == "black_scholes":
                        same = _keep(kind, want) == have
                    else:
                        same = close_enough(have, want)
                    if not same:
                        window.fail(1, f"{self.name}: {kind} differs from the oracle")
            tenant.samples = []

    def cache_stats(self) -> Dict[str, int]:
        return self.service.engine.cache_stats()

    def service_stats(self) -> dict:
        return self.service.stats()

    def close(self) -> None:
        self.service.close()


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (StencilLarge, FlushStormSmall, ColdPrograms, ServiceTenants, DistStencil)
}
