"""Regression tests for the codegen compile-once latch.

Three properties, all load-bearing for the multi-tenant service:

* **Compile-once per digest**: concurrent resolvers of the same generated
  source dedupe to exactly one compiler invocation; the losers wait on the
  per-digest latch and report a ``"memory"`` outcome.
* **One runtime per process**: the kernel runtime artifact (the vector
  ``erf``) goes through the same latch, so tenants whose first erf launches
  arrive together build (or load) it exactly once.
* **No cross-digest serialization**: the module lock is held only for dict
  surgery, never across a compile — resolvers of *distinct* digests run
  their compilers concurrently.  (The naive fix — holding the module lock
  for the whole resolve — would pass the first property and fail this one.)

The compiler itself is faked, so these run without a toolchain and at
deterministic speed.
"""

import itertools
import threading

import pytest

import repro.codegen.cache as cache
from repro.codegen.compiler import CodegenError

_SOURCE_COUNTER = itertools.count()


def unique_source(tag):
    """A fresh never-before-seen source text (fresh digest) per call."""
    return f"/* {tag} {next(_SOURCE_COUNTER)} */ void kernel(void) {{}}"


class FakeCompiled:
    """Stands in for CompiledKernel; identity is what the tests assert on."""

    def __init__(self, source):
        self.source = source


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Empty in-process memo over an empty cache directory, compiler
    'available', compiles faked (they write nothing to the directory)."""
    cache.clear_memory_cache()
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    monkeypatch.setattr(cache, "find_c_compiler", lambda: "cc")
    yield
    cache.clear_memory_cache()


class TestCompileOnceLatch:
    def test_same_digest_compiles_exactly_once(self, fresh_cache, monkeypatch):
        compiles = []
        compile_lock = threading.Lock()
        started = threading.Event()
        release = threading.Event()

        def fake_compile(cache_dir, digest, source, opt_level, loader):
            with compile_lock:
                compiles.append(source)
            started.set()
            release.wait()  # hold the latch while the other threads arrive
            return FakeCompiled(source)

        monkeypatch.setattr(cache, "_compile_to_disk", fake_compile)
        source = unique_source("same-digest")
        outcomes = []
        kernels = []
        record = threading.Lock()

        def resolve():
            kernel, outcome = cache.get_compiled_kernel(source)
            with record:
                outcomes.append(outcome)
                kernels.append(kernel)

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        threads[0].start()
        started.wait()
        # The builder is inside the (held-open) compile; the rest must
        # queue on the latch rather than compile in parallel.
        for thread in threads[1:]:
            thread.start()
        release_timer = threading.Timer(0.1, release.set)
        release_timer.start()
        for thread in threads:
            thread.join()
        release_timer.join()

        assert len(compiles) == 1, "the same digest was compiled more than once"
        assert sorted(outcomes) == ["compiled", "memory", "memory", "memory"]
        assert all(kernel is kernels[0] for kernel in kernels)

    def test_concurrent_tenants_resolve_one_runtime(self, fresh_cache, monkeypatch):
        # Four first resolves at once: one runtime compile, and every caller
        # is handed the same loaded runtime.
        compiles = []
        release = threading.Event()

        def fake_compile(cache_dir, digest, source, opt_level, loader):
            compiles.append(loader)
            release.wait()
            return FakeCompiled(source)

        monkeypatch.setattr(cache, "_compile_to_disk", fake_compile)
        found = []
        record = threading.Lock()

        def resolve():
            result = cache.resolve_runtime()
            with record:
                found.append(result)

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for thread in threads:
            thread.start()
        release_timer = threading.Timer(0.1, release.set)
        release_timer.start()
        for thread in threads:
            thread.join(timeout=30)
        release_timer.join()

        assert compiles == [cache.CompiledRuntime]
        assert len(found) == 4
        assert all(runtime is found[0][0] for runtime, _ in found)
        assert sorted(outcome for _, outcome in found).count("compiled") == 1
        # Served from the memo from now on, and dropped with it.
        assert cache.resolve_runtime()[1] == "memory"
        cache.clear_memory_cache()
        assert cache.resolve_runtime()[1] == "compiled"

    def test_unbuildable_runtime_is_probed_once(self, fresh_cache, monkeypatch):
        attempts = []

        def failing_compile(cache_dir, digest, source, opt_level, loader):
            attempts.append(loader)
            raise CodegenError("toolchain builds no runtime\nits stderr")

        monkeypatch.setattr(cache, "_compile_to_disk", failing_compile)
        assert cache.resolve_runtime() == (None, None)
        assert cache.resolve_runtime() == (None, None)
        assert attempts == [cache.CompiledRuntime]
        assert cache.runtime_failure() == "toolchain builds no runtime"

    def test_distinct_digests_compile_concurrently(self, fresh_cache, monkeypatch):
        # Both compilers must be inside their invocation at the same time.
        # Under the old design (module lock held across the compile) the
        # second compile cannot start until the first returns, the barrier
        # times out, and this test fails instead of deadlocking.
        barrier = threading.Barrier(2, timeout=10)

        def fake_compile(cache_dir, digest, source, opt_level, loader):
            barrier.wait()
            return FakeCompiled(source)

        monkeypatch.setattr(cache, "_compile_to_disk", fake_compile)
        sources = [unique_source("distinct-a"), unique_source("distinct-b")]
        outcomes = []
        record = threading.Lock()
        failures = []

        def resolve(source):
            try:
                _, outcome = cache.get_compiled_kernel(source)
                with record:
                    outcomes.append(outcome)
            except threading.BrokenBarrierError:  # pragma: no cover - the bug
                failures.append(source)

        threads = [threading.Thread(target=resolve, args=(s,)) for s in sources]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == [], "distinct digests were serialized through one compile"
        assert outcomes == ["compiled", "compiled"]

    def test_failed_builder_releases_latch_and_waiter_retries(
        self, fresh_cache, monkeypatch
    ):
        attempts = []
        attempt_lock = threading.Lock()
        first_inside = threading.Event()
        fail_first = threading.Event()
        fail_first.set()

        def flaky_compile(cache_dir, digest, source, opt_level, loader):
            with attempt_lock:
                attempts.append(source)
                should_fail = fail_first.is_set()
                fail_first.clear()
            first_inside.set()
            if should_fail:
                raise CodegenError("injected compiler failure")
            return FakeCompiled(source)

        monkeypatch.setattr(cache, "_compile_to_disk", flaky_compile)
        source = unique_source("flaky")
        results = {}

        def resolve(name):
            try:
                kernel, outcome = cache.get_compiled_kernel(source)
                results[name] = outcome
            except CodegenError:
                results[name] = "raised"

        first = threading.Thread(target=resolve, args=("first",))
        first.start()
        first_inside.wait()
        second = threading.Thread(target=resolve, args=("second",))
        second.start()
        first.join()
        second.join()

        # The first builder failed and released the latch; the second woke,
        # found no kernel in the memo, claimed the builder role and
        # succeeded.  The digest is never wedged.
        assert results["first"] == "raised"
        assert results["second"] == "compiled"
        assert len(attempts) == 2
        # And the digest now serves from memory like any healthy entry.
        _, outcome = cache.get_compiled_kernel(source)
        assert outcome == "memory"

    def test_lifecycle_memory_hit_then_cold_start(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(
            cache,
            "_compile_to_disk",
            lambda cache_dir, digest, source, opt_level, loader: FakeCompiled(source),
        )
        source = unique_source("lifecycle")
        kernel, outcome = cache.get_compiled_kernel(source)
        assert outcome == "compiled"
        again, outcome = cache.get_compiled_kernel(source)
        assert outcome == "memory"
        assert again is kernel
        # Cold start: dropping the memo forces a recompile, and the
        # in-flight table must be empty (no leaked latches).
        assert cache._inflight == {}
        cache.clear_memory_cache()
        _, outcome = cache.get_compiled_kernel(source)
        assert outcome == "compiled"
