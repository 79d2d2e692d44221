"""Per-flush backend counters are conserved under threads.

Every increment of a backend counter lands on exactly one flush's
``ExecutionStats`` and on the backend's cumulative record, so over any set
of completed flushes ``sum(per-flush) == cache_stats()`` — no matter how the
tenants' threads interleave.  (A snapshot-and-subtract window over a shared
cumulative counter absorbs the other threads' increments and over-reports
by up to the thread count.)
"""

import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.codegen import find_c_compiler
from repro.service import ArrayService
from repro.service.core import clone_program_with_fresh_bases
from repro.utils.config import config_override
from repro.workloads.generators import random_elementwise_program, random_mixed_program
from tests.tiers import on_tier

#: Small arrays, but every map and reduction still tiles (and shards).
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

THREADS, FLUSHES = 4, 25

#: tier -> groups of counters whose per-flush sum must equal the
#: cumulative value (a group is summed: *which* of compile / disk / memory
#: served a form may differ between racing tenants, their total may not).
#: ``parallel4`` (``tests/tiers.py``) has every tenant's tiles share one
#: four-worker pool whatever the host's CPU count.
CONSERVED = {
    "native": (
        ("native_kernel_launches",),
        ("native_fallbacks",),
        ("native_mt_launches",),
        ("native_compiles", "native_disk_hits", "native_memory_hits"),
        ("template_slots_elided",),
    ),
    "parallel": (("template_slots_elided",),),
    "parallel4": (("template_slots_elided",),),
    "dist": (
        ("template_slots_elided",),
        ("dist_shard_launches",),
        ("dist_payload_bytes",),
        ("dist_bases_adopted",),
        ("dist_zero_fill_bytes",),
    ),
}


def _program_with_a_kernel_local_temporary():
    """``t = log(a); out = t + 1`` with ``t`` freed: no tier lowers BH_LOG,
    so every tiled backend launches the template with ``t`` elided."""
    builder = ProgramBuilder()
    a, t, out = (builder.new_vector(24) for _ in range(3))
    builder.identity(a, 2.0)
    builder.log(t, a)
    builder.add(out, t, 1.0)
    builder.free(t)
    builder.sync(out)
    return builder.build()


@pytest.mark.parametrize("backend", sorted(CONSERVED))
def test_per_flush_counters_sum_to_the_cumulative_ones(backend, thread_hammer, tmp_path):
    if backend == "native" and find_c_compiler() is None:
        pytest.skip("no C compiler on this host; nothing native to count")
    programs = [
        random_elementwise_program(3, num_instructions=12, vector_length=24)[0],
        random_mixed_program(1003, num_instructions=10)[0],
        _program_with_a_kernel_local_temporary(),
    ]
    # Every dist tenant is admitted at once: one worker pool's pipes carry
    # one flush at a time, and it is the pool's flush lock that takes turns.
    limits = dict(max_inflight=THREADS, admission_timeout=60.0) if backend == "dist" else {}
    with config_override(**TINY_TILES, codegen_cache_dir=str(tmp_path / "codegen")):
        with on_tier(backend) as name, ArrayService(backend=name, **limits) as service:
            sessions = [service.open_session() for _ in range(THREADS)]

            def tenant(index: int) -> None:
                for flush in range(FLUSHES):
                    clone, bases = clone_program_with_fresh_bases(
                        programs[(index + flush) % len(programs)]
                    )
                    result = sessions[index].execute(clone)
                    for base in bases:
                        result.memory.free(base)

            thread_hammer(THREADS, tenant)
            total = service.total_stats()
            cumulative = service.engine.cache_stats()
            reasons = service.stats()["native_fallback_reasons"]
    launched = 0
    for group in CONSERVED[backend]:
        per_flush = sum(getattr(total, counter) for counter in group)
        assert per_flush == sum(cumulative[counter] for counter in group), group
        launched += per_flush
    assert launched > 0, "no counter moved; conservation proves nothing"
    assert total.template_slots_elided > 0
    # The fallback reasons are counted the same way, message by message,
    # one per fallback.
    assert reasons == total.native_fallback_reasons
    assert sum(reasons.values()) == (
        total.native_fallbacks + total.native_reduction_fallbacks
    )
