"""Tenants with different seeds share plans and nothing else.

A cached plan is shared by every tenant thread, so anything a flush parks
*on the plan* is seen by the others: the seeds of a flush are arguments of
``bind``, and each tenant must draw exactly the stream its own seeds name —
while all of them, whatever their seeds, build each flush shape once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import find_c_compiler
from repro.frontend.session import Session
from repro.service import ArrayService
from repro.utils.config import config_override
from repro.workloads import black_scholes, monte_carlo_pi

#: Small arrays, but every map and reduction still tiles (and shards).
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)

TENANTS, ROUNDS = 4, 12

#: Tenant ``k`` starts ``k * SEED_OFFSET`` draws into the session's seed
#: sequence: no two tenants ever use the same seed.
SEED_OFFSET = 1000


def _requests(session, rounds):
    """The tenant loop: alternate the two seeded workloads, keep the bits."""
    outputs = []
    for index in range(rounds):
        workload = (black_scholes, monte_carlo_pi)[index % 2]
        outputs.append(workload(600, session=session).to_numpy().copy())
    return outputs


def _oracle(tenant):
    session = Session(backend="interpreter", optimize=False)
    for _ in range(tenant * SEED_OFFSET):
        session.next_seed()
    return _requests(session, ROUNDS)


@pytest.mark.parametrize("backend", ["native", "dist"])
def test_each_tenant_draws_its_own_stream_from_shared_plans(backend, thread_hammer, tmp_path):
    if backend == "native" and find_c_compiler() is None:
        pytest.skip("no C compiler on this host; the native tier would be parallel's")
    results = {}
    with config_override(**TINY_TILES, codegen_cache_dir=str(tmp_path / "codegen")):
        expected = {tenant: _oracle(tenant) for tenant in range(TENANTS)}
        with ArrayService(
            backend=backend, max_inflight=TENANTS, admission_timeout=60.0
        ) as service:
            sessions = [service.open_session() for _ in range(TENANTS)]
            for tenant, session in enumerate(sessions):
                for _ in range(tenant * SEED_OFFSET):
                    session.next_seed()

            def tenant_loop(tenant: int) -> None:
                results[tenant] = _requests(sessions[tenant], ROUNDS)

            thread_hammer(TENANTS, tenant_loop)
            stats = service.engine.cache_stats()
    for tenant in range(TENANTS):
        for index, (actual, reference) in enumerate(zip(results[tenant], expected[tenant])):
            # Bitwise, monte_carlo_pi included: its reduction counts hits,
            # an integer sum that is exact in any combine order.
            assert np.array_equal(actual, reference), (
                f"tenant {tenant}, request {index} on {backend}"
            )
    # Two workloads, each in its first-flush shape and in the shape that
    # frees the previous request's result: four shapes, whatever the seeds
    # and however the tenants interleave.
    assert stats["plan_builds"] <= 4, stats["plan_builds"]
    assert stats["plan_cache_size"] <= 4
    assert stats["plan_cache_hits"] == TENANTS * ROUNDS - stats["plan_builds"]
