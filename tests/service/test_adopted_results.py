"""A result that adopted a plan slot is its tenant's alone.

The slot's buffer came from the pool every tenant shares.  Ownership moves
to the result when it takes the slot — if the plan also kept it, the
buffer would go home with the plan while the tenant still reads it, and
the other tenant's next flush would write its own grid there.
"""

from repro.frontend.session import Session
from repro.service import ArrayService
from repro.workloads import heat_equation

GRID, STEPS, ROUNDS = 48, 3, 4
EDGES = (100.0, 37.5)


def test_two_tenants_hold_adopted_results_while_the_other_flushes():
    oracle = Session(backend="interpreter", optimize=False)
    expected = [
        heat_equation(GRID, STEPS, edge, session=oracle).to_numpy().tobytes()
        for edge in EDGES
    ]
    with ArrayService(backend="native") as service:
        sessions = [service.open_session() for _ in EDGES]
        held = [None, None]
        for _ in range(ROUNDS):
            for index, (session, edge) in enumerate(zip(sessions, EDGES)):
                # Replacing the held array frees it at the head of this flush.
                held[index] = heat_equation(GRID, STEPS, edge, session=session)
                assert held[index].to_numpy().tobytes() == expected[index]
                # ... and the other tenant's result, held across it, is intact.
                other = 1 - index
                if held[other] is not None:
                    assert held[other].to_numpy().tobytes() == expected[other]
        plans = service.engine.plan_cache.values()
        assert sum(plan.memory_plan.adopted_bases for plan in plans) > 0
        # With the last plan gone each tenant holds its result's one grid.
        for session in sessions:
            session.memory.clear_plan()
            assert len(session.memory.live_bases()) == 1
            assert session.memory.bytes_allocated == GRID * GRID * 8
        # Tenant-local pool counters add up to the shared pool's.
        shared = service.pool.stats()
        for counter in ("pool_hits", "pool_misses", "pool_bytes_reused", "pool_discards"):
            assert sum(
                session.memory.pool_counters()[counter] for session in sessions
            ) == shared[counter], counter
        assert shared["pool_hits"] > 0
        held.clear()
