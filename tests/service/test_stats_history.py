"""A session's flush records are a bounded window plus a running total.

``Session.stats_history`` used to keep one ``ExecutionStats`` (~2.4 KB with
its per-flush dicts) per flush for ever, and ``ArrayService`` kept them past
``close_session``: 60 MiB after 10 000 flushes.  The window is a constant;
the totals must not lose a flush to it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import frontend as bh
from repro.frontend.session import STATS_HISTORY_WINDOW, Session
from repro.runtime.instrumentation import ExecutionStats
from repro.service import ArrayService, clone_program_with_fresh_bases
from tests.service.conftest import chain_program


def _fold(records, backend_name):
    total = ExecutionStats(backend_name=backend_name)
    for record in records:
        total.merge(record)
    return total


def _assert_same_totals(actual, expected):
    """Equal field by field; the timings up to the order they were summed in."""
    actual, expected = dataclasses.asdict(actual), dataclasses.asdict(expected)
    for name in [name for name in expected if name.endswith("_seconds")]:
        assert actual.pop(name) == pytest.approx(expected.pop(name), rel=1e-9)
    assert actual == expected


def _one_flush(session, step):
    """Two flush shapes, so the records differ and the plan cache both hits and misses."""
    values = bh.ones(16 + step % 2, session=session)
    (values * 3.0 + 1.0).to_numpy()


def test_the_window_is_bounded_and_the_total_is_every_flush():
    session = Session(backend="parallel", optimize=True)
    kept_aside = []
    for step in range(3 * STATS_HISTORY_WINDOW):
        _one_flush(session, step)
        kept_aside.append(session.stats_history[-1])
    assert session.flush_count == 3 * STATS_HISTORY_WINDOW
    assert len(session.stats_history) == STATS_HISTORY_WINDOW
    # The window is the most recent records, in order, by identity.
    assert all(
        ours is theirs
        for ours, theirs in zip(session.stats_history, kept_aside[-STATS_HISTORY_WINDOW:])
    )
    total = session.total_stats()
    expected = _fold(kept_aside, total.backend_name)
    assert total == expected
    assert total.kernel_launches >= 3 * STATS_HISTORY_WINDOW
    assert total.plan_cache_hits > 0 and total.plan_cache_misses > 0
    assert sum(total.opcode_counts.values()) == total.instructions_executed


def test_total_stats_is_a_copy():
    session = Session(backend="interpreter", optimize=False)
    _one_flush(session, 0)
    first = session.total_stats()
    first.kernel_launches += 1000
    first.opcode_counts.clear()
    again = session.total_stats()
    assert again.kernel_launches == first.kernel_launches - 1000
    assert again.opcode_counts


def test_a_service_retires_closed_sessions_into_one_record():
    program = chain_program()
    with ArrayService(backend="interpreter") as service:
        running = ExecutionStats(backend_name="interpreter")
        for _ in range(50):
            session = service.open_session()
            for _ in range(3):
                clone, bases = clone_program_with_fresh_bases(program)
                result = session.execute(clone)
                running.merge(result.stats)
                for base in bases:
                    result.memory.free(base)
            service.close_session(session)
            service.close_session(session)  # asked twice, retired once
        assert service.sessions() == ()
        # O(1) retired state: one record, not 150.
        assert isinstance(service._retired_stats, ExecutionStats)
        retained = [
            value
            for value in vars(service).values()
            if isinstance(value, (list, tuple, dict, set)) and len(value) >= 50
        ]
        assert retained == []
        _assert_same_totals(service.total_stats(), running)
        assert running.kernel_launches >= 150
        # An open session's flushes and the retired ones add up.
        late = service.open_session()
        clone, _ = clone_program_with_fresh_bases(program)
        running.merge(late.execute(clone).stats)
        _assert_same_totals(service.total_stats(), running)
    # Closing the service retires what was still open, once.
    _assert_same_totals(service.total_stats(), running)


def test_every_numeric_statistic_survives_the_merge_shortcut():
    """``merge`` skips a record's zero statistics; sums and maxima must not
    notice."""
    left, right = ExecutionStats(), ExecutionStats()
    for position, spec in enumerate(dataclasses.fields(ExecutionStats)):
        if "merge" in spec.metadata:
            setattr(left, spec.name, position + 1)
            setattr(right, spec.name, 0 if position % 2 else 2 * position + 5)
    merged = ExecutionStats().merge(left).merge(right).merge(ExecutionStats())
    for position, spec in enumerate(dataclasses.fields(ExecutionStats)):
        if "merge" not in spec.metadata:
            continue
        mine, theirs = position + 1, 0 if position % 2 else 2 * position + 5
        want = max(mine, theirs) if spec.metadata["merge"] == "max" else mine + theirs
        assert getattr(merged, spec.name) == want, spec.name


def test_a_reader_never_sees_a_half_folded_total(thread_hammer):
    """``service.total_stats()`` from one thread while four tenants flush: every
    snapshot is whole (its histogram adds up to its instruction count — a
    merge caught halfway would not) and no snapshot loses what an earlier one
    had."""
    program = chain_program()
    flushes, tenants = 150, 4
    with ArrayService(backend="parallel", max_inflight=tenants) as service:
        sessions = [service.open_session() for _ in range(tenants)]
        snapshots = []

        def body(index):
            if index == tenants:  # the reader
                while len(snapshots) < 400 and not all(
                    session.flush_count == flushes for session in sessions
                ):
                    snapshots.append(service.total_stats())
                return
            for _ in range(flushes):
                clone, bases = clone_program_with_fresh_bases(program)
                result = sessions[index].execute(clone)
                for base in bases:
                    result.memory.free(base)

        thread_hammer(tenants + 1, body)
        final = service.total_stats()
    assert snapshots, "the reader never ran; the test proves nothing"
    previous = 0
    for snapshot in snapshots + [final]:
        assert sum(snapshot.opcode_counts.values()) == snapshot.instructions_executed
        assert snapshot.kernel_launches >= previous
        previous = snapshot.kernel_launches
    assert final.plan_cache_hits + final.plan_cache_misses == tenants * flushes
    assert all(len(session.stats_history) == STATS_HISTORY_WINDOW for session in sessions)
