"""The arithmetic behind the reported numbers: rounds, percentiles, self time."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in ``[0, 1]``)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def split_rounds(ends: Sequence[float], marks: Sequence[float]) -> List[List[int]]:
    """Indices of the ops that *ended* in each round ``[marks[k], marks[k + 1])``.

    Ops that end after the last mark (in flight when the window closed)
    belong to no round.
    """
    buckets: List[List[int]] = [[] for _ in range(len(marks) - 1)]
    for index, end in enumerate(ends):
        slot = bisect.bisect_right(marks, end) - 1
        if 0 <= slot < len(buckets):
            buckets[slot].append(index)
    return buckets


def _overlap(start: float, end: float, low: float, high: float) -> float:
    return max(0.0, min(end, high) - max(start, low))


def round_values(
    latencies_ms: Sequence[float],
    ends: Sequence[float],
    marks: Sequence[Tuple[float, float]],
    pauses: Sequence[Tuple[float, float, float]] = (),
) -> Dict[str, List[float]]:
    """Per-round median latency, throughput and CPU per op.

    ``marks`` are the ``(time, cumulative CPU seconds)`` samples taken at
    the round boundaries.  The median is over the ops that ended in the
    round.  Throughput and CPU per op count an op that straddles a boundary
    in both rounds, by the share of its duration spent in each — with a
    handful of slow ops per round, whole-op counting would quantise the
    rate into steps of one op per round.  ``pauses`` are the ``(start, end,
    CPU seconds)`` intervals in which the client checked outputs instead of
    issuing ops: their wall and CPU time is taken out of the round they fall
    into (by overlap, if they straddle a boundary).  A round no op touched
    has zero throughput and contributes no latency or CPU value.
    """
    times = [mark[0] for mark in marks]
    work = [0.0] * (len(marks) - 1)
    for latency, end in zip(latencies_ms, ends):
        duration = latency / 1e3
        start = end - duration
        first = max(bisect.bisect_right(times, start) - 1, 0)
        for slot in range(first, len(work)):
            if times[slot] >= end:
                break
            work[slot] += _overlap(start, end, times[slot], times[slot + 1]) / duration
    paused_wall = [0.0] * len(work)
    paused_cpu = [0.0] * len(work)
    for start, end, cpu in pauses:
        first = max(bisect.bisect_right(times, start) - 1, 0)
        for slot in range(first, len(work)):
            if times[slot] >= end:
                break
            share = _overlap(start, end, times[slot], times[slot + 1])
            paused_wall[slot] += share
            if end > start:
                paused_cpu[slot] += cpu * share / (end - start)
    rounds: Dict[str, List[float]] = {"op_ms": [], "ops_s": [], "cpu_ms": []}
    for slot, bucket in enumerate(split_rounds(ends, times)):
        (began, cpu_before), (ended, cpu_after) = marks[slot], marks[slot + 1]
        busy = ended - began - paused_wall[slot]
        rounds["ops_s"].append(work[slot] / busy if busy > 0 else 0.0)
        if bucket:
            rounds["op_ms"].append(statistics.median(latencies_ms[i] for i in bucket))
        if work[slot] > 0:
            rounds["cpu_ms"].append((cpu_after - cpu_before - paused_cpu[slot]) / work[slot] * 1e3)
    return rounds


# A span is ``(span id, name, start, end, parent id or None, op id)``.
Span = Tuple[int, str, float, float, object, int]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus its direct children's."""
    result = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent in result:
            result[parent] -= span[3] - span[2]
    return result


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
