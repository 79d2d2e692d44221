"""Process accounting: this process plus its live worker children."""

from __future__ import annotations

import multiprocessing
import os
import resource

_TICKS = os.sysconf("SC_CLK_TCK")


def _live_children() -> list:
    return [child.pid for child in multiprocessing.active_children() if child.pid]


def cpu_seconds() -> float:
    """CPU time of this process, its reaped children and its live workers.

    ``getrusage`` only counts children that were waited for; the ``dist``
    workers are alive for the whole run, so their time is read from
    ``/proc/<pid>/stat`` (in clock ticks — ``getrusage`` itself resolves
    microseconds, which one-second rounds of sub-millisecond ops need).
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICKS  # utime, stime
    return total


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its live workers, in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
