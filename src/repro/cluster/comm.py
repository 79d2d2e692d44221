"""Communication cost model for the simulated cluster executor.

Besides the alpha-beta :class:`CommunicationModel` this module owns the two
pieces that keep the model honest now that a real distributed backend exists:

* :func:`measured_comm_model` — a one-shot, per-process-cached calibration
  probe that derives latency and bandwidth from actual shared-memory copy
  timings instead of hardcoded constants.  The distributed backend moves
  halo rows by copying between POSIX shared-memory segments,
  so a memory-copy probe is the right proxy for its transport.
* :data:`COMM_METER` — a process-wide accumulator of *priced* (model
  prediction) versus *measured* (worker-timed) communication seconds,
  surfaced through ``ClusterExecutor.cache_stats()`` so the cost model's
  drift from reality is observable.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class CommunicationModel:
    """Latency/bandwidth (alpha-beta) model of the interconnect.

    Attributes
    ----------
    latency_s:
        Fixed per-message latency (alpha).
    bytes_per_second:
        Point-to-point bandwidth (1/beta).

    The class defaults are a documented fallback (5 µs / 10 GB/s, a
    plausible commodity interconnect); executors should prefer
    :meth:`calibrated`, which replaces them with numbers measured on the
    host the model is about to price work for.
    """

    latency_s: float = 5e-6
    bytes_per_second: float = 10e9

    @classmethod
    def calibrated(cls) -> "CommunicationModel":
        """A model whose constants come from the shared-memory copy probe.

        The probe runs once per process and is cached; constructing
        calibrated models afterwards is free.
        """
        return measured_comm_model()

    def point_to_point(self, nbytes: float) -> float:
        """Seconds to send one message of ``nbytes``."""
        return self.latency_s + nbytes / self.bytes_per_second

    def gather(self, num_workers: int, nbytes_per_worker: float) -> float:
        """Gather one block from every worker to the master (serialised receives)."""
        if num_workers <= 1:
            return 0.0
        return (num_workers - 1) * self.point_to_point(nbytes_per_worker)

    def scatter(self, num_workers: int, nbytes_per_worker: float) -> float:
        """Scatter one block from the master to every worker."""
        return self.gather(num_workers, nbytes_per_worker)

    def broadcast(self, num_workers: int, nbytes: float) -> float:
        """Binomial-tree broadcast of ``nbytes`` to every worker."""
        if num_workers <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_workers))
        return rounds * self.point_to_point(nbytes)

    def allreduce(self, num_workers: int, nbytes: float) -> float:
        """Reduce-then-broadcast estimate for an all-reduce of ``nbytes``."""
        if num_workers <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_workers))
        return 2 * rounds * self.point_to_point(nbytes)


# --------------------------------------------------------------------------- #
# Calibration probe
# --------------------------------------------------------------------------- #

#: Probe sizes: the small copy is latency-dominated, the large one
#: bandwidth-dominated.  Both complete in well under a millisecond.
_PROBE_SMALL_BYTES = 64
_PROBE_LARGE_BYTES = 1 << 20
_PROBE_REPEATS = 5

_calibrated_model: Optional[CommunicationModel] = None
_calibration_lock = threading.Lock()


def _best_copy_seconds(nbytes: int, repeats: int = _PROBE_REPEATS) -> float:
    """Minimum observed wall time to copy ``nbytes`` between two buffers."""
    source = np.zeros(nbytes, dtype=np.uint8)
    sink = np.empty_like(source)
    best = math.inf
    for _ in range(repeats):
        begin = time.perf_counter()
        np.copyto(sink, source)
        best = min(best, time.perf_counter() - begin)
    return best


def measured_comm_model() -> CommunicationModel:
    """Calibrate a :class:`CommunicationModel` from shared-memory copy timings.

    Bandwidth comes from a 1 MiB copy; latency is the fixed cost left over
    in a 64-byte copy after subtracting its bandwidth share.  The result is
    cached for the lifetime of the process — calibration is a one-shot
    probe, not a per-estimate cost.
    """
    global _calibrated_model
    with _calibration_lock:
        if _calibrated_model is None:
            large = _best_copy_seconds(_PROBE_LARGE_BYTES)
            small = _best_copy_seconds(_PROBE_SMALL_BYTES)
            bytes_per_second = _PROBE_LARGE_BYTES / max(large, 1e-9)
            latency = max(small - _PROBE_SMALL_BYTES / bytes_per_second, 1e-9)
            _calibrated_model = CommunicationModel(
                latency_s=latency, bytes_per_second=bytes_per_second
            )
        return _calibrated_model


# --------------------------------------------------------------------------- #
# Priced-vs-measured meter
# --------------------------------------------------------------------------- #


class CommMeter:
    """Process-wide accumulator of priced vs measured communication time.

    The distributed backend *prices* every halo exchange with the
    communication model at launch time and reports the *measured* copy
    seconds its workers actually spent.  Keeping both on one meter makes
    the cost model auditable: a growing gap means the alpha-beta constants
    no longer describe the machine.
    """

    def __init__(self) -> None:
        self._meter_lock = threading.Lock()
        self._priced_seconds = 0.0
        self._measured_seconds = 0.0

    def add_priced(self, seconds: float) -> None:
        with self._meter_lock:
            self._priced_seconds += seconds

    def add_measured(self, seconds: float) -> None:
        with self._meter_lock:
            self._measured_seconds += seconds

    def snapshot_us(self) -> Dict[str, int]:
        """Both accumulators in integer microseconds (cache_stats is int-valued)."""
        with self._meter_lock:
            return {
                "comm_priced_us": int(self._priced_seconds * 1e6),
                "comm_measured_us": int(self._measured_seconds * 1e6),
            }

    def reset(self) -> None:
        with self._meter_lock:
            self._priced_seconds = 0.0
            self._measured_seconds = 0.0


#: The process-wide meter; fed by the distributed backend, read by
#: ``ClusterExecutor.cache_stats()`` and the distributed backend's own stats.
COMM_METER = CommMeter()
