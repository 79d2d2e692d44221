"""The cost model: the one place programs are priced.

The paper's Section 4 observes that power expansion is only enabled because
"benchmarks have shown that for values close to a power of 2, multiplying
multiple times is faster than doing an actual BH_POWER".  The
:class:`CostModel` prices whole programs against a device profile, so a
report can say what a rewrite is predicted to save on a modelled device.

Two models live here and nowhere else:

* the **roofline** model of one device — each kernel costs::

      launch_overhead + max(flops / flop_rate, bytes / bandwidth)

  (:class:`DeviceProfile`, :func:`simulate_program_time`);
* the **alpha-beta** model of an interconnect (:class:`CommunicationModel`,
  calibrated once per process from shared-memory copy timings by
  :func:`measured_comm_model`), which :meth:`CostModel.partitioned_cost`
  combines with the roofline to price a program block-distributed over
  workers.

Pricing is a report: no backend executes through it and no optimizer
decision reads it.  The fusion scheduler and the passes decide by legality
and by their limits; the CLI's ``--profile``, the benchmarks and the
examples price what they decided.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.utils.errors import ClusterError, CostModelError


#: Approximate floating-point operations per output element for each
#: element-wise / reduction op-code.  Transcendentals and ``pow`` are far
#: more expensive than one fused-multiply-add, which is precisely why the
#: paper's power-expansion rewrite pays off.
FLOP_WEIGHTS: Dict[OpCode, float] = {
    OpCode.BH_IDENTITY: 0.0,
    OpCode.BH_ADD: 1.0,
    OpCode.BH_SUBTRACT: 1.0,
    OpCode.BH_MULTIPLY: 1.0,
    OpCode.BH_DIVIDE: 4.0,
    OpCode.BH_MOD: 4.0,
    OpCode.BH_NEGATIVE: 1.0,
    OpCode.BH_ABSOLUTE: 1.0,
    OpCode.BH_RECIPROCAL: 4.0,
    # pow() on real hardware costs on the order of a hundred cycles per
    # element (it goes through exp/log), which is what makes the paper's
    # expansion into a handful of one-flop multiplies profitable.
    OpCode.BH_POWER: 150.0,
    OpCode.BH_SQRT: 8.0,
    OpCode.BH_EXP: 20.0,
    OpCode.BH_LOG: 20.0,
    OpCode.BH_SIN: 20.0,
    OpCode.BH_COS: 20.0,
    OpCode.BH_TAN: 24.0,
    OpCode.BH_ARCSIN: 24.0,
    OpCode.BH_ARCCOS: 24.0,
    OpCode.BH_ARCTAN: 24.0,
    OpCode.BH_ERF: 30.0,
    OpCode.BH_MAXIMUM: 1.0,
    OpCode.BH_MINIMUM: 1.0,
    OpCode.BH_GREATER: 1.0,
    OpCode.BH_GREATER_EQUAL: 1.0,
    OpCode.BH_LESS: 1.0,
    OpCode.BH_LESS_EQUAL: 1.0,
    OpCode.BH_EQUAL: 1.0,
    OpCode.BH_NOT_EQUAL: 1.0,
    OpCode.BH_LOGICAL_AND: 1.0,
    OpCode.BH_LOGICAL_OR: 1.0,
    OpCode.BH_LOGICAL_NOT: 1.0,
    OpCode.BH_ADD_REDUCE: 1.0,
    OpCode.BH_MULTIPLY_REDUCE: 1.0,
    OpCode.BH_MAXIMUM_REDUCE: 1.0,
    OpCode.BH_MINIMUM_REDUCE: 1.0,
    OpCode.BH_RANGE: 1.0,
    OpCode.BH_RANDOM: 10.0,
    OpCode.BH_TRANSPOSE: 0.0,
}


@dataclass(frozen=True)
class DeviceProfile:
    """Performance parameters of a modelled device.

    Attributes
    ----------
    name:
        Profile name (``"gpu"``, ``"multicore"``, ``"single_core"``).
    kernel_launch_overhead_s:
        Fixed latency charged per kernel launch.
    flops_per_second:
        Peak floating-point rate.
    bytes_per_second:
        Peak memory bandwidth.
    """

    name: str
    kernel_launch_overhead_s: float
    flops_per_second: float
    bytes_per_second: float

    def roofline_time(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution-time estimate for one kernel (without launch)."""
        compute_time = flops / self.flops_per_second if self.flops_per_second else 0.0
        memory_time = bytes_moved / self.bytes_per_second if self.bytes_per_second else 0.0
        return max(compute_time, memory_time)


DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    # Numbers are order-of-magnitude figures for a 2016-era discrete GPU,
    # a quad-core CPU using all cores, and a single core with the GIL held —
    # the three execution targets the paper contrasts.
    "gpu": DeviceProfile(
        name="gpu",
        kernel_launch_overhead_s=10e-6,
        flops_per_second=4e12,
        bytes_per_second=300e9,
    ),
    "multicore": DeviceProfile(
        name="multicore",
        kernel_launch_overhead_s=2e-6,
        flops_per_second=2e11,
        bytes_per_second=40e9,
    ),
    "single_core": DeviceProfile(
        name="single_core",
        kernel_launch_overhead_s=0.5e-6,
        flops_per_second=3e10,
        bytes_per_second=20e9,
    ),
}


def instruction_flops(instruction: Instruction) -> float:
    """Floating-point work of one byte-code under the cost model."""
    opcode = instruction.opcode
    if instruction.is_system():
        return 0.0
    if opcode is OpCode.BH_FUSED:
        return sum(instruction_flops(inner) for inner in instruction.kernel or ())
    out = instruction.out
    nelem = out.nelem if out is not None else 0
    if opcode in FLOP_WEIGHTS:
        return FLOP_WEIGHTS[opcode] * nelem
    # Dense linear-algebra extension methods: flop counts from their
    # classical algorithm complexity.
    views = instruction.input_views
    if opcode is OpCode.BH_MATMUL:
        a = views[0]
        n, k = a.shape
        m = views[1].shape[1] if views[1].ndim == 2 else 1
        return 2.0 * n * k * m
    if opcode is OpCode.BH_MATRIX_INVERSE:
        n = views[0].shape[0]
        return 2.0 * n ** 3
    if opcode is OpCode.BH_LU:
        n = views[0].shape[0]
        return (2.0 / 3.0) * n ** 3
    if opcode is OpCode.BH_LU_SOLVE:
        n = views[0].shape[0]
        rhs_cols = views[1].shape[1] if views[1].ndim == 2 else 1
        return (2.0 / 3.0) * n ** 3 + 2.0 * n ** 2 * rhs_cols
    raise CostModelError(f"no flop model for op-code {opcode.value}")


def instruction_bytes(instruction: Instruction) -> float:
    """Memory traffic (bytes) of one byte-code under the cost model."""
    if instruction.is_system():
        return 0.0
    if instruction.opcode is OpCode.BH_FUSED:
        # A fused kernel streams each distinct operand once, not once per
        # fused byte-code: count unique views only.
        seen = set()
        total = 0.0
        for inner in instruction.kernel or ():
            for view in inner.views():
                key = (id(view.base), view.offset, view.shape, view.strides)
                if key not in seen:
                    seen.add(key)
                    total += view.nbytes
        return total
    total = 0.0
    out = instruction.out
    if out is not None:
        total += out.nbytes
    for operand in instruction.inputs:
        if is_view(operand):
            total += operand.nbytes
    return total


def simulate_program_time(program: Program, profile: DeviceProfile) -> float:
    """Total modelled seconds to execute ``program`` on ``profile``.

    Every top-level non-system byte-code is one kernel launch.
    """
    total = 0.0
    for instruction in program:
        if instruction.is_system():
            continue
        flops = instruction_flops(instruction)
        bytes_moved = instruction_bytes(instruction)
        total += profile.kernel_launch_overhead_s + profile.roofline_time(flops, bytes_moved)
    return total


# --------------------------------------------------------------------------- #
# Interconnect
# --------------------------------------------------------------------------- #


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
    plausible commodity interconnect); callers should prefer
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

    The distributed backend's workers share POSIX shared-memory segments,
    so a memory copy is the transport this probe takes as its proxy.
    Bandwidth comes from a 1 MiB copy; latency is the fixed cost left over
    in a 64-byte copy after subtracting its bandwidth share.
    The result is cached for the lifetime of the process — calibration is a
    one-shot probe, not a per-estimate cost.
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
# Reports
# --------------------------------------------------------------------------- #


@dataclass
class CostBreakdown:
    """Itemised cost of a program under one device profile."""

    kernel_launches: int
    flops: float
    bytes_moved: float
    seconds: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for reports and benchmark tables."""
        return {
            "kernel_launches": self.kernel_launches,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "seconds": self.seconds,
        }


@dataclass
class PartitionedCost:
    """Per-phase breakdown of a program's modelled time over workers."""

    num_workers: int
    compute_seconds: float = 0.0
    communication_seconds: float = 0.0
    launch_seconds: float = 0.0
    sync_rounds: int = 0
    serial_instructions: int = 0
    parallel_instructions: int = 0

    @property
    def total_seconds(self) -> float:
        """Total modelled wall-clock seconds."""
        return self.compute_seconds + self.communication_seconds + self.launch_seconds

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for benchmark tables."""
        return {
            "workers": self.num_workers,
            "compute_s": self.compute_seconds,
            "communication_s": self.communication_seconds,
            "launch_s": self.launch_seconds,
            "total_s": self.total_seconds,
            "sync_rounds": self.sync_rounds,
        }


class CostModel:
    """Prices byte-codes and programs for one device profile."""

    def __init__(self, profile: Union[str, DeviceProfile] = "gpu") -> None:
        if isinstance(profile, DeviceProfile):
            self.profile = profile
        else:
            try:
                self.profile = DEVICE_PROFILES[profile]
            except KeyError:
                raise CostModelError(
                    f"unknown device profile {profile!r}; available: {tuple(DEVICE_PROFILES)}"
                ) from None

    def program_cost(self, program: Program) -> float:
        """Modelled seconds for a whole program."""
        return simulate_program_time(program, self.profile)

    def breakdown(self, program: Program) -> CostBreakdown:
        """Itemised cost of a program."""
        launches = 0
        flops = 0.0
        bytes_moved = 0.0
        for instruction in program:
            if instruction.is_system():
                continue
            launches += 1
            flops += instruction_flops(instruction)
            bytes_moved += instruction_bytes(instruction)
        return CostBreakdown(
            kernel_launches=launches,
            flops=flops,
            bytes_moved=bytes_moved,
            seconds=self.program_cost(program),
        )

    def partitioned_cost(
        self,
        program: Program,
        workers: int,
        comm: Optional[CommunicationModel] = None,
    ) -> PartitionedCost:
        """Price ``program`` block-distributed over ``workers`` along axis 0.

        Element-wise byte-codes (and fused kernels) are assumed perfectly
        partitionable: every worker processes its block, so the
        per-instruction time is the single-device roofline time divided by
        the number of workers — plus one kernel launch per worker round.
        Reductions compute worker-local partials and pay a gather of the
        partial results.  Extension methods (dense linear algebra) run on
        the master only, paying a gather of their inputs first — which is
        exactly why removing a ``BH_MATRIX_INVERSE`` via the paper's
        Equation 2 rewrite helps even more in the distributed setting.
        ``BH_SYNC`` gathers the synced view to the master.

        ``comm=None`` prices communication with the calibrated model
        (:func:`measured_comm_model`).
        """
        if workers < 1:
            raise ClusterError(f"need at least one worker, got {workers}")
        comm = comm if comm is not None else measured_comm_model()
        profile = self.profile
        stats = PartitionedCost(num_workers=workers)
        for instruction in program:
            opcode = instruction.opcode
            if opcode is OpCode.BH_NONE or opcode is OpCode.BH_FREE:
                continue
            if opcode is OpCode.BH_SYNC:
                synced_bytes = sum(view.nbytes for view in instruction.views())
                stats.communication_seconds += comm.gather(workers, synced_bytes / workers)
                stats.sync_rounds += 1
                continue
            flops = instruction_flops(instruction)
            bytes_moved = instruction_bytes(instruction)
            stats.launch_seconds += profile.kernel_launch_overhead_s
            if instruction.is_elementwise() or instruction.is_fused():
                stats.parallel_instructions += 1
                stats.compute_seconds += profile.roofline_time(
                    flops / workers, bytes_moved / workers
                )
            elif instruction.is_reduction():
                stats.parallel_instructions += 1
                stats.compute_seconds += profile.roofline_time(
                    flops / workers, bytes_moved / workers
                )
                # Partial results (one block of the output per worker) are
                # gathered and combined on the master.
                out = instruction.out
                partial_bytes = out.nbytes if out is not None else 0
                stats.communication_seconds += comm.gather(workers, partial_bytes)
                stats.sync_rounds += 1
            else:
                # Extension methods and generators run serially on the master.
                stats.serial_instructions += 1
                stats.compute_seconds += profile.roofline_time(flops, bytes_moved)
                if instruction.is_extension():
                    input_bytes = sum(view.nbytes for view in instruction.input_views)
                    stats.communication_seconds += comm.gather(
                        workers, input_bytes / workers
                    )
                    stats.sync_rounds += 1
        return stats
