"""The simulated cluster executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.cluster.comm import COMM_METER, CommunicationModel
from repro.cluster.partition import partition_length
from repro.runtime.backend import Backend
from repro.runtime.instrumentation import ExecutionResult, ExecutionStats
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.runtime.plan import program_fingerprint
from repro.runtime.simulator import (
    DEVICE_PROFILES,
    DeviceProfile,
    instruction_bytes,
    instruction_flops,
)
from repro.utils.config import get_config
from repro.utils.errors import ClusterError
from repro.utils.lru import BoundedLRU


@dataclass
class ClusterStats:
    """Per-phase breakdown of simulated cluster time."""

    num_workers: int
    compute_seconds: float = 0.0
    communication_seconds: float = 0.0
    launch_seconds: float = 0.0
    sync_rounds: int = 0
    serial_instructions: int = 0
    parallel_instructions: int = 0

    @property
    def total_seconds(self) -> float:
        """Total simulated wall-clock seconds."""
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


class ClusterExecutor(Backend):
    """Data-parallel execution simulator.

    Element-wise byte-codes (and fused kernels) are assumed perfectly
    partitionable along the first axis: every worker processes its block, so
    the per-instruction time is the single-device roofline time divided by
    the number of workers — plus one kernel launch per worker round.

    Reductions compute worker-local partials and pay a gather of the partial
    results.  Extension methods (dense linear algebra) are executed on the
    master only, paying a gather of their inputs first — which is exactly
    why removing a ``BH_MATRIX_INVERSE`` via the paper's Equation 2 rewrite
    helps even more in the distributed setting.  ``BH_SYNC`` gathers the
    synced view to the master.
    """

    name = "cluster"

    def __init__(
        self,
        num_workers: int = 4,
        profile: Union[str, DeviceProfile] = "single_core",
        comm: Optional[CommunicationModel] = None,
    ) -> None:
        if num_workers < 1:
            raise ClusterError(f"need at least one worker, got {num_workers}")
        self.num_workers = num_workers
        if isinstance(profile, DeviceProfile):
            self.profile = profile
        else:
            try:
                self.profile = DEVICE_PROFILES[profile]
            except KeyError:
                raise ClusterError(
                    f"unknown device profile {profile!r}; available: {tuple(DEVICE_PROFILES)}"
                ) from None
        # Default to the calibrated model: constants measured once per
        # process from real shared-memory copies, not hardcoded guesses.
        self.comm = comm if comm is not None else CommunicationModel.calibrated()
        self._interpreter = NumPyInterpreter()
        self.last_cluster_stats: Optional[ClusterStats] = None
        # Per-partition pricing plans, keyed by (program fingerprint, worker
        # count): iterative workloads re-price the same partitioned program
        # every round, and scaling curves re-price it per worker count —
        # both reuse the cached breakdown instead of re-walking the program.
        # Bounded and locked, like the engine's plan cache: executors live
        # as long as their engine, which keeps the backend instance across
        # flushes and shares it between tenant threads.
        self._pricing_plans = BoundedLRU(max(1, get_config().plan_cache_size))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(
        self, program: Program, memory: Optional[MemoryManager] = None
    ) -> ExecutionResult:
        # Correctness: run the whole program on the reference interpreter.
        result = self._interpreter.execute(program, memory)
        result.stats.backend_name = self.name
        # Performance: price the program under the partitioned model.
        cluster_stats = self.estimate(program)
        self.last_cluster_stats = cluster_stats
        result.stats.simulated_time_seconds = cluster_stats.total_seconds
        return result

    def estimate(self, program: Program, num_workers: Optional[int] = None) -> ClusterStats:
        """Price ``program`` under the partitioned execution model.

        Breakdowns are cached per (program fingerprint, worker count) — a
        *per-partition pricing plan* — so iterative workloads that re-submit
        a structurally identical program every round, and scaling curves
        that re-price it for several worker counts, pay the instruction walk
        once.  Callers must treat the returned stats as read-only.
        """
        workers = num_workers if num_workers is not None else self.num_workers
        if workers < 1:
            raise ClusterError(f"need at least one worker, got {workers}")
        key = (program_fingerprint(program), workers)
        cached = self._pricing_plans.get(key)
        if cached is not None:
            return cached
        stats = ClusterStats(num_workers=workers)
        for instruction in program:
            self._price_instruction(instruction, stats, workers)
        return self._pricing_plans.setdefault(key, stats)

    def cache_stats(self) -> Dict[str, int]:
        """Pricing-plan cache counters for this executor.

        Deliberately *not* named ``plan_cache_*``: the execution engine
        merges backend counters into its own plan-cache statistics, and the
        pricing cache is a different cache.
        """
        stats = self._pricing_plans.stats("pricing_plan_")
        # Priced-vs-measured communication time: the distributed backend
        # feeds the process-wide meter (model prediction at launch, worker
        # timings at completion); exposing both here makes cost-model drift
        # visible wherever cluster statistics are already collected.
        stats.update(COMM_METER.snapshot_us())
        return stats

    # ------------------------------------------------------------------ #
    # Per-instruction pricing
    # ------------------------------------------------------------------ #

    def _price_instruction(
        self, instruction: Instruction, stats: ClusterStats, workers: int
    ) -> None:
        opcode = instruction.opcode
        if opcode is OpCode.BH_NONE or opcode is OpCode.BH_FREE:
            return
        if opcode is OpCode.BH_SYNC:
            synced_bytes = sum(view.nbytes for view in instruction.views())
            per_worker = synced_bytes / workers
            stats.communication_seconds += self.comm.gather(workers, per_worker)
            stats.sync_rounds += 1
            return

        flops = instruction_flops(instruction)
        bytes_moved = instruction_bytes(instruction)

        if instruction.is_elementwise() or instruction.is_fused():
            stats.parallel_instructions += 1
            stats.launch_seconds += self.profile.kernel_launch_overhead_s
            stats.compute_seconds += self.profile.roofline_time(
                flops / workers, bytes_moved / workers
            )
            return

        if instruction.is_reduction():
            stats.parallel_instructions += 1
            stats.launch_seconds += self.profile.kernel_launch_overhead_s
            stats.compute_seconds += self.profile.roofline_time(
                flops / workers, bytes_moved / workers
            )
            # Partial results (one block of the output per worker) are
            # gathered and combined on the master.
            out = instruction.out
            partial_bytes = out.nbytes if out is not None else 0
            stats.communication_seconds += self.comm.gather(workers, partial_bytes)
            stats.sync_rounds += 1
            return

        # Extension methods and generators run serially on the master.
        stats.serial_instructions += 1
        stats.launch_seconds += self.profile.kernel_launch_overhead_s
        stats.compute_seconds += self.profile.roofline_time(flops, bytes_moved)
        if instruction.is_extension():
            input_bytes = sum(view.nbytes for view in instruction.input_views)
            per_worker = input_bytes / workers
            stats.communication_seconds += self.comm.gather(workers, per_worker)
            stats.sync_rounds += 1

    # ------------------------------------------------------------------ #
    # Scaling helpers used by the benchmark harness
    # ------------------------------------------------------------------ #

    def scaling_curve(self, program: Program, worker_counts) -> Dict[int, float]:
        """Simulated total seconds for each worker count in ``worker_counts``.

        The program is fingerprinted once; each worker count reuses the
        pricing-plan cache across rounds (benchmark sweeps call this with
        overlapping counts).
        """
        return {
            workers: self.estimate(program, num_workers=workers).total_seconds
            for workers in worker_counts
        }

    def parallel_efficiency(self, program: Program, workers: int) -> float:
        """Speedup over one worker divided by the worker count."""
        single = self.estimate(program, num_workers=1).total_seconds
        multi = self.estimate(program, num_workers=workers).total_seconds
        if multi == 0:
            return float("inf")
        return (single / multi) / workers
