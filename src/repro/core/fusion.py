"""Fusion: contract element-wise byte-code chains into single kernels.

The paper describes its transformation spectrum as ranging from "small
loop-fusion-like contractions of byte-codes" upward.  This pass performs
that contraction at the IR level through the shared scheduling seam
(:func:`repro.core.schedule.compute_schedule`): under the default
``"dag"`` scheduler it builds the program's data-dependency graph, legally
reorders *non-adjacent* fusable element-wise byte-codes next to each other
and wraps each legal cluster — which may end in one reduction of
its own store — into a single ``BH_FUSED`` instruction; under
``"consecutive"`` it restores the low-end policy of maximal adjacent runs
(:func:`repro.runtime.kernel.partition_into_kernels`, no reductions).

Because the pass bakes the *scheduled order* into the optimized program,
every downstream consumer sees it: a backend launches one kernel per
cluster (streaming each distinct operand once), the tiled
parallel backend decomposes the fused kernels, and
the memory planner observes the fusion-shortened lifetimes when it aliases
buffers.  The computed :class:`~repro.core.schedule.FusionSchedule` is
recorded in the pass statistics so the execution engine can attach it to
the cached :class:`~repro.runtime.plan.ExecutionPlan`.
"""

from __future__ import annotations

from repro.bytecode.program import Program
from repro.core.rules import Pass, PassResult
from repro.core.schedule import compute_schedule
from repro.runtime.kernel import MAX_KERNEL_SIZE
from repro.utils.config import Config


class FusionPass(Pass):
    """Wrap fusable element-wise clusters into ``BH_FUSED`` kernels."""

    name = "fusion"

    def __init__(
        self, max_kernel_size: int = MAX_KERNEL_SIZE, min_kernel_size: int = 2, config=Config()
    ) -> None:
        """
        Parameters
        ----------
        max_kernel_size:
            Largest number of byte-codes per fused kernel (default
            :data:`~repro.runtime.kernel.MAX_KERNEL_SIZE`).
        min_kernel_size:
            Clusters smaller than this are left alone — fusing a single
            byte-code only adds wrapper overhead.
        config:
            What the schedule is computed under (``fusion_scheduler``,
            ``check_ir``): a pipeline passes its own; default the defaults.
        """
        self.max_kernel_size = max_kernel_size
        self.min_kernel_size = min_kernel_size
        self.config = config

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        # Passing min_kernel_size keeps the schedule's items (and therefore
        # its launch counts, reported on the plan and by the CLI) in exact
        # agreement with what this pass emits: sub-threshold clusters are
        # already broken back into singletons.
        schedule = compute_schedule(
            program,
            self.config,
            max_kernel_size=self.max_kernel_size,
            min_kernel_size=self.min_kernel_size,
        )
        stats.artifacts["fusion_schedule"] = schedule
        fused_any = False
        for item in schedule.items:
            if len(item) > 1:
                fused_any = True
                stats.rewrites_applied += 1
                tail = program[item[-1]] if program[item[-1]].is_reduction() else None
                stats.note(
                    f"fused {len(item) - (tail is not None)} element-wise byte-codes "
                    "into one kernel" + ("" if _is_contiguous(item) else " (non-adjacent)")
                )
                if tail is not None:
                    # Its own rewrite: the reduction stops being a launch and
                    # its source stops being an array.
                    stats.rewrites_applied += 1
                    stats.note(f"closed the kernel with the {tail.opcode} of its result")
        for reason, count in schedule.tail_refusals:
            stats.note(f"left {count} reduction(s) of a kernel's store unfused: {reason}")
        reordered = not schedule.is_identity_order
        if reordered and not fused_any:
            # The scheduler moved byte-codes in service of clusters that
            # ended up below the wrapping threshold; the emitted program
            # still changed, so report the reorder as a rewrite.
            stats.rewrites_applied += 1
            stats.note(
                f"reordered {schedule.bytecodes_reordered} byte-code(s) along the "
                "dependency-graph schedule"
            )
        if not fused_any and not reordered:
            return self._finish(program, stats)
        result = schedule.materialize(
            program, min_kernel_size=self.min_kernel_size, tag=self.name
        )
        return self._finish(result, stats)


def _is_contiguous(item) -> bool:
    """True when a cluster's byte-codes were already adjacent in order."""
    return all(b == a + 1 for a, b in zip(item, item[1:]))
