"""E14 — dependency-graph fusion scheduling on interleaved workloads.

Consecutive-only fusion (the low end of the paper's transformation
spectrum) cuts a kernel at every interleaved reduction, system byte-code or
shape change, so a stencil that records a per-step convergence norm
launches one extra kernel per step: the mid-chain reduction splits the
element-wise stencil arithmetic into two launches.

The dependency-graph fusion scheduler builds the program's data-dependency
DAG, legally reorders the interleaved reduction past the rest of the chain
and fuses the whole stencil step into a single kernel.  This benchmark runs
the heat equation with a per-step norm under both policies and asserts,
deterministically:

* strictly fewer kernel launches with the scheduler on,
* the scheduler actually reordered byte-codes (non-adjacent clustering —
  not just the adjacent runs the consecutive policy already finds),
* bitwise-identical results (grid and every per-step norm): reordering
  respects every data dependency, so not a single bit may move.
"""

import numpy as np

from repro.frontend.session import Session
from repro.utils.config import config_override
from repro.workloads import heat_equation_with_norm

from bench_report import record_table

GRID = 48
ITERATIONS = 12


def _run(scheduler: str):
    with config_override(fusion_scheduler=scheduler):
        session = Session(backend="interpreter", optimize=True)
        grid, norms = heat_equation_with_norm(
            grid_size=GRID, iterations=ITERATIONS, session=session
        )
        values = grid.to_numpy().copy()
        # The main flush just ran; grab its plan before the norm reads
        # trigger trailing sync-only flushes.
        plan = session.engine.last_plan
        schedule = plan.fusion_schedule if plan is not None else None
        norm_values = [norm.to_numpy().copy() for norm in norms]
        launches = sum(stats.kernel_launches for stats in session.stats_history)
        return {
            "grid": values,
            "norms": norm_values,
            "kernel_launches": launches,
            "schedule": schedule,
            "plan": plan,
            "peak_bytes": session.stats_history[0].actual_peak_bytes,
            "stores_forwarded": sum(
                run.rewrites_applied for run in plan.report.stats_for("copy_propagation")
            ),
            "wall_s": sum(s.wall_time_seconds for s in session.stats_history),
        }


def test_dag_scheduler_launches_fewer_kernels(benchmark):
    """DAG scheduling vs consecutive runs: fewer launches, identical bits."""

    def run():
        return _run("dag"), _run("consecutive")

    dag, consecutive = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "E14 fusion scheduling"

    dag_schedule = dag["schedule"]
    record_table(
        benchmark,
        f"E14: heat equation with per-step norm, {ITERATIONS} steps, "
        f"{GRID}x{GRID} grid",
        [
            {
                "scheduler": "dag",
                "kernel_launches": dag["kernel_launches"],
                "stores_forwarded": dag["stores_forwarded"],
                "reordered": dag_schedule.bytecodes_reordered,
                "wall_s": dag["wall_s"],
            },
            {
                "scheduler": "consecutive",
                "kernel_launches": consecutive["kernel_launches"],
                "stores_forwarded": consecutive["stores_forwarded"],
                "reordered": consecutive["schedule"].bytecodes_reordered,
                "wall_s": consecutive["wall_s"],
            },
        ],
        ["scheduler", "kernel_launches", "stores_forwarded", "reordered", "wall_s"],
    )

    # Acceptance: strictly fewer kernels with the scheduler on.  The
    # interleaved per-step norm cuts one consecutive run per stencil step,
    # so the bound is exact and deterministic, not statistical.
    assert dag["kernel_launches"] < consecutive["kernel_launches"]
    assert (
        dag["kernel_launches"] + ITERATIONS <= consecutive["kernel_launches"]
    ), "the scheduler should recover at least one launch per stencil step"
    # ... on top of store forwarding, which saves every step's interior
    # copy under either policy: the inequality is the scheduler's alone.
    assert dag["stores_forwarded"] == consecutive["stores_forwarded"] == ITERATIONS

    # The win must come from *non-adjacent* clustering: byte-codes moved.
    assert dag_schedule is not None
    assert dag_schedule.bytecodes_reordered >= ITERATIONS
    assert dag_schedule.kernels_after < dag_schedule.kernels_before
    assert consecutive["schedule"].bytecodes_reordered == 0

    # Bitwise identity: legal reordering may not move a single bit.
    assert np.array_equal(dag["grid"], consecutive["grid"])
    assert len(dag["norms"]) == ITERATIONS
    for index, (a, b) in enumerate(zip(dag["norms"], consecutive["norms"])):
        assert np.array_equal(a, b), f"per-step norm {index} diverged"

    # The per-step ``sum(vertical)`` is a reduction of what the stencil
    # kernel stores, and the scheduler REFUSES to end the kernel in it: the
    # kernel also stores ``interior`` into the next grid, which lives on,
    # and a kernel may end in a reduction only when everything its members
    # store dies inside it (a tail would also re-tile the stencil by columns
    # and keep it off the dist workers).  So launches and peak stay where
    # PR 21 left them — they may only fall.
    assert dag_schedule.reduction_tails == 0
    assert dict(dag_schedule.tail_refusals) == {
        "another store of the kernel is accessed again after the kernel": ITERATIONS
    }
    assert consecutive["schedule"].tail_refusals == ()
    assert dag["kernel_launches"] == 62 and consecutive["kernel_launches"] == 74
    assert dag["peak_bytes"] == 646_376
    # "A scalar must not inherit a grid": no one-element norm adopts a
    # slot of another size class, however long its caller holds it.
    from repro.runtime.memory import size_class
    from repro.runtime.plan import program_base_order

    plan = dag["plan"]
    adopters = [
        (base, directive)
        for position, base in enumerate(program_base_order(plan.optimized))
        for directive in [plan.memory_plan.directives.get(position)]
        if directive is not None and directive.adopts
    ]
    assert adopters, "no observable base adopted a slot: the guard is vacuous"
    for base, directive in adopters:
        assert size_class(directive.slot_nbytes) == size_class(base.nbytes), base.name
