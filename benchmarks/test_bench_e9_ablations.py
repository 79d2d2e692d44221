"""E9 — ablations of the design choices called out in DESIGN.md.

Not a paper table, but the design decisions the reproduction documents:

* pass ordering / fixed-point iteration versus a single pass,
* safety analysis on versus off (measured as: how often would the unsound
  rewrite have fired on programs where it must not),
* chain strategy choice inside the power-expansion pass,
* optimizer overhead itself (how long does optimizing a program take
  relative to running it).
"""

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.opcodes import OpCode
from repro.core.pipeline import Pipeline, default_pipeline, optimize
from repro.core.verifier import SemanticVerifier
from repro.runtime.interpreter import NumPyInterpreter
from repro.workloads import (
    elementwise_chain,
    linear_solve_program,
    power_program,
    random_elementwise_program,
    repeated_constant_add,
)

from conftest import record_table


def test_fixed_point_vs_single_pass(benchmark):
    """Does iterating the pipeline to a fixed point buy extra reductions?"""

    def sweep():
        rows = []
        for name, program in (
            ("mixed chain", _mixed_program()),
            ("constant adds", repeated_constant_add(1000, repeats=8)[0]),
            ("power", power_program(1000, 12)[0]),
        ):
            single = optimize(program, fixed_point=False)
            fixed = optimize(program, fixed_point=True)
            rows.append(
                {
                    "workload": name,
                    "before": len(program),
                    "single_pass": len(single.optimized),
                    "fixed_point": len(fixed.optimized),
                    "iterations": fixed.iterations,
                }
            )
        return rows

    rows = benchmark(sweep)
    benchmark.group = "E9 ablations"
    record_table(
        benchmark,
        "E9: single pass vs fixed point (byte-code counts)",
        rows,
        ["workload", "before", "single_pass", "fixed_point", "iterations"],
    )
    assert all(row["fixed_point"] <= row["single_pass"] for row in rows)


def _mixed_program():
    builder = ProgramBuilder()
    v = builder.new_vector(1000)
    builder.identity(v, 0)
    builder.add(v, v, 1)
    builder.multiply(v, v, 1)   # identity-simplify unlocks a longer merge run
    builder.add(v, v, 1)
    builder.add(v, v, 1)
    builder.sync(v)
    return builder.build()


def test_chain_strategy_ablation(benchmark):
    """Pass-level ablation: which chain strategy should power expansion use?"""

    def sweep():
        rows = []
        for strategy in ("naive", "power_of_two", "binary"):
            counts = []
            for exponent in (6, 10, 24, 48):
                program, _, _ = power_program(1000, exponent)
                report = optimize(
                    program,
                    enabled_passes=["power_expansion"],
                    power_expansion={"strategy": strategy},
                    fixed_point=False,
                )
                counts.append(report.optimized.count(OpCode.BH_MULTIPLY))
            rows.append(
                {
                    "strategy": strategy,
                    "n=6": counts[0],
                    "n=10": counts[1],
                    "n=24": counts[2],
                    "n=48": counts[3],
                }
            )
        return rows

    rows = benchmark(sweep)
    benchmark.group = "E9 ablations"
    record_table(
        benchmark, "E9: multiplies emitted per strategy", rows,
        ["strategy", "n=6", "n=10", "n=24", "n=48"],
    )
    by_name = {row["strategy"]: row for row in rows}
    assert by_name["binary"]["n=48"] <= by_name["power_of_two"]["n=48"] <= by_name["naive"]["n=48"]


def test_safety_analysis_ablation(benchmark):
    """How often would the Equation 2 rewrite mis-fire without liveness checks?

    We measure the number of rewrite opportunities the idiom matcher sees
    versus the number the safety analysis admits, over programs where the
    inverse is reused — the admitted count must be zero.
    """

    def sweep():
        from repro.core.linear_solve import LinearSolveRewritePass, _idiom_pairs

        unsafe_sites = 0
        admitted = 0
        for n in (8, 16, 32):
            program, _, _ = linear_solve_program(n, reuse_inverse=True, seed=n)
            unsafe_sites += len(_idiom_pairs(program))
            admitted += LinearSolveRewritePass().run(program).stats.rewrites_applied
        return {"pattern_matches": unsafe_sites, "admitted_rewrites": admitted}

    counts = benchmark(sweep)
    benchmark.group = "E9 ablations"
    record_table(
        benchmark,
        "E9: pattern matches vs safety-admitted rewrites on reuse programs",
        [counts],
        ["pattern_matches", "admitted_rewrites"],
    )
    assert counts["pattern_matches"] == 3
    assert counts["admitted_rewrites"] == 0


def test_optimizer_overhead(benchmark):
    """Optimizer cost relative to executing the program it optimizes."""
    program, out = elementwise_chain(200_000, length=12)

    def run_optimizer():
        return optimize(program)

    report = benchmark(run_optimizer)
    benchmark.group = "E9 optimizer overhead"
    execution = NumPyInterpreter().execute(program)
    benchmark.extra_info["program_execution_seconds"] = execution.stats.wall_time_seconds
    assert report.changed


def test_verifier_catches_seeded_fault(benchmark):
    """The semantic verifier is the safety net; make sure it actually trips."""

    def run():
        program, _ = repeated_constant_add(64, repeats=4)
        report = optimize(program, enabled_passes=["constant_merge"])
        verifier = SemanticVerifier()
        clean = verifier.equivalent(program, report.optimized)
        # seed a fault: perturb the merged constant in the optimized program
        broken_instructions = [
            instr.with_constant(123.456)
            if instr.opcode is OpCode.BH_ADD and instr.constant is not None
            else instr
            for instr in report.optimized
        ]
        from repro.bytecode.program import Program

        faulty = verifier.equivalent(program, Program(broken_instructions))
        return clean, faulty

    clean, faulty = benchmark(run)
    benchmark.group = "E9 verifier"
    assert clean is True
    assert faulty is False
