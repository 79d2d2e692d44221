"""``repro-opt`` — optimize textual byte-code listings from the command line.

Example
-------
Given ``listing2.bh`` containing the paper's Listing 2::

    BH_IDENTITY a0[0:10:1] 0
    BH_ADD a0[0:10:1] a0[0:10:1] 1
    BH_ADD a0[0:10:1] a0[0:10:1] 1
    BH_ADD a0[0:10:1] a0[0:10:1] 1
    BH_SYNC a0[0:10:1]

running ``repro-opt listing2.bh`` prints the optimized listing (the paper's
Listing 3 plus fusion), the per-pass report and the cost-model comparison.
The tool reads stdin when no file is given, so it composes with pipes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.bytecode.parser import parse_program
from repro.bytecode.printer import format_program
from repro.core.cost import DEVICE_PROFILES, CostModel
from repro.core.pipeline import default_pipeline
from repro.core.schedule import fusion_schedule_of
from repro.core.rules import DEFAULT_PASS_ORDER, EXTENDED_PASS_ORDER, available_passes
from repro.core.verifier import SemanticVerifier
from repro.runtime.backend import available_backends
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override
from repro.utils.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-opt",
        description="Optimize a Bohrium-style byte-code listing with the "
        "algebraic transformation engine.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="path to the byte-code listing (default: '-' reads stdin)",
    )
    parser.add_argument(
        "--passes",
        default=None,
        help="comma-separated subset of passes to run "
        f"(available: {', '.join(sorted(set(EXTENDED_PASS_ORDER)))})",
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="include the extension passes (constant folding, strength reduction, CSE)",
    )
    parser.add_argument(
        "--power-strategy",
        default="power_of_two",
        choices=("naive", "power_of_two", "binary", "optimal"),
        help="addition-chain strategy used by power expansion (default: the paper's)",
    )
    parser.add_argument(
        "--no-fixed-point",
        action="store_true",
        help="run the pass list once instead of iterating to a fixed point",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="execute original and optimized programs on random inputs and compare",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="enable the static checking layer (config knob check_ir): run "
        "the between-pass IR verifier during optimization and the "
        "plan-artifact soundness checks before execution; any violation "
        "aborts with an error naming the offending pass and instruction",
    )
    parser.add_argument(
        "--profile",
        default="gpu",
        choices=tuple(DEVICE_PROFILES),
        help="device profile used for the cost comparison (default: gpu)",
    )
    parser.add_argument(
        "--default-length",
        type=int,
        default=1024,
        help="vector length assumed for registers that appear without an explicit view",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execute the listing through the execution engine on this "
        f"registered backend ({', '.join(available_backends())}) "
        "and print execution plus plan/template cache statistics",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="with --backend: execute the listing this many times; repeats "
        "after the first are served from the plan cache (default: 1)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="with --backend parallel: worker-thread count for the tiled "
        "parallel backend (default: the configuration, then the CPU count)",
    )
    parser.add_argument(
        "--serve-stress",
        nargs="?",
        const="4x8x3",
        default=None,
        metavar="TxSxR",
        help="run the listing through the multi-tenant array service: T "
        "driver threads x S tenant sessions x R repeats per session "
        "(default 4x8x3), comparing every result bitwise against a serial "
        "reference; exit code 3 on any mismatch or worker error",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the optimized listing (no report, no cost table)",
    )
    parser.add_argument(
        "--stats-json",
        action="store_true",
        help="emit a machine-readable JSON document instead of the human "
        "report: optimization summary, pricing, and (with --backend) "
        "the per-run execution-statistics trajectory plus cache counters",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list the registered passes and exit",
    )
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _selected_passes(args) -> Optional[List[str]]:
    if args.passes is None:
        return None
    requested = [name.strip() for name in args.passes.split(",") if name.strip()]
    known = set(available_passes())
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise ReproError(f"unknown pass(es): {', '.join(unknown)}")
    return requested


def run(args, out=None) -> int:
    """Run the tool with parsed arguments; returns the process exit code."""
    if args.check:
        # One override around the whole run so both the report pipeline and
        # any engine executions see the knob.
        with config_override(check_ir=True):
            return _run(args, out)
    return _run(args, out)


def _run(args, out=None) -> int:
    if out is None:
        out = sys.stdout
    if args.threads is not None and args.threads < 1:
        raise ReproError(f"--threads must be at least 1, got {args.threads}")
    if args.list_passes:
        order = EXTENDED_PASS_ORDER if args.extended else DEFAULT_PASS_ORDER
        print("pipeline order:", ", ".join(order), file=out)
        print("registered passes:", ", ".join(available_passes()), file=out)
        return 0

    text = _read_input(args.input)
    program = parse_program(text, default_nelem=args.default_length)
    pipeline = default_pipeline(
        enabled_passes=_selected_passes(args),
        fixed_point=not args.no_fixed_point,
        verify=False,
        extended=args.extended,
        power_expansion={"strategy": args.power_strategy},
    )
    report = pipeline.run(program)

    if args.stats_json:
        return _run_stats_json(program, pipeline, report, args, out)

    print(format_program(report.optimized), file=out)
    if args.quiet:
        # --quiet silences the report, not the stress harness's verdict.
        if args.serve_stress is not None:
            return _serve_stress(program, args, out)
        return 0

    print(file=out)
    print(report.summary(), file=out)

    schedule = fusion_schedule_of(report)
    if schedule is not None:
        print(file=out)
        print(_format_schedule(schedule), file=out)

    model = CostModel(args.profile)
    before = model.breakdown(program)
    after = model.breakdown(report.optimized)
    print(file=out)
    print(f"cost model ({args.profile} profile):", file=out)
    print(
        f"  kernels {before.kernel_launches} -> {after.kernel_launches}, "
        f"flops {before.flops:.3g} -> {after.flops:.3g}, "
        f"bytes {before.bytes_moved:.3g} -> {after.bytes_moved:.3g}",
        file=out,
    )
    if after.seconds > 0:
        print(
            f"  predicted time {before.seconds * 1e6:.2f} us -> {after.seconds * 1e6:.2f} us "
            f"({before.seconds / after.seconds:.2f}x)",
            file=out,
        )

    if args.verify:
        verifier = SemanticVerifier()
        equivalent = verifier.equivalent(program, report.optimized)
        print(file=out)
        print(f"semantic verification: {'passed' if equivalent else 'FAILED'}", file=out)
        if not equivalent:
            return 2

    if args.backend is not None:
        _execute_with_engine(program, pipeline, report, args, out)
    if args.serve_stress is not None:
        return _serve_stress(program, args, out)
    return 0


def _engine_trajectory(program, pipeline, report, args):
    """Execute the listing ``--repeat`` times; returns (engine, per-run stats).

    Owns the execution-affecting flag handling (``--threads``), so the
    human and JSON output paths cannot diverge on how runs are configured.
    """
    if args.repeat < 1:
        raise ReproError(f"--repeat must be at least 1, got {args.repeat}")

    def execute():
        engine = ExecutionEngine(backend=args.backend, pipeline=pipeline)
        # The pipeline already ran once to print the report above — seed the
        # plan cache with it so the first execution replays instead of
        # re-optimizing.
        engine.prime(program, report)
        trajectory = []
        for _ in range(args.repeat):
            # Fresh memory per run: repeats measure middleware reuse, not state.
            trajectory.append(engine.execute(program).stats)
        return engine, trajectory

    if args.threads is not None:
        with config_override(parallel_num_threads=args.threads):
            return execute()
    return execute()


def _parse_stress_spec(spec: str):
    """Parse a ``TxSxR`` stress spec into (threads, sessions, repeats)."""
    parts = spec.lower().split("x")
    try:
        threads, sessions, repeats = (int(part) for part in parts)
    except ValueError:
        raise ReproError(
            f"--serve-stress expects THREADSxSESSIONSxREPEATS (e.g. 4x8x3), got {spec!r}"
        )
    if min(threads, sessions, repeats) < 1:
        raise ReproError(
            f"--serve-stress values must all be at least 1, got {spec!r}"
        )
    return threads, sessions, repeats


def _stress_report(program, args):
    """Run the multi-tenant stress harness with the CLI's flag handling."""
    from repro.service import run_service_stress

    threads, sessions, repeats = _parse_stress_spec(args.serve_stress)

    def execute():
        return run_service_stress(
            program,
            threads=threads,
            sessions=sessions,
            repeats=repeats,
            backend=args.backend,
        )

    if args.threads is not None:
        with config_override(parallel_num_threads=args.threads):
            return execute()
    return execute()


def _serve_stress(program, args, out) -> int:
    """Human-readable output for ``--serve-stress``; exit code 3 on failure."""
    report = _stress_report(program, args)
    admission = report["stats"]["admission"]
    pool = report["stats"]["pool"]
    cache = report["stats"]["cache"]
    print(file=out)
    print(
        f"service stress ({report['backend']} backend, "
        f"{report['threads']} thread(s) x {report['sessions']} session(s) "
        f"x {report['repeats']} repeat(s)):",
        file=out,
    )
    print(
        f"  {report['executed']} flush(es) executed, "
        f"{report['rejections']} rejection(s), "
        f"{report['mismatches']} mismatch(es)",
        file=out,
    )
    print(
        f"  plan cache: {report['plan_builds']} build(s), "
        f"{report['plan_cache_hits']} cross-session hit(s), "
        f"{cache['plan_waits']} build wait(s)",
        file=out,
    )
    print(
        f"  admission: peak {admission['peak_inflight']} in flight "
        f"(cap {admission['max_inflight']}), "
        f"{admission['waits']} backpressure wait(s), "
        f"{admission['rejected_timeout']} timeout(s)",
        file=out,
    )
    print(
        f"  pool: peak {pool['pool_peak_bytes_held']} byte(s) parked "
        f"(cap {report['pool_max_bytes']}), "
        f"{pool['pool_discards']} discard(s), "
        f"{pool['pool_lock_contentions']} lock contention(s)",
        file=out,
    )
    if "native_mt_launches" in cache:
        print(
            f"  native: {cache['native_mt_launches']} threaded "
            f"launch(es), {cache['native_slots_elided']} slot(s) elided",
            file=out,
        )
    if report["ok"]:
        print("  result: bitwise-identical to the serial reference", file=out)
        return 0
    print(
        f"  result: STRESS FAILED ({report['mismatches']} mismatch(es), "
        f"{len(report['errors'])} worker error(s))",
        file=out,
    )
    for error in report["errors"]:
        print(f"    {error}", file=out)
    return 3


def _codegen_block(cache: dict) -> Optional[dict]:
    """The ``codegen`` summary of ``--stats-json``: how the native tier ran.

    ``None`` for backends without native counters, so the block's presence
    itself says "this execution had a compiled tier".
    """
    if "native_mt_launches" not in cache:
        return None
    return {
        "mt_launches": cache["native_mt_launches"],
        "slots_elided": cache["native_slots_elided"],
        "compiles": cache["native_compiles"],
        "kernel_launches": cache["native_kernel_launches"],
        "fallbacks": cache["native_fallbacks"],
    }


def _distributed_block(cache: dict) -> Optional[dict]:
    """The ``distributed`` summary of ``--stats-json``: how the dist tier ran.

    ``None`` for backends without shard counters, so the block's presence
    itself says "this execution ran across worker processes".  The
    ``payload_bytes`` entry is the hot-path invariant: array bytes that
    crossed the control channel (must stay 0 — arrays travel only through
    shared memory).
    """
    if "dist_workers_spawned" not in cache:
        return None
    return {
        "workers_spawned": cache["dist_workers_spawned"],
        "shard_launches": cache["dist_shard_launches"],
        "payload_bytes": cache["dist_payload_bytes"],
        "loads_shipped": cache["dist_loads_shipped"],
        "bases_adopted": cache["dist_bases_adopted"],
        "zero_fill_bytes": cache["dist_zero_fill_bytes"],
        "segments_created": cache["dist_segments_created"],
        "segments_recycled": cache["dist_segments_recycled"],
        "shm_bytes_active": cache["dist_shm_bytes_active"],
    }


def _format_schedule(schedule) -> str:
    """Human-readable one-liner for the fusion scheduler's statistics."""
    return (
        f"fusion scheduler ({schedule.scheduler}): "
        f"kernels {schedule.kernels_before} -> {schedule.kernels_after}, "
        f"{schedule.bytecodes_reordered} byte-code(s) reordered"
    )


def _run_stats_json(program, pipeline, report, args, out) -> int:
    """Emit the machine-readable statistics document (``--stats-json``)."""
    model = CostModel(args.profile)
    before = model.breakdown(program)
    after = model.breakdown(report.optimized)
    passes = {}
    for stats in report.pass_stats:
        passes[stats.pass_name] = passes.get(stats.pass_name, 0) + stats.rewrites_applied
    payload = {
        "optimization": {
            "instructions_before": report.instructions_before,
            "instructions_after": report.instructions_after,
            "iterations": report.iterations,
            "rewrites": report.total_rewrites,
            "rewrites_per_pass": passes,
        },
        "pricing": {
            "profile": args.profile,
            "kernels_before": before.kernel_launches,
            "kernels_after": after.kernel_launches,
            "flops_before": before.flops,
            "flops_after": after.flops,
            "bytes_before": before.bytes_moved,
            "bytes_after": after.bytes_moved,
            "seconds_before": before.seconds,
            "seconds_after": after.seconds,
        },
    }
    schedule = fusion_schedule_of(report)
    if schedule is not None:
        payload["optimization"]["fusion_scheduler"] = schedule.stats()
    exit_code = 0
    if args.verify:
        equivalent = SemanticVerifier().equivalent(program, report.optimized)
        payload["verified"] = bool(equivalent)
        if not equivalent:
            exit_code = 2
    if args.backend is not None:
        engine, trajectory = _engine_trajectory(program, pipeline, report, args)
        cache_stats = engine.cache_stats()
        execution = {
            "backend": engine.backend.name,
            "runs": args.repeat,
            "per_run": [stats.as_dict() for stats in trajectory],
            "cache": cache_stats,
            "config": engine.config_stats(),
        }
        codegen = _codegen_block(cache_stats)
        if codegen is not None:
            # Why steps fell back — not counters, so they are not part of
            # ``cache_stats()``.
            codegen["fallback_reasons"] = engine.backend.fallback_reasons()
            execution["codegen"] = codegen
        distributed = _distributed_block(cache_stats)
        if distributed is not None:
            execution["distributed"] = distributed
        plan = engine.last_plan
        memory_plan = plan.memory_plan if plan is not None else None
        if memory_plan is not None:
            execution["memory_plan"] = memory_plan.stats()
        plan_schedule = plan.fusion_schedule if plan is not None else None
        if plan_schedule is not None:
            execution["fusion_scheduler"] = plan_schedule.stats()
        payload["execution"] = execution
    if args.serve_stress is not None:
        report = _stress_report(program, args)
        payload["service"] = report
        if not report["ok"] and exit_code == 0:
            exit_code = 3
    if args.check:
        from repro.checks import COUNTERS

        # Snapshot last so plan checks paid during --backend executions are
        # included.  Process-wide analyzer totals: proof the checks actually
        # ran (an all-zero "checks" block means --check was vacuous).
        payload["checks"] = COUNTERS.snapshot()
    json.dump(payload, out, indent=2)
    print(file=out)
    return exit_code


def _execute_with_engine(program, pipeline, report, args, out) -> None:
    """Run the listing through the staged engine and report cache statistics."""
    engine, trajectory = _engine_trajectory(program, pipeline, report, args)
    last_stats = trajectory[-1]

    print(file=out)
    print(f"execution ({engine.backend.name} backend, {args.repeat} run(s)):", file=out)
    print(
        f"  last run: {last_stats.instructions_executed} byte-code(s), "
        f"{last_stats.kernel_launches} kernel launch(es), "
        f"{last_stats.wall_time_seconds * 1e3:.3f} ms wall, "
        f"{last_stats.plan_time_seconds * 1e3:.3f} ms planning",
        file=out,
    )
    if last_stats.threads_used:
        print(
            f"  tiling: {last_stats.tiles_executed} tile(s) over "
            f"{last_stats.threads_used} thread(s), "
            f"{last_stats.tiled_instructions} tiled byte-code(s), "
            f"{last_stats.serial_fallbacks} serial fallback(s)",
            file=out,
        )
    print(
        f"  memory: {last_stats.pool_hits} pool hit(s), "
        f"{last_stats.pool_misses} pool miss(es), "
        f"{last_stats.pool_bytes_reused} byte(s) reused, "
        f"peak {last_stats.actual_peak_bytes} byte(s)",
        file=out,
    )
    plan = engine.last_plan
    plan_schedule = plan.fusion_schedule if plan is not None else None
    report_schedule = fusion_schedule_of(report)
    if plan_schedule is not None and (
        report_schedule is None or plan_schedule.stats() != report_schedule.stats()
    ):
        # Normally the plan replays the printed report's schedule (the CLI
        # primes the cache with it) and the line above already said it all;
        # only a genuinely different plan-stage schedule is worth a line.
        print(f"  {_format_schedule(plan_schedule)}", file=out)
    memory_plan = plan.memory_plan if plan is not None else None
    if memory_plan is not None:
        print(
            f"  memory plan: {memory_plan.num_slots} shared slot(s) over "
            f"{memory_plan.aliased_bases} aliased base(s), "
            f"{memory_plan.zero_fills_waived} zero fill(s) waived, "
            f"planned peak {memory_plan.planned_peak_bytes} byte(s) "
            f"(unplanned {memory_plan.unplanned_peak_bytes})",
            file=out,
        )
    cache = engine.cache_stats()
    print(
        f"  plan cache: {cache['plan_cache_hits']} hit(s), "
        f"{cache['plan_cache_misses']} miss(es), "
        f"{cache['plan_cache_size']} plan(s) cached",
        file=out,
    )
    if "tile_template_hits" in cache:
        print(
            f"  tile templates: {cache['tile_template_hits']} hit(s), "
            f"{cache['tile_template_misses']} miss(es), "
            f"{cache.get('tile_template_size', 0)} template(s) cached",
            file=out,
        )
    if "native_compiles" in cache:
        print(
            f"  native codegen: {cache['native_compiles']} compile(s), "
            f"{cache['native_disk_hits']} disk hit(s), "
            f"{cache['native_memory_hits']} memory hit(s), "
            f"{cache['native_kernel_launches']} native launch(es), "
            f"{cache['native_fallbacks']} fallback(s)",
            file=out,
        )
    if "native_mt_launches" in cache:
        print(
            f"  native threading: {cache['native_mt_launches']} threaded "
            f"launch(es), {cache['native_slots_elided']} slot(s) elided",
            file=out,
        )
    if "dist_workers_spawned" in cache:
        print(
            f"  distributed: {cache['dist_workers_spawned']} worker(s) "
            f"spawned, {cache['dist_shard_launches']} shard launch(es), "
            f"{cache['dist_payload_bytes']} control-channel payload byte(s), "
            f"{cache['dist_bases_adopted']} base(s) adopted "
            f"({cache['dist_zero_fill_bytes']} byte(s) zero-filled), "
            f"{cache['dist_segments_created']} segment(s) created "
            f"({cache['dist_segments_recycled']} recycled)",
            file=out,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
