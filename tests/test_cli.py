"""Tests for the ``repro-opt`` command-line tool."""

import io

import pytest

from repro.tools.cli import build_parser, main, run

LISTING_2 = """\
BH_IDENTITY a0[0:10:1] 0
BH_ADD a0[0:10:1] a0[0:10:1] 1
BH_ADD a0[0:10:1] a0[0:10:1] 1
BH_ADD a0[0:10:1] a0[0:10:1] 1
BH_SYNC a0[0:10:1]
"""

POWER_LISTING = """\
BH_RANGE a0[0:64:1]
BH_POWER a1[0:64:1] a0[0:64:1] 10
BH_SYNC a1[0:64:1]
"""

#: An element-wise chain with a reduction interleaved mid-chain: the
#: dependency-graph fusion scheduler reorders the reduction past the chain
#: and fuses the whole chain into one kernel.
INTERLEAVED_LISTING = """\
BH_IDENTITY a0[0:32:1] 1
BH_ADD_REDUCE a1[0:1:1] a0[0:32:1] 0
BH_ADD a2[0:32:1] a0[0:32:1] 2
BH_MULTIPLY a2[0:32:1] a2[0:32:1] 3
BH_SYNC a1[0:1:1]
BH_SYNC a2[0:32:1]
"""


@pytest.fixture
def interleaved_file(tmp_path):
    path = tmp_path / "interleaved.bh"
    path.write_text(INTERLEAVED_LISTING)
    return str(path)


@pytest.fixture
def drawn_file(tmp_path):
    """The interleaved listing over a drawn input: its maps compute, so the
    native backend compiles them (over constants they are fills)."""
    path = tmp_path / "drawn.bh"
    path.write_text(INTERLEAVED_LISTING.replace("BH_IDENTITY a0[0:32:1] 1", "BH_RANDOM a0[0:32:1] 7"))
    return str(path)


@pytest.fixture
def listing_file(tmp_path):
    path = tmp_path / "listing2.bh"
    path.write_text(LISTING_2)
    return str(path)


#: Same shape as Listing 2, but large enough to clear the parallel
#: backend's serial threshold so tiled (and native-compiled) paths run.
LARGE_LISTING = LISTING_2.replace("[0:10:1]", "[0:16384:1]")


@pytest.fixture
def large_listing_file(tmp_path):
    path = tmp_path / "large_listing.bh"
    path.write_text(LARGE_LISTING)
    return str(path)


def run_cli(args_list):
    """Run the tool with a string-capturing stdout; returns (exit code, output)."""
    parser = build_parser()
    args = parser.parse_args(args_list)
    out = io.StringIO()
    code = run(args, out=out)
    return code, out.getvalue()


class TestBasicOperation:
    def test_optimizes_listing_2(self, listing_file):
        code, output = run_cli([listing_file])
        assert code == 0
        assert "BH_ADD" in output
        assert " 3" in output                      # the merged constant
        assert "constant_merge" in output          # the report mentions the pass
        assert "cost model" in output

    def test_quiet_mode_prints_only_the_listing(self, listing_file):
        code, output = run_cli([listing_file, "--quiet"])
        assert code == 0
        assert "optimization summary" not in output
        assert "cost model" not in output
        assert output.strip().startswith("BH_")

    def test_verify_flag(self, listing_file):
        code, output = run_cli([listing_file, "--verify"])
        assert code == 0
        assert "semantic verification: passed" in output

    def test_check_flag_runs_clean(self, listing_file):
        code, output = run_cli([listing_file, "--check", "--backend", "parallel"])
        assert code == 0
        assert "BH_" in output

    def test_stdin_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(LISTING_2))
        code, output = run_cli(["-"])
        assert code == 0
        assert "BH_ADD" in output

    def test_pass_subset(self, listing_file):
        code, output = run_cli([listing_file, "--passes", "constant_merge", "--quiet"])
        assert code == 0
        # fusion did not run, so no BH_FUSED wrapper appears
        assert "BH_FUSED" not in output
        assert output.count("BH_ADD") == 1

    def test_power_strategy_option(self, tmp_path):
        path = tmp_path / "power.bh"
        path.write_text(POWER_LISTING)
        code_naive, out_naive = run_cli([str(path), "--power-strategy", "naive", "--quiet"])
        code_paper, out_paper = run_cli([str(path), "--power-strategy", "power_of_two", "--quiet"])
        assert code_naive == 0 and code_paper == 0
        assert out_naive.count("BH_MULTIPLY") == 9
        assert out_paper.count("BH_MULTIPLY") == 5

    def test_extended_pipeline_flag(self, listing_file):
        code, output = run_cli([listing_file, "--extended", "--quiet"])
        assert code == 0
        # constant folding collapses everything into one initialisation
        assert "BH_ADD" not in output

    def test_list_passes(self):
        code, output = run_cli(["--list-passes"])
        assert code == 0
        assert "constant_merge" in output
        assert "pipeline order" in output

    def test_fusion_scheduler_stats_reported(self, interleaved_file):
        code, output = run_cli([interleaved_file])
        assert code == 0
        assert "fusion scheduler (dag):" in output
        assert "kernels 4 -> 2, 1 byte-code(s) reordered" in output

    def test_fusion_scheduler_stats_follow_the_config(self, interleaved_file):
        from repro.utils.config import config_override

        with config_override(fusion_scheduler="consecutive"):
            code, output = run_cli([interleaved_file])
        assert code == 0
        assert "fusion scheduler (consecutive):" in output
        assert "0 byte-code(s) reordered" in output

    def test_profile_option(self, listing_file):
        code, output = run_cli([listing_file, "--profile", "multicore"])
        assert code == 0
        assert "multicore profile" in output


class TestBackendExecution:
    def test_backend_flag_executes_and_reports_stats(self, listing_file):
        code, output = run_cli([listing_file, "--backend", "interpreter"])
        assert code == 0
        assert "execution (interpreter backend, 1 run(s))" in output
        # The report phase primes the plan cache, so even the first
        # execution replays instead of re-optimizing.
        assert "plan cache: 1 hit(s), 0 miss(es), 1 plan(s) cached" in output

    def test_repeat_hits_the_plan_cache(self, listing_file):
        code, output = run_cli([listing_file, "--backend", "interpreter", "--repeat", "5"])
        assert code == 0
        assert "plan cache: 5 hit(s), 0 miss(es), 1 plan(s) cached" in output

    def test_parallel_backend_reports_template_cache(self, listing_file):
        code, output = run_cli([listing_file, "--backend", "parallel", "--repeat", "2"])
        assert code == 0
        assert "tile templates:" in output

    def test_no_backend_no_execution_section(self, listing_file):
        code, output = run_cli([listing_file])
        assert code == 0
        assert "execution (" not in output

    def test_unknown_backend_is_an_error(self, listing_file):
        assert main([listing_file, "--backend", "tpu"]) == 1

    def test_removed_jit_backend_names_the_registered_ones(self, listing_file, capsys):
        assert main([listing_file, "--backend", "jit"]) == 1
        error = capsys.readouterr().err
        assert "unknown backend 'jit'" in error
        available = error.partition("available:")[2]
        assert all(repr(name) in available for name in ("dist", "interpreter", "native", "parallel"))
        assert "'jit'" not in available

    def test_backend_help_lists_the_registry(self):
        from repro.runtime.backend import available_backends

        help_text = build_parser().format_help()
        assert ", ".join(available_backends()) in " ".join(help_text.split())

    def test_invalid_repeat_is_an_error(self, listing_file):
        assert main([listing_file, "--backend", "interpreter", "--repeat", "0"]) == 1

    def test_memory_stats_reported(self, listing_file):
        code, output = run_cli([listing_file, "--backend", "interpreter"])
        assert code == 0
        assert "memory:" in output
        assert "pool hit(s)" in output
        assert "memory plan:" in output

    def test_native_backend_reports_codegen_counters(self, large_listing_file, tmp_path):
        from repro.codegen import clear_memory_cache
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [large_listing_file, "--backend", "native", "--repeat", "2"]
            )
        assert code == 0
        assert "native codegen:" in output
        assert "compile(s)" in output
        assert "fallback(s)" in output

    def test_native_backend_executes_compiled_kernels(self, tmp_path):
        import re

        from repro.codegen import clear_memory_cache, find_c_compiler
        from repro.utils.config import config_override

        if find_c_compiler() is None:
            pytest.skip("no C compiler on this host")
        # Listing 2 from ``BH_RANGE`` instead of a constant: over a constant
        # the chain folds to a fill, which is no compiled launch.
        path = tmp_path / "range_listing.bh"
        path.write_text(
            LARGE_LISTING.replace("BH_IDENTITY a0[0:16384:1] 0", "BH_RANGE a0[0:16384:1]")
        )
        clear_memory_cache()
        # Two runs: a kernel form of one step compiles on its second launch.
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli([str(path), "--backend", "native", "--repeat", "2"])
        assert code == 0
        match = re.search(r"(\d+) native launch\(es\)", output)
        assert match and int(match.group(1)) > 0


class TestStatsJson:
    def test_emits_parseable_document(self, listing_file):
        import json

        code, output = run_cli([listing_file, "--stats-json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["optimization"]["instructions_before"] == 5
        assert payload["optimization"]["rewrites"] >= 1
        assert payload["pricing"]["profile"] == "gpu"
        assert "execution" not in payload

    def test_execution_trajectory_with_backend(self, listing_file):
        import json

        code, output = run_cli(
            [listing_file, "--stats-json", "--backend", "interpreter", "--repeat", "3"]
        )
        assert code == 0
        payload = json.loads(output)
        execution = payload["execution"]
        assert execution["backend"] == "interpreter"
        assert execution["runs"] == 3
        assert len(execution["per_run"]) == 3
        for run_stats in execution["per_run"]:
            assert run_stats["plan_cache_hits"] == 1  # primed cache replays
            assert "pool_hits" in run_stats
            assert "actual_peak_bytes" in run_stats
        assert execution["cache"]["plan_cache_hits"] == 3
        assert "memory_plan" in execution

    def test_verify_result_included(self, listing_file):
        import json

        code, output = run_cli([listing_file, "--stats-json", "--verify"])
        assert code == 0
        assert json.loads(output)["verified"] is True

    def test_check_flag_emits_checks_block(self, listing_file):
        import json

        code, output = run_cli(
            [listing_file, "--stats-json", "--check", "--backend", "parallel"]
        )
        assert code == 0
        checks = json.loads(output)["checks"]
        assert checks["ir_checks_run"] > 0
        assert checks["plan_checks_run"] > 0
        assert checks["ir_check_failures"] == 0
        assert checks["plan_check_failures"] == 0

    def test_no_checks_block_without_the_flag(self, listing_file):
        import json

        code, output = run_cli([listing_file, "--stats-json"])
        assert code == 0
        assert "checks" not in json.loads(output)

    def test_config_block_reports_the_resolved_snapshot(self, listing_file, tmp_path):
        import json

        from repro.utils.config import config_override

        cache = str(tmp_path / "cache")
        with config_override(codegen_cache_dir=cache, dist_num_workers=3):
            code, output = run_cli(
                [listing_file, "--stats-json", "--backend", "parallel", "--threads", "2"]
            )
        assert code == 0
        config = json.loads(output)["execution"]["config"]
        assert config["threads"] == 2 and config["codegen_threads"] is None
        assert config["cache_dir"] == cache and config["dist_workers"] == 3
        assert len(config["plan_signature"]) == 32

    def test_native_counters_in_stats_json(self, large_listing_file, tmp_path):
        import json

        from repro.codegen import clear_memory_cache
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [large_listing_file, "--stats-json", "--backend", "native", "--repeat", "2"]
            )
        assert code == 0
        payload = json.loads(output)
        execution = payload["execution"]
        for key in ("native_compiles", "native_disk_hits", "native_kernel_launches"):
            assert key in execution["cache"], key
        for run_stats in execution["per_run"]:
            assert "native_kernel_launches" in run_stats
            assert "native_fallbacks" in run_stats

    def test_codegen_block_with_native_backend(self, large_listing_file, tmp_path):
        import json

        from repro.codegen import clear_memory_cache
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [large_listing_file, "--stats-json", "--backend", "native", "--repeat", "2"]
            )
        assert code == 0
        codegen = json.loads(output)["execution"]["codegen"]
        for key in (
            "mt_launches",
            "slots_elided",
            "compiles",
            "kernel_launches",
            "fallbacks",
        ):
            assert key in codegen, key
        assert "runtime" not in codegen  # no kernel needs the kernel runtime

    def test_codegen_block_says_why_a_step_fell_back(self, tmp_path):
        import json

        from repro.codegen import clear_memory_cache, find_c_compiler
        from repro.utils.config import config_override

        if find_c_compiler() is None:
            pytest.skip("no C compiler on this host")
        listing = tmp_path / "log.bh"
        listing.write_text(
            "BH_IDENTITY a0[0:16384:1] 2\n"
            "BH_LOG a1[0:16384:1] a0[0:16384:1]\n"
            "BH_SYNC a1[0:16384:1]\n"
        )
        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [str(listing), "--stats-json", "--backend", "native", "--repeat", "2"]
            )
        assert code == 0
        execution = json.loads(output)["execution"]
        assert execution["codegen"]["fallbacks"] == 2
        assert execution["codegen"]["fallback_reasons"] == {
            "unsupported op-code BH_LOG": 2
        }
        assert all(
            isinstance(value, (int, float)) for value in execution["cache"].values()
        )

    def test_codegen_block_counts_no_reduction_as_compiled(self, drawn_file, tmp_path):
        """No tier compiles a fold: the block has no reduction counters, and
        the second run, its element-wise forms compiled, falls back nowhere."""
        import json

        from repro.codegen import clear_memory_cache, find_c_compiler
        from repro.utils.config import config_override

        if find_c_compiler() is None:
            pytest.skip("no C compiler on this host")
        clear_memory_cache()
        with config_override(
            codegen_cache_dir=str(tmp_path / "cache"),
            parallel_tile_elements=16,
            parallel_serial_threshold=4,
        ):
            code, output = run_cli(
                [drawn_file, "--stats-json", "--backend", "native", "--repeat", "2"]
            )
        assert code == 0
        execution = json.loads(output)["execution"]
        codegen, (_, second) = execution["codegen"], execution["per_run"]
        assert not [key for key in codegen if "reduction" in key]
        assert codegen["compiles"] >= 1
        assert second["native_fallbacks"] == 0

    def test_a_one_shot_run_says_why_it_was_not_compiled(self, drawn_file, tmp_path):
        """The first launch of a kernel form runs its template and says so;
        a second run of the program in the same process compiles it and
        adds no such reason."""
        import json

        from repro.codegen import clear_memory_cache
        from repro.runtime.native import FIRST_LAUNCH
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(
            codegen_cache_dir=str(tmp_path / "cache"),
            parallel_tile_elements=16,
            parallel_serial_threshold=4,
        ):
            once = json.loads(
                run_cli([drawn_file, "--stats-json", "--backend", "native"])[1]
            )["execution"]
            twice = json.loads(
                run_cli([drawn_file, "--stats-json", "--backend", "native", "--repeat", "2"])[1]
            )["execution"]
        reasons = once["codegen"]["fallback_reasons"]
        assert reasons.get(FIRST_LAUNCH, 0) > 0
        # The reasons are cumulative: the second run added none.
        assert twice["codegen"]["fallback_reasons"] == reasons
        second = twice["per_run"][1]
        assert second["native_fallbacks"] == 0

    def test_codegen_block_absent_without_native_counters(self, listing_file):
        import json

        code, output = run_cli(
            [listing_file, "--stats-json", "--backend", "interpreter"]
        )
        assert code == 0
        assert "codegen" not in json.loads(output)["execution"]

    def test_fusion_scheduler_section(self, interleaved_file):
        import json

        code, output = run_cli(
            [interleaved_file, "--stats-json", "--backend", "parallel", "--repeat", "2"]
        )
        assert code == 0
        payload = json.loads(output)
        optimization = payload["optimization"]["fusion_scheduler"]
        assert optimization["fusion_scheduler"] == "dag"
        assert optimization["fusion_kernels_after"] < optimization["fusion_kernels_before"]
        assert optimization["fusion_bytecodes_reordered"] >= 1
        assert (optimization["fusion_kernels_before"], optimization["fusion_kernels_after"]) == (4, 2)
        execution = payload["execution"]["fusion_scheduler"]
        assert execution["fusion_scheduler"] == "dag"
        assert execution["fusion_kernels_after"] < execution["fusion_kernels_before"]


class TestServeStress:
    def test_service_stats_say_why_a_one_shot_flush_was_not_compiled(self, tmp_path):
        """``service.stats()`` names the first launch of a kernel form; a
        second flush of the program compiles it and names nothing new."""
        from repro.codegen import clear_memory_cache
        from repro.runtime.native import FIRST_LAUNCH
        from repro.service import ArrayService
        from repro.utils.config import config_override
        from repro.workloads import monte_carlo_pi

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            with ArrayService(backend="native") as service:
                session = service.open_session()
                monte_carlo_pi(20_000, session=session).to_numpy()
                once = service.stats()["native_fallback_reasons"]
                monte_carlo_pi(20_000, session=session).to_numpy()
                twice = service.stats()["native_fallback_reasons"]
                second = session.stats_history[-1]
        assert once.get(FIRST_LAUNCH, 0) > 0
        assert FIRST_LAUNCH not in second.native_fallback_reasons
        assert twice == once

    def test_serve_stress_reports_native_counters(self, large_listing_file, tmp_path):
        from repro.codegen import clear_memory_cache
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [large_listing_file, "--serve-stress", "2x2x1", "--backend", "native"]
            )
        assert code == 0
        assert "native:" in output
        assert "threaded launch(es)" in output
        assert "slot(s) elided" in output

    def test_serve_stress_json_includes_native_counters(
        self, large_listing_file, tmp_path
    ):
        import json

        from repro.codegen import clear_memory_cache
        from repro.utils.config import config_override

        clear_memory_cache()
        with config_override(codegen_cache_dir=str(tmp_path / "cache")):
            code, output = run_cli(
                [
                    large_listing_file,
                    "--stats-json",
                    "--serve-stress",
                    "2x2x1",
                    "--backend",
                    "native",
                ]
            )
        assert code == 0
        cache = json.loads(output)["service"]["stats"]["cache"]
        assert "native_mt_launches" in cache
        assert "native_reduction_fallbacks" in cache

    def test_serve_stress_without_native_backend_omits_the_line(self, listing_file):
        code, output = run_cli(
            [listing_file, "--serve-stress", "2x2x1", "--backend", "interpreter"]
        )
        assert code == 0
        assert "threaded launch(es)" not in output


class TestErrorHandling:
    def test_missing_file(self):
        assert main(["/nonexistent/path.bh"]) == 1

    def test_unknown_pass(self, listing_file):
        assert main([listing_file, "--passes", "turbo"]) == 1

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.bh"
        path.write_text("BH_NOT_A_THING a0[0:4:1] 1\n")
        assert main([str(path)]) == 1

    def test_main_happy_path(self, listing_file, capsys):
        assert main([listing_file, "--quiet"]) == 0
        assert "BH_" in capsys.readouterr().out


def test_running_the_module_prints_nothing_to_stderr(listing_file):
    """``python -m repro.tools.cli`` loads the module once: no runpy warning."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", listing_file, "--quiet"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "BH_SYNC" in done.stdout
