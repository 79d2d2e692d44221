"""Deterministic self-tests of the benchmark: arithmetic, names, and a smoke run.

No wall-clock asserts: the smoke run only checks that every workload runs,
verifies its outputs and prints the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import spec
from bench.stats import percentile, round_values, self_times, split_rounds, spread
from bench.workloads import SMOKE, generate_cold_programs, jacobi_reference

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.95) == pytest.approx(4.8)
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_ops_belong_to_the_round_they_ended_in():
    marks = [0.0, 1.0, 2.0, 3.0]
    ends = [0.5, 1.0, 1.6, 2.99, 3.0, 3.2]  # the last two ended after the window
    assert split_rounds(ends, marks) == [[0], [1, 2], [3]]


def test_round_values_are_per_round_median_rate_and_cpu():
    # Two one-second rounds; the middle round boundary saw 0.4 CPU-seconds.
    marks = [(0.0, 0.0), (1.0, 0.4), (2.0, 0.5)]
    latencies = [100.0, 200.0, 300.0, 400.0]
    ends = [0.1, 0.3, 0.6, 1.5]
    rounds = round_values(latencies, ends, marks)
    assert rounds["op_ms"] == [200.0, 400.0]
    assert rounds["ops_s"] == pytest.approx([3.0, 1.0])
    assert rounds["cpu_ms"] == pytest.approx([400.0 / 3, 100.0])


def test_an_op_across_a_boundary_counts_in_both_rounds_by_its_share():
    # One 1000 ms op from 0.75 to 1.75: a quarter in round one, the rest in round two.
    rounds = round_values([1000.0], [1.75], [(0.0, 0.0), (1.0, 0.1), (2.0, 0.4)])
    assert rounds["op_ms"] == [1000.0]  # it ended in round two
    assert rounds["ops_s"] == pytest.approx([0.25, 0.75])
    assert rounds["cpu_ms"] == pytest.approx([400.0, 400.0])


def test_a_round_without_ops_has_zero_rate_and_no_latency():
    rounds = round_values([5.0], [1.5], [(0.0, 0.0), (1.0, 0.1), (2.0, 0.2)])
    assert rounds["op_ms"] == [5.0]
    assert rounds["ops_s"] == pytest.approx([0.0, 1.0])
    assert rounds["cpu_ms"] == pytest.approx([100.0])


def test_output_checks_are_taken_out_of_the_round_they_fall_into():
    # Two one-second rounds of 100 ms ops; 0.5 s (0.2 CPU-seconds) of checking
    # from 0.75 to 1.25 lies half in each.
    marks = [(0.0, 0.0), (1.0, 0.6), (2.0, 1.2)]
    ends = [0.1 * k for k in range(1, 8)] + [1.25 + 0.1 * k for k in range(1, 8)]
    rounds = round_values([100.0] * 14, ends, marks, pauses=[(0.75, 1.25, 0.2)])
    assert rounds["ops_s"] == pytest.approx([7 / 0.75, 7 / 0.75])
    assert rounds["cpu_ms"] == pytest.approx([500.0 / 7, 500.0 / 7])
    assert rounds["op_ms"] == [100.0, 100.0]


def test_self_time_is_span_minus_direct_children():
    spans = [
        (0, "op", 0.0, 10.0, None, 1),
        (1, "frontend.record", 0.0, 2.0, 0, 1),
        (2, "flush", 2.0, 9.0, 0, 1),
        (3, "backend.execute", 3.0, 8.0, 2, 1),
    ]
    assert self_times(spans) == {0: 1.0, 1: 2.0, 2: 2.0, 3: 5.0}


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((11.5 - 8.5) / 10.0)


def test_names_units_and_counts_fit_the_contract():
    names = list(spec.WORKLOAD_NAMES) + list(spec.END_TO_END_NAMES) + list(spec.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec.END_TO_END + tuple(spec.PER_LAYER))
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why for _, why in spec.WORKLOADS)
    assert all(0 < metric["bound"] <= 0.25 for metric in spec.END_TO_END)
    assert "setup_s" in spec.END_TO_END_NAMES
    assert all(metric["moves"] for metric in spec.PER_LAYER)


def test_cold_program_generation_is_deterministic():
    from repro.runtime.plan import canonical_program_key

    def keys(seed):
        return [canonical_program_key(item.program)[0] for item in generate_cold_programs(seed, SMOKE)]

    first = keys(11)
    assert first == keys(11)
    assert first != keys(12)
    assert len(set(first)) == SMOKE.programs  # structurally distinct


def test_jacobi_reference_keeps_the_hot_edges():
    grid = jacobi_reference(10, 3)
    assert (grid[0] == 100.0).all() and (grid[-1] == 100.0).all()
    # Heat travels one row per iteration: row 1 is warm, row 4 still cold.
    assert 0.0 < grid[1, 4] < 100.0
    assert grid[4, 4] == 0.0


def _smoke(*extra):
    return subprocess.Popen(
        [sys.executable, RUN, "--smoke", *extra], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )


def test_smoke_runs_every_workload_and_prints_the_named_metrics():
    # Started together: nothing here asserts on a time.
    untraced = {name: _smoke("--workload", name) for name in spec.WORKLOAD_NAMES}
    traced = _smoke("--workload", "flush_storm_small", "--trace", "1")
    for name, process in untraced.items():
        stdout, _ = process.communicate(timeout=170)
        assert process.returncode == 0, name
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(spec.END_TO_END_NAMES)
        for metric in spec.END_TO_END:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert result["metrics"][metric["name"]]["value"] > 0
            assert f"{metric['name']} " in stdout  # printed by name, with its unit
    stdout, _ = traced.communicate(timeout=170)
    assert traced.returncode == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(spec.PER_LAYER_NAMES)
    # The op's children (record, flush, read) account for the op.
    assert result["metrics"]["trace.op_self_share"]["value"] < 0.05
    assert result["metrics"]["plan.hit_ratio"]["value"] > 0.9


def test_exits_nonzero_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))  # fmt: skip
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "stencil_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
