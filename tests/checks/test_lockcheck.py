"""Tests for the lock-hierarchy lint (`tests/lockcheck.py`)."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

from tests import lockcheck
from tests.lockcheck import main, run_lockcheck

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestRealTree:
    def test_package_tree_is_clean(self):
        """The shipped code obeys the documented hierarchy — the lint's
        primary acceptance property."""
        report = run_lockcheck()
        assert report.ok, report.summary()
        assert report.files_scanned > 50
        assert report.ranked_acquisitions > 20, (
            "the lint barely recognised any locks; the tables drifted from "
            "the code and a clean report proves nothing"
        )

    def test_concurrent_prepare_plan_is_in_the_lint_s_sight(self):
        """The plan lock is held while pool threads resolve kernel forms;
        the lint must follow those thunks into the locks they take (the
        backend cache lock and the codegen latch — never anything ranked
        above the plan lock)."""
        import ast

        from tests.lockcheck import LockCheckReport, _FileAnalyzer
        import repro.runtime.native as native

        analyzer = _FileAnalyzer(native.__file__, LockCheckReport())
        with open(native.__file__, encoding="utf-8") as handle:
            analyzer.analyze(ast.parse(handle.read()))
        under_plan_lock = {
            call.ref
            for class_name, call in analyzer.deferred
            if class_name == "NativeBackend" and ("plan", 2) in call.held
        }
        assert ("self", "_native_launch") in under_plan_lock
        assert ("self", "_scatter") in under_plan_lock
        # ...and what those thunks take is ranked: the launch cache's LRU
        # leaf, and through ``_count`` the backend cache lock (counters),
        # both below the plan lock.
        resolver = analyzer.summaries[("NativeBackend", "_cached_launch")]
        assert ("lru", 3) in resolver.acquires
        # The outcome those thunks park on the plan is added under the
        # backend cache lock, by the one method that counts anything.
        counter = analyzer.summaries[("NativeBackend", "_count")]
        assert counter.acquires == {("backend-cache", 2)}
        assert ("self", "_count") in resolver.calls

    def test_cli_exits_zero_on_the_real_tree(self):
        assert main([]) == 0


    def test_a_dist_flush_holds_the_pool_s_flush_lock(self):
        """One flush at a time per worker pool: the lock is taken in
        ``DistributedBackend._run``, around binding and every round trip."""
        import ast

        from tests.lockcheck import LockCheckReport, _FileAnalyzer
        import repro.dist.backend as dist_backend

        analyzer = _FileAnalyzer(dist_backend.__file__, LockCheckReport())
        with open(dist_backend.__file__, encoding="utf-8") as handle:
            analyzer.analyze(ast.parse(handle.read()))
        runner = analyzer.summaries[("DistributedBackend", "_run")]
        assert ("dist-flush", 1) in runner.acquires
        under_flush_lock = {
            call.ref
            for class_name, call in analyzer.deferred
            if class_name == "DistributedBackend" and ("dist-flush", 1) in call.held
        }
        assert ("self", "_run_sharded") in under_flush_lock


class TestFixtures:
    def test_upward_edge_detected(self):
        report = run_lockcheck([_fixture("upward_edge.py")])
        assert not report.ok
        assert any(v.kind == "upward-edge" for v in report.violations)
        assert any("rank 2" in str(v) and "rank 3" in str(v) for v in report.violations)

    def test_flush_lock_under_the_locks_it_ranks_above_detected(self):
        report = run_lockcheck([_fixture("flush_lock_under_cache_lock.py")])
        upward = [str(v) for v in report.violations if v.kind == "upward-edge"]
        assert len(upward) == 2, report.summary()
        assert any("'backend-cache'" in v and "'dist-flush'" in v for v in upward)
        assert any("'shard-store'" in v and "'dist-flush'" in v for v in upward)

    def test_allocation_under_leaf_lock_detected(self):
        report = run_lockcheck([_fixture("alloc_under_leaf.py")])
        assert not report.ok
        assert any(v.kind == "forbidden-call" for v in report.violations)
        assert any("'empty'" in str(v) for v in report.violations)

    def test_interprocedural_edge_detected(self):
        report = run_lockcheck([_fixture("interprocedural_edge.py")])
        assert not report.ok
        assert any(
            v.kind == "upward-edge" and "_refill" in v.message
            for v in report.violations
        )

    def test_edge_through_a_thunk_handed_to_a_pool_detected(self):
        # The shape of NativeBackend.prepare_plan: resolvers are wrapped in
        # functools.partial and scattered while the caller holds a lock.
        report = run_lockcheck([_fixture("thunk_under_lock.py")])
        assert not report.ok
        assert any(
            v.kind == "upward-edge" and "_resolve" in v.message
            for v in report.violations
        )

    def test_clean_nesting_passes(self):
        report = run_lockcheck([_fixture("clean_nesting.py")])
        assert report.ok, report.summary()
        assert report.ranked_acquisitions >= 3
        assert report.nesting_edges >= 1  # the downward 3-under-2 nest

    def test_violations_carry_file_and_line(self):
        report = run_lockcheck([_fixture("upward_edge.py")])
        violation = report.violations[0]
        assert violation.file.endswith("upward_edge.py")
        assert violation.line > 0


class TestCli:
    def test_main_exits_nonzero_on_violation(self, capsys):
        assert main([_fixture("upward_edge.py")]) == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "upward-edge" in out

    def test_module_entry_point(self):
        """`python tests/lockcheck.py <fixture>` exits non-zero — the exact
        invocation CI uses."""
        completed = subprocess.run(
            [sys.executable, lockcheck.__file__, _fixture("upward_edge.py")],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1
        assert "upward-edge" in completed.stdout

    def test_parse_error_is_a_violation(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        report = run_lockcheck([str(bad)])
        assert not report.ok
        assert report.violations[0].kind == "parse-error"
