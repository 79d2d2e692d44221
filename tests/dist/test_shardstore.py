"""The shared-memory shard store: segments, recycling, budget, manifests, sweeping."""

from __future__ import annotations

import _posixshmem
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.dist import shardstore
from repro.dist.shardstore import (
    SEGMENT_PREFIX,
    ShardStore,
    attach_segment,
    create_segment,
    sweep_manifests,
    unlink_segment,
)
from repro.utils.errors import DistributedExecutionError

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The shared-memory budget the tests create segments under.
BUDGET = 1 << 20


@pytest.fixture
def store(tmp_path):
    store = ShardStore(directory=tmp_path)
    yield store
    store.close()


def _segment_exists(name: str) -> bool:
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, 0o600)
    except FileNotFoundError:
        return False
    os.close(fd)
    return True


def _python(script: str, *args, **env):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC, **env),
        timeout=120,
    )


def _dead_pid() -> int:
    done = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return int(done.stdout)


class TestLifecycle:
    def test_create_returns_writable_buffer(self, store):
        name, buffer = store.create(256, BUDGET)
        assert buffer.nbytes >= 256
        buffer[:256] = 7
        # Another attachment observes the same bytes: it really is shared.
        other = attach_segment(name)
        assert other[:256] == b"\x07" * 256
        other.close()

    def test_created_names_carry_the_psm_prefix(self, store):
        names = [store.create(1 << shift, BUDGET)[0] for shift in (6, 12, 16)]
        assert all(name.startswith(SEGMENT_PREFIX) for name in names), names
        assert SEGMENT_PREFIX == "psm_"

    def test_a_taken_name_is_drawn_again(self, store, monkeypatch):
        taken, mapping = create_segment(64)
        try:
            mapping[:3] = b"old"
            draws = iter([taken, taken, SEGMENT_PREFIX + "0fresh00"])
            monkeypatch.setattr(shardstore, "_segment_name", lambda: next(draws))
            name, buffer = store.create(64, BUDGET)
            assert name == SEGMENT_PREFIX + "0fresh00"
            buffer[:3] = 1
            # O_EXCL: the existing segment was neither reused nor truncated.
            assert attach_segment(taken)[:3] == b"old"
        finally:
            unlink_segment(taken)

    def test_release_parks_and_create_recycles(self, store):
        name, _ = store.create(256, BUDGET)
        store.release(name)
        again, _ = store.create(256, BUDGET)
        assert again == name
        assert store.segments_created == 1
        assert store.segments_recycled == 1

    def test_different_size_classes_do_not_recycle(self, store):
        name, _ = store.create(256, BUDGET)
        store.release(name)
        other, _ = store.create(1 << 16, BUDGET)
        assert other != name

    def test_stats_shape(self, store):
        store.create(256, BUDGET)
        stats = store.stats()
        assert stats["dist_segments_created"] == 1
        assert stats["dist_segments_active"] == 1
        assert stats["dist_shm_bytes_active"] >= 256
        assert stats["dist_shm_bytes_parked"] == 0

    def test_close_unlinks_everything(self, tmp_path):
        store = ShardStore(directory=tmp_path)
        active, _ = store.create(256, BUDGET)
        parked, _ = store.create(1 << 14, BUDGET)
        store.release(parked)
        store.close()
        assert not _segment_exists(active)
        assert not _segment_exists(parked)

    def test_create_after_close_raises(self, store):
        store.close()
        with pytest.raises(DistributedExecutionError, match="closed"):
            store.create(64, BUDGET)

    def test_close_with_a_live_view_is_silent(self):
        """The view keeps the mapping until it dies at interpreter shutdown."""
        done = _python(
            """
            import sys, tempfile
            from pathlib import Path
            from repro.dist.shardstore import ShardStore
            store = ShardStore(directory=Path(tempfile.mkdtemp()))
            name, buffer = store.create(256, 1 << 20)
            view = buffer[:64].view("float64")
            view[:] = 1.5
            store.close()
            assert view.sum() == 12.0
            print(name)
            """,
            PYTHONDEVMODE="1",
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert not _segment_exists(done.stdout.strip())


class TestBudget:
    def test_budget_exhaustion_raises_cleanly(self, tmp_path):
        store = ShardStore(directory=tmp_path)
        try:
            store.create(1 << 10, 1 << 12)
            with pytest.raises(DistributedExecutionError, match="budget"):
                store.create(1 << 12, 1 << 12)
        finally:
            store.close()

    def test_parked_segments_are_evicted_for_fresh_ones(self, tmp_path):
        store = ShardStore(directory=tmp_path)
        try:
            parked, _ = store.create(1 << 11, 1 << 12)
            store.release(parked)
            # A differently-sized request cannot recycle the parked segment
            # and the budget cannot hold both: the parked one must go.
            fresh, _ = store.create((1 << 12) - 2, 1 << 12)
            assert fresh != parked
            assert not _segment_exists(parked)
        finally:
            store.close()


class TestManifest:
    def test_manifest_tracks_live_segments(self, store, tmp_path):
        name, _ = store.create(256, BUDGET)
        manifest = json.loads((tmp_path / f"{os.getpid()}.json").read_text())
        assert manifest["pid"] == os.getpid()
        assert name in manifest["segments"]

    def test_sweep_leaves_live_owners_alone(self, store, tmp_path):
        name, _ = store.create(256, BUDGET)
        assert sweep_manifests(tmp_path) == []
        assert _segment_exists(name)

    def test_sweep_reclaims_after_owner_crash(self, tmp_path):
        """A master that dies without cleanup must not leak /dev/shm entries."""
        result = _python(
            """
            import os, sys
            from pathlib import Path
            from repro.dist.shardstore import ShardStore
            store = ShardStore(directory=Path(sys.argv[1]))
            name, _ = store.create(4096, 1 << 20)
            print(name, flush=True)
            os._exit(9)  # die like a crash: no atexit, no close, manifest left behind
            """,
            tmp_path,
        )
        leaked = result.stdout.strip().split()[-1]
        assert _segment_exists(leaked), "subprocess did not actually leak"
        swept = sweep_manifests(tmp_path)
        assert leaked in swept
        assert not _segment_exists(leaked)
        assert list(tmp_path.glob("*.json")) == []

    def test_sweep_unlinks_by_name_without_mapping(self, tmp_path, monkeypatch):
        names = [create_segment(4096)[0] for _ in range(2)]
        gone = SEGMENT_PREFIX + "00000000"
        unlink_segment(gone)
        (tmp_path / "1.json").write_text(
            json.dumps({"pid": _dead_pid(), "segments": names + [gone]})
        )

        def refuse(*args):
            raise AssertionError("sweep mapped a dead owner's segment")

        monkeypatch.setattr(shardstore, "attach_segment", refuse)
        monkeypatch.setattr(shardstore.mmap, "mmap", refuse)
        assert sweep_manifests(tmp_path) == names
        assert not any(_segment_exists(name) for name in names)


class TestAttachment:
    def test_attach_does_not_adopt_unlink_responsibility(self, store):
        name, buffer = store.create(128, BUDGET)
        buffer[:4] = 42
        mapping = attach_segment(name)
        mapping.close()
        # Closing an attachment must not unlink the master's segment.
        assert _segment_exists(name)

    @pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(9)"])
    def test_an_attached_process_exit_leaves_the_segment(self, store, exit_call):
        """A worker's clean exit and its crash alike: the segment stays, with its bytes."""
        name, buffer = store.create(128, BUDGET)
        done = _python(
            f"""
            import os, sys
            import numpy as np
            from repro.dist.shardstore import attach_segment
            buffer = np.frombuffer(attach_segment(sys.argv[1]), dtype=np.uint8)
            buffer[:4] = 42
            {exit_call}
            """,
            name,
            PYTHONDEVMODE="1",
        )
        assert done.returncode == (0 if exit_call.startswith("sys") else 9), done.stderr
        assert done.stderr == ""
        assert _segment_exists(name)
        assert list(buffer[:4]) == [42] * 4
        assert name in store.active_segments()


def test_a_pools_whole_lifetime_is_silent_under_dev_mode(tmp_path):
    """Spawn, flushes, crash-free exit: no tracker KeyError, no ResourceWarning."""
    script = tmp_path / "pool_lifetime.py"
    # A file with a main guard: spawned workers re-import it.
    script.write_text(
        textwrap.dedent(
            """
            import os
            from repro.frontend.session import Session
            from repro.utils.config import config_override
            from repro.workloads import heat_equation, monte_carlo_pi

            def main():
                with config_override(dist_num_workers=2, parallel_tile_elements=64,
                                     parallel_serial_threshold=4):
                    session = Session(backend="dist")
                    for _ in range(3):
                        heat_equation(grid_size=32, iterations=2, session=session).to_numpy()
                    monte_carlo_pi(4096, session=session).to_numpy()
                    stats = session.cache_stats()
                    assert stats["dist_segments_created"] > 0, stats
                print("ok")

            if __name__ == "__main__":
                main()
            """
        )
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC, PYTHONDEVMODE="1"),
        timeout=120,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
    assert done.stderr == ""
