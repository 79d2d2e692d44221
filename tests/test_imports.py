"""What a process imports: each row runs in a fresh interpreter.

* A master loads the backend it resolved and no other: after a session on
  ``interpreter``, ``parallel`` or ``native`` and one ``monte_carlo_pi``
  and one ``black_scholes`` flush, nothing of the distributed tier is
  loaded, on any backend no ``scipy`` (``BH_ERF`` is the host libm's), and
  the flushes still equal the unoptimized interpreter's bits.
* A dist worker imports what it executes: ``import repro.dist.worker`` —
  the import ``spawn`` performs — loads the repro modules a shard runs and
  nothing of the optimizer, the other backends, the emitter or hashing.
* After a real heat flush no worker has OpenSSL's ``libcrypto`` mapped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script: str, tmp_path) -> dict:
    """Run ``script`` (which prints one JSON line last) as a file with a main guard."""
    path = tmp_path / "probe.py"
    # A file, not ``-c``: spawned dist workers re-import the main module.
    path.write_text(textwrap.dedent(script))
    done = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# (a) A master imports the backend it resolved
# --------------------------------------------------------------------------- #

_MASTER = """
import json, sys
import numpy as np
from repro.frontend.session import Session
from repro.runtime.backend import available_backends
from repro.utils.config import config_override
from repro.workloads import black_scholes, monte_carlo_pi

def flushes(session):
    return [monte_carlo_pi(20_000, session=session).to_numpy(),
            black_scholes(20_000, session=session).to_numpy()]

def main():
    with config_override(dist_num_workers=2):
        before = set(sys.modules)
        assert available_backends() == ("dist", "interpreter", "jit", "native", "parallel")
        values = flushes(Session(backend={backend!r}))
        added = sorted(set(sys.modules) - before)
        reference = flushes(Session(backend="interpreter", optimize=False))
    same = all(np.array_equal(a, b, equal_nan=True) for a, b in zip(values, reference))
    print(json.dumps({{"added": added, "same_bits": same}}))

if __name__ == "__main__":
    main()
"""


def _denied(added, *prefixes):
    return [
        name
        for name in added
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


@pytest.mark.parametrize("backend", ["interpreter", "parallel", "native", "dist"])
def test_a_master_imports_the_backend_it_resolved(backend, tmp_path):
    report = _run(_MASTER.format(backend=backend), tmp_path)
    added = report["added"]
    assert _denied(added, "scipy") == []
    if backend == "dist":
        assert "repro.dist.backend" in added
    else:
        assert _denied(added, "repro.dist", "multiprocessing.shared_memory") == []
    assert report["same_bits"]


# --------------------------------------------------------------------------- #
# (b) A worker imports what it executes
# --------------------------------------------------------------------------- #

#: Everything ``import repro.dist.worker`` may load of this package.
WORKER_REPRO_MODULES = frozenset(
    {
        "repro",
        "repro._exports",
        "repro.bytecode",
        "repro.bytecode.base",
        "repro.bytecode.dtypes",
        "repro.bytecode.instruction",
        "repro.bytecode.opcodes",
        "repro.bytecode.operand",
        "repro.bytecode.program",
        "repro.bytecode.view",
        "repro.codegen",
        "repro.codegen.compiler",
        "repro.dist",
        "repro.dist.planner",
        "repro.dist.protocol",
        "repro.dist.shardstore",
        "repro.dist.worker",
        "repro.runtime",
        "repro.runtime.backend",
        "repro.runtime.instrumentation",
        "repro.runtime.interpreter",
        "repro.runtime.kernel",
        "repro.runtime.memory",
        "repro.runtime.plan",
        "repro.runtime.tiling",
        "repro.utils",
        "repro.utils.config",
        "repro.utils.errors",
        "repro.utils.locking",
        "repro.utils.lru",
    }
)

#: What a worker must not load, each named for the message.
WORKER_DENIED = (
    "repro.core",
    "repro.linalg",
    "repro.runtime.engine",
    "repro.runtime.parallel",
    "repro.runtime.native",
    "repro.runtime.jit",
    "repro.runtime.memplan",
    "repro.dist.backend",
    "repro.codegen.emit_c",
    "repro.codegen.loopir",
    "repro.codegen.cache",
    "hashlib",
    "_hashlib",
    "secrets",
    "multiprocessing.shared_memory",
)

_WORKER = """
import json, sys
import numpy  # not ours: what numpy loads is outside this check

def main():
    before = set(sys.modules)
    import repro.dist.worker
    print(json.dumps({"added": sorted(set(sys.modules) - before)}))

if __name__ == "__main__":
    main()
"""


def test_a_worker_imports_what_it_executes(tmp_path):
    added = _run(_WORKER, tmp_path)["added"]
    assert _denied(added, *WORKER_DENIED) == []
    ours = {name for name in added if name == "repro" or name.startswith("repro.")}
    assert ours <= WORKER_REPRO_MODULES, sorted(ours - WORKER_REPRO_MODULES)
    assert len(ours) <= 30


# --------------------------------------------------------------------------- #
# (c) No worker maps libcrypto
# --------------------------------------------------------------------------- #

_HEAT = """
import json, multiprocessing
from repro.frontend.session import Session
from repro.utils.config import config_override
from repro.workloads import heat_equation

def main():
    with config_override(dist_num_workers=2):
        session = Session(backend="dist")
        heat_equation(256, 4, session=session).to_numpy()
        assert session.stats_history[-1].dist_shard_launches > 0
        maps = {}
        for child in multiprocessing.active_children():
            with open(f"/proc/{child.pid}/maps") as handle:
                maps[child.pid] = sorted({line.split()[-1] for line in handle if "/" in line})
    print(json.dumps({"maps": maps}))

if __name__ == "__main__":
    main()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps")
def test_no_worker_maps_libcrypto(tmp_path):
    numpy_alone = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('_hashlib' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if numpy_alone.stdout.strip() == "True":
        pytest.skip("this numpy loads libcrypto itself")
    maps = _run(_HEAT, tmp_path)["maps"]
    assert len(maps) == 2, maps
    for pid, files in maps.items():
        assert not [path for path in files if "libcrypto" in path], (pid, files)
