"""Design invariants that are cheaper to grep for than to rediscover.

Each row names a pattern, where it may appear, and the sentence saying
why.  They used to be shell ``grep`` steps of the CI's static-analysis
job, where nothing ran them locally; here they are part of tier-1.  Every
row is also run against a temporary copy of the tree with an offending
line planted in it, so a guard that can no longer fire fails too.
"""

from __future__ import annotations

import ast
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "src/repro/utils/config.py"
MAX_CONFIG_FIELDS = 16


@dataclass(frozen=True)
class Guard:
    name: str
    #: Regular expression, searched line by line.
    pattern: str
    #: Directories (scanned for ``*.py``) or files, relative to the root.
    scope: tuple
    #: A line matching ``pattern``, planted by the negative check.
    sample: str
    why: str
    #: File -> the most matching lines it may hold (``None``: any number).
    #: Every other file in scope may hold none.
    allowed: Dict[str, Optional[int]] = field(default_factory=dict)
    #: The allowed files must each still match: the row says where it lives.
    lives_there: bool = False


GUARDS = (
    Guard(
        "one_bounded_lru",
        r"OrderedDict",
        ("src/repro",),
        "from collections import OrderedDict",
        "every bounded cache is a repro.utils.lru.BoundedLRU; dist/worker.py keeps "
        "its attachment table, whose eviction skips the segments the current map names",
        {"src/repro/dist/worker.py": None, "src/repro/utils/lru.py": None},
        lives_there=True,
    ),
    Guard(
        "one_definition_of_a_launch",
        r"kernel_launches \+= 1",
        ("src/repro",),
        "stats.kernel_launches += 1",
        "launch accounting is ExecutionStats.record_launch and nothing else",
        {"src/repro/runtime/instrumentation.py": None},
        lives_there=True,
    ),
    Guard(
        "no_thread_local_stats_windows",
        r"_account_traffic|threading\.local",
        ("src/repro/runtime", "src/repro/dist"),
        "_window = threading.local()",
        "per-flush counters live on the flush's own record, never in a thread-local window",
    ),
    Guard(
        "numpy_is_the_only_dependency",
        r"scipy",
        ("src/repro",),
        "from scipy.special import erf",
        "setup.py declares numpy only; BH_ERF is the host libm's erf on every tier",
    ),
    Guard(
        "dist_binds_the_memory_plan",
        r"apply_plan\(None\)",
        ("src/repro/dist",),
        "memory.apply_plan(None)",
        "dist binds the memory plan like every other backend: it never clears it",
    ),
    Guard(
        "one_zero_fill",
        r"fill\(0\)",
        ("src/repro/dist/backend.py",),
        "typed.fill(0)",
        "the only zero fill is MemoryManager.allocate's: fill waivers exist once",
        {"src/repro/dist/backend.py": 1},
    ),
    Guard(
        "one_compute_then_cast_branch",
        r"np\.copyto\(out, func\(",
        ("src/repro/runtime/kernel.py",),
        "np.copyto(out, func(*args))",
        "a kernel template has one step form and one compute-then-cast branch",
        {"src/repro/runtime/kernel.py": 1},
    ),
    Guard(
        "no_worker_side_scratch",
        r"_private_views|private_scratch|run_fallback",
        ("src",),
        "self.private_scratch = {}",
        "scratch for kernel-local slots belongs to the blocked template launch, "
        "on the thread tier and in a dist worker alike",
    ),
    Guard(
        "a_slot_leaves_the_plan_in_two_places",
        r"_slots\.pop\(",
        ("src/repro",),
        "owned = memory._slots.pop(key)",
        "a slot's buffer leaves the plan's table idle (clear_plan) or to its "
        "final occupant (allocate); anything else double-owns it",
        {"src/repro/runtime/memory.py": 2},
        lives_there=True,
    ),
    Guard(
        "one_ownership_transfer",
        r"_dedicated\[.+\] = .*_slots\.pop\(",
        ("src/repro",),
        "self._dedicated[key] = self._slots.pop(slot_key)",
        "a slot's buffer becomes an observable base's own in "
        "MemoryManager.allocate and nowhere else",
        {"src/repro/runtime/memory.py": 1},
        lives_there=True,
    ),
    Guard(
        "one_tiled_reduce_body",
        r"\.reduce\(",
        ("src/repro",),
        "partial = np.add.reduce(span)",
        "every tiled tier's reduce body, with or without a producer, is "
        "tiling.reduce_tile (thread tile and dist shard alike); the interpreter "
        "reduces whole arrays and loopir only probes the accumulator dtype",
        {
            "src/repro/runtime/tiling.py": None,
            "src/repro/runtime/interpreter.py": 1,
            "src/repro/codegen/loopir.py": 1,
        },
        lives_there=True,
    ),
    Guard(
        "a_unit_declares_what_it_calls",
        r"#include <",
        ("src/repro",),
        "#include <math.h>",
        "generated C parses no header a declaration can replace: only the "
        "runtime's <pthread.h> (ABI-specific types) and the two includes of "
        "_assemble's #else branch for compilers without __INT64_TYPE__",
        {"src/repro/codegen/emit_c.py": 3},
        lives_there=True,
    ),
    Guard(
        "pricing_is_a_report",
        r"repro\.core\.cost import|cost_model",
        ("src/repro",),
        "from repro.core.cost import CostModel",
        "no optimizer, plan or execution decision reads the cost model: the scheduler "
        "and the passes decide by legality and limits; core/__init__.py re-exports it "
        "and the CLI's report prices with it",
        {"src/repro/core/__init__.py": 1, "src/repro/tools/cli.py": 1},
    ),
    Guard(
        "config_read_at_the_boundary",
        r"(?<!def )get_config\(\)",
        ("src/repro",),
        "threads = get_config().parallel_num_threads",
        "a flush reads the live configuration once, where it enters (the engine, a "
        "backend's plan-less execute); everything below gets the resolved snapshot "
        "as an argument, and only constructors default to the live value",
        {
            "src/repro/runtime/engine.py": 3,
            "src/repro/runtime/backend.py": 1,
            "src/repro/runtime/memory.py": 1,
            "src/repro/core/pipeline.py": 2,
        },
        lives_there=True,
    ),
    Guard(
        "shards_read_in_place",
        r"[Hh]alo|CommMeter|COMM_METER",
        ("src/repro",),
        "halos = _halo_specs(instructions, slots)",
        "every worker maps every base that is not private, so a shard reads its "
        "neighbours' rows where they lie; only the two ExecutionStats fields "
        "bench/layers.py reads stay declared, always 0",
        {"src/repro/runtime/instrumentation.py": 2},
        lives_there=True,
    ),
    Guard(
        "workers_keep_no_configuration",
        r"set_config",
        ("src/repro/dist",),
        "set_config(get_config().replace(codegen_cache_dir=directory))",
        "what a worker needs of the master's configuration travels in the load "
        "frame and stays with the loaded plan",
    ),
)


def violations(guard: Guard, root: Path) -> List[str]:
    pattern = re.compile(guard.pattern)
    counts: Dict[str, int] = {}
    for entry in guard.scope:
        path = root / entry
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            lines = source.read_text(encoding="utf-8").splitlines()
            counts[source.relative_to(root).as_posix()] = sum(
                1 for line in lines if pattern.search(line)
            )
    found = []
    for name, count in counts.items():
        limit = guard.allowed.get(name, 0)
        if limit is not None and count > limit:
            found.append(f"{name}: {count} line(s) match /{guard.pattern}/, at most {limit} may")
    if guard.lives_there:
        found += [
            f"{name}: no line matches /{guard.pattern}/ any more — move the row with the code"
            for name in guard.allowed
            if not counts.get(name)
        ]
    return found


def _copy_of_scope(guard: Guard, destination: Path) -> Path:
    for entry in guard.scope:
        source, target = ROOT / entry, destination / entry
        target.parent.mkdir(parents=True, exist_ok=True)
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, target)
    return destination


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_the_tree_keeps_the_invariant(guard):
    found = violations(guard, ROOT)
    assert not found, f"{guard.why}:\n" + "\n".join(found)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_the_guard_still_fires(guard, tmp_path):
    root = _copy_of_scope(guard, tmp_path)
    assert not violations(guard, root), "the copy itself must be clean"
    first = root / guard.scope[0]
    if first.is_dir():
        (first / "_planted.py").write_text(guard.sample + "\n", encoding="utf-8")
    else:
        cap = guard.allowed[guard.scope[0]]
        with first.open("a", encoding="utf-8") as handle:
            handle.write((guard.sample + "\n") * (cap + 1))
    assert violations(guard, root), f"/{guard.pattern}/ no longer sees {guard.sample!r}"
    if guard.lives_there:
        root = _copy_of_scope(guard, tmp_path / "moved")
        for name in guard.allowed:
            (root / name).write_text("", encoding="utf-8")
        assert len(violations(guard, root)) == len(guard.allowed)


def _config_fields(source: str) -> int:
    (config,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "Config"
    ]
    return sum(isinstance(node, ast.AnnAssign) for node in config.body)


def test_config_only_shrinks():
    """Each knob doubles the configurations tests and benchmarks must cover."""
    import dataclasses

    from repro.utils.config import Config

    source = (ROOT / CONFIG).read_text(encoding="utf-8")
    assert _config_fields(source) == len(dataclasses.fields(Config)) <= MAX_CONFIG_FIELDS
    # The count sees a new knob: one more annotated field in a copy.
    marker = "class Config:"
    assert source.count(marker) == 1
    grown = source.replace(marker, marker + "\n    one_more_knob: int = 0", 1)
    assert _config_fields(grown) == _config_fields(source) + 1
