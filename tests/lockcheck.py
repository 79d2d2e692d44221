"""AST lint enforcing the documented lock hierarchy (architecture.md §9).

The multi-tenant service stays deadlock-free because every thread acquires
locks strictly *downward* through one hierarchy:

====  =======================================  ==============================
rank  lock                                     where
====  =======================================  ==============================
0     admission condition variable             ``AdmissionController._cond``
1     engine in-flight latch                   ``ExecutionEngine._inflight_lock``
1     dist flush lock (one flush per pool)     ``WorkerPool.flush_lock``
2     plan lock                                ``ExecutionPlan.lock``
2     backend cache lock                       ``*._cache_lock``
2     engine backend-resolution lock           ``ExecutionEngine._backend_lock``
2     shard-store segment table                ``ShardStore._segments_lock``
3     LRU lock (leaf; every cache instance)    ``BoundedLRU._lock``
3     buffer-pool lock (leaf)                  ``BufferPool._lock``
3     codegen module lock + digest latch       ``repro.codegen.cache._lock``
====  =======================================  ==============================

This module machine-checks that discipline instead of trusting prose.  It
lives with the tests because no runtime path needs it.  It
parses every file under ``src/repro``, extracts the static lock-acquisition
nesting graph (``with`` statements over recognised lock expressions,
``.acquire()`` calls, plus one level of interprocedural summary
propagation for same-class/same-module calls — including methods handed to
another call as a thunk, such as the tasks a backend gives its tile pool),
and reports:

* **upward edges** — acquiring a lock of *smaller* rank while holding a
  larger one (sibling, equal-rank nesting is allowed; the hierarchy only
  forbids pointing back up);
* **forbidden work under a leaf lock** — leaf locks are held for dict
  surgery only, never across a host allocation (``np.empty``), a compiler
  invocation, disk IO or a sleep.

Unrecognised locks (``threading.Lock`` instances outside the table) are
recorded but unranked: they produce no edges and no violations, so the
lint cannot false-positive on helper locks like
:class:`~repro.utils.locking.SingleOwner`'s internal mutex.

Runnable as ``python tests/lockcheck.py [paths...]`` (exit status 1 on
violations) and as a pytest via :func:`run_lockcheck`.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["LockCheckReport", "Violation", "run_lockcheck", "main"]

#: Leaf rank: locks at this rank may protect dict surgery only.
LEAF_RANK = 3

#: ``self.<attr>`` lock attributes with a class-independent rank.
ATTRIBUTE_RANKS: Dict[str, Tuple[str, int]] = {
    "_cond": ("admission", 0),
    "_inflight_lock": ("engine-latch", 1),
    "_backend_lock": ("engine-backend", 2),
    "_cache_lock": ("backend-cache", 2),
    "_segments_lock": ("shard-store", 2),
}

#: ``<anything>.<attr>`` locks reached through another object: the
#: shared-plan mutation lock every ExecutionPlan carries, and the worker
#: pool's flush lock (held across a whole distributed flush, so the cache
#: lock and the shard store are only ever taken *under* it).
OBJECT_LOCK_RANKS: Dict[str, Tuple[str, int]] = {
    "lock": ("plan", 2),
    "flush_lock": ("dist-flush", 1),
}

#: ``self._lock`` is rank-ambiguous: the class decides.
CLASS_LOCK_RANKS: Dict[str, Tuple[str, int]] = {
    "BoundedLRU": ("lru", LEAF_RANK),
    "PlanCache": ("lru", LEAF_RANK),  # BoundedLRU subclass, same lock
    "BufferPool": ("buffer-pool", LEAF_RANK),
}

#: Cross-module calls whose lock footprint the summaries cannot see.
KNOWN_CALL_RANKS: Dict[str, Tuple[str, int]] = {
    # self.<cache>.get/put/peek/setdefault/... on a BoundedLRU instance ->
    # its leaf lock
    "plan_cache": ("lru", LEAF_RANK),
    "_adhoc_plans": ("lru", LEAF_RANK),
    "_native_cache": ("lru", LEAF_RANK),
    "_templates": ("lru", LEAF_RANK),
    # template lookup through the LRU the caller passes in
    "cached_kernel_launch": ("lru", LEAF_RANK),
    # codegen artifact lookup -> module lock + per-digest latch
    "get_compiled_kernel": ("codegen-module", LEAF_RANK),
    "resolve_runtime": ("codegen-module", LEAF_RANK),
}

#: Callee names that must never run under a leaf lock: host allocation,
#: compiler/loader invocation, disk IO, sleeps.
FORBIDDEN_UNDER_LEAF: Set[str] = {
    "empty",
    "zeros",
    "ones",
    "empty_like",
    "zeros_like",
    "ones_like",
    "open",
    "replace",
    "unlink",
    "makedirs",
    "rmtree",
    "CDLL",
    "cdll",
    "sleep",
    "check_call",
    "check_output",
    "Popen",
    "compile_shared_library",
}


@dataclass(frozen=True)
class _Lock:
    kind: str
    rank: Optional[int]  # None = recognised as a lock but unranked


@dataclass
class Violation:
    """One lock-discipline violation."""

    kind: str  # "upward-edge" | "forbidden-call"
    file: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.kind}] {self.message}"


@dataclass
class _FunctionSummary:
    """What one function does lock-wise, for interprocedural propagation."""

    acquires: Set[Tuple[str, int]] = field(default_factory=set)
    forbidden: Set[str] = field(default_factory=set)
    #: Unresolved same-class / same-module call references.
    calls: Set[Tuple[str, str]] = field(default_factory=set)  # ("self"|"module", name)


@dataclass
class _DeferredCall:
    """A call made while holding ranked locks, resolved after summaries."""

    file: str
    line: int
    ref: Tuple[str, str]
    held: Tuple[Tuple[str, int], ...]


@dataclass
class LockCheckReport:
    """The result of one lint run."""

    files_scanned: int = 0
    ranked_acquisitions: int = 0
    nesting_edges: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"lockcheck: {self.files_scanned} file(s), "
            f"{self.ranked_acquisitions} ranked acquisition(s), "
            f"{self.nesting_edges} nesting edge(s), "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(str(violation) for violation in self.violations)
        return "\n".join(lines)


def _classify_lock(expr: ast.expr, class_name: Optional[str]) -> Optional[_Lock]:
    """Recognise a ``with``-context / ``.acquire()`` target as a lock."""
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            attr = expr.attr
            if attr in ATTRIBUTE_RANKS:
                kind, rank = ATTRIBUTE_RANKS[attr]
                return _Lock(kind, rank)
            if attr == "_lock":
                entry = CLASS_LOCK_RANKS.get(class_name or "")
                if entry is not None:
                    return _Lock(entry[0], entry[1])
                return _Lock(f"{class_name or '?'}._lock", None)
        if expr.attr in OBJECT_LOCK_RANKS:
            kind, rank = OBJECT_LOCK_RANKS[expr.attr]
            return _Lock(kind, rank)
        if expr.attr in ("_lock", "_cond"):
            # Some other object's private lock: recognised, unranked.
            return _Lock(f"?.{expr.attr}", None)
    if isinstance(expr, ast.Name) and expr.id == "_lock":
        # The only module-level `_lock` in the tree is the codegen memo lock.
        return _Lock("codegen-module", LEAF_RANK)
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _callable_ref(expr: ast.expr) -> Optional[Tuple[str, str]]:
    """``self.method`` / ``function`` as a summary key, else ``None``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return ("self", expr.attr)
    if isinstance(expr, ast.Name):
        return ("module", expr.id)
    return None


def _known_call_rank(func: ast.expr) -> Optional[_Lock]:
    """Cross-module calls with a known lock footprint (see table above)."""
    name = _call_name(func)
    if name in KNOWN_CALL_RANKS and isinstance(func, ast.Name):
        kind, rank = KNOWN_CALL_RANKS[name]
        return _Lock(kind, rank)
    if isinstance(func, ast.Attribute):
        node = func.value
        while isinstance(node, ast.Attribute):
            if node.attr in KNOWN_CALL_RANKS:
                kind, rank = KNOWN_CALL_RANKS[node.attr]
                return _Lock(kind, rank)
            node = node.value
        if name in KNOWN_CALL_RANKS:
            kind, rank = KNOWN_CALL_RANKS[name]
            return _Lock(kind, rank)
    return None


class _FileAnalyzer:
    """Per-file walk collecting acquisitions, edges and call references."""

    def __init__(self, path: str, report: LockCheckReport) -> None:
        self.path = path
        self.report = report
        self.summaries: Dict[Tuple[Optional[str], str], _FunctionSummary] = {}
        self.deferred: List[Tuple[Optional[str], _DeferredCall]] = []

    def analyze(self, tree: ast.Module) -> None:
        for node in tree.body:
            self._visit_scope(node, class_name=None)

    def _visit_scope(self, node: ast.AST, class_name: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._visit_scope(child, class_name=node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _FunctionSummary()
            self.summaries[(class_name, node.name)] = summary
            for child in node.body:
                self._walk(child, class_name, summary, held=())
            return
        # Module-level code: treat as an anonymous function scope.
        summary = self.summaries.setdefault(
            (class_name, "<module>"), _FunctionSummary()
        )
        self._walk(node, class_name, summary, held=())

    # ------------------------------------------------------------------ #

    def _note_acquisition(
        self,
        lock: _Lock,
        held: Tuple[Tuple[str, int], ...],
        line: int,
        summary: _FunctionSummary,
    ) -> None:
        if lock.rank is None:
            return
        self.report.ranked_acquisitions += 1
        summary.acquires.add((lock.kind, lock.rank))
        for held_kind, held_rank in held:
            self.report.nesting_edges += 1
            if lock.rank < held_rank:
                self.report.violations.append(
                    Violation(
                        kind="upward-edge",
                        file=self.path,
                        line=line,
                        message=(
                            f"acquires {lock.kind!r} (rank {lock.rank}) while "
                            f"holding {held_kind!r} (rank {held_rank}) — the "
                            f"hierarchy only allows downward acquisition"
                        ),
                    )
                )

    def _handle_call(
        self,
        node: ast.Call,
        class_name: Optional[str],
        summary: _FunctionSummary,
        held: Tuple[Tuple[str, int], ...],
    ) -> None:
        func = node.func
        name = _call_name(func)
        # lock.acquire() on a recognised lock expression
        if name == "acquire" and isinstance(func, ast.Attribute):
            lock = _classify_lock(func.value, class_name)
            if lock is not None:
                self._note_acquisition(lock, held, node.lineno, summary)
                return
        known = _known_call_rank(func)
        if known is not None:
            self._note_acquisition(known, held, node.lineno, summary)
        if name in FORBIDDEN_UNDER_LEAF:
            summary.forbidden.add(name)
            leaf = next(
                ((k, r) for k, r in held if r == LEAF_RANK), None
            )
            if leaf is not None:
                self.report.violations.append(
                    Violation(
                        kind="forbidden-call",
                        file=self.path,
                        line=node.lineno,
                        message=(
                            f"calls {name!r} while holding leaf lock "
                            f"{leaf[0]!r} — leaf locks protect dict surgery "
                            f"only, never allocation, compilation or IO"
                        ),
                    )
                )
        # Interprocedural references: self.method() and module-level func().
        # A method or function passed *as an argument* (a functools.partial,
        # a thunk for a worker pool) runs while this thread holds its locks
        # and waits, so it is judged as if it were called here.
        for ref in map(_callable_ref, [func, *node.args]):
            if ref is None:
                continue
            summary.calls.add(ref)
            if held:
                self.deferred.append(
                    (
                        class_name,
                        _DeferredCall(
                            file=self.path,
                            line=node.lineno,
                            ref=ref,
                            held=held,
                        ),
                    )
                )

    def _walk(
        self,
        node: ast.AST,
        class_name: Optional[str],
        summary: _FunctionSummary,
        held: Tuple[Tuple[str, int], ...],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested definition runs later, not under the current locks.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = self.summaries.setdefault(
                    (class_name, node.name), _FunctionSummary()
                )
                for child in node.body:
                    self._walk(child, class_name, inner, held=())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                lock = _classify_lock(item.context_expr, class_name)
                if lock is not None:
                    self._note_acquisition(lock, new_held, node.lineno, summary)
                    if lock.rank is not None:
                        new_held = new_held + ((lock.kind, lock.rank),)
                else:
                    self._walk(item.context_expr, class_name, summary, held)
            for child in node.body:
                self._walk(child, class_name, summary, new_held)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, class_name, summary, held)
        for child in ast.iter_child_nodes(node):
            self._walk(child, class_name, summary, held)


def _resolve_summaries(
    analyzers: Sequence[_FileAnalyzer], report: LockCheckReport
) -> None:
    """Fixpoint-propagate summaries, then judge the deferred calls."""
    for analyzer in analyzers:
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for (class_name, _), summary in analyzer.summaries.items():
                for scope, callee in summary.calls:
                    target = None
                    if scope == "self":
                        target = analyzer.summaries.get((class_name, callee))
                    if target is None:
                        target = analyzer.summaries.get((None, callee))
                    if target is None or target is summary:
                        continue
                    if not (
                        target.acquires <= summary.acquires
                        and target.forbidden <= summary.forbidden
                    ):
                        summary.acquires |= target.acquires
                        summary.forbidden |= target.forbidden
                        changed = True
        for class_name, call in analyzer.deferred:
            scope, callee = call.ref
            target = None
            if scope == "self":
                target = analyzer.summaries.get((class_name, callee))
            if target is None:
                target = analyzer.summaries.get((None, callee))
            if target is None:
                continue
            for kind, rank in sorted(target.acquires):
                for held_kind, held_rank in call.held:
                    if rank < held_rank:
                        report.violations.append(
                            Violation(
                                kind="upward-edge",
                                file=call.file,
                                line=call.line,
                                message=(
                                    f"calls {callee!r} (which acquires "
                                    f"{kind!r}, rank {rank}) while holding "
                                    f"{held_kind!r} (rank {held_rank})"
                                ),
                            )
                        )
            if target.forbidden and any(
                rank == LEAF_RANK for _, rank in call.held
            ):
                names = ", ".join(sorted(target.forbidden))
                report.violations.append(
                    Violation(
                        kind="forbidden-call",
                        file=call.file,
                        line=call.line,
                        message=(
                            f"calls {callee!r} (which reaches {names}) "
                            f"while holding a leaf lock"
                        ),
                    )
                )


def _default_root() -> str:
    """The ``repro`` package directory of this checkout (``src/repro``)."""
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def _python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, _, filenames in os.walk(path):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    files.append(os.path.join(dirpath, filename))
    return files


def run_lockcheck(paths: Optional[Sequence[str]] = None) -> LockCheckReport:
    """Lint ``paths`` (default: this checkout's ``src/repro`` tree)."""
    if not paths:
        paths = [_default_root()]
    report = LockCheckReport()
    analyzers: List[_FileAnalyzer] = []
    for filename in _python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            report.violations.append(
                Violation(
                    kind="parse-error",
                    file=filename,
                    line=exc.lineno or 0,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        report.files_scanned += 1
        analyzer = _FileAnalyzer(filename, report)
        analyzer.analyze(tree)
        analyzers.append(analyzer)
    _resolve_summaries(analyzers, report)
    report.violations.sort(key=lambda v: (v.file, v.line))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint and print; exit 1 on any violation."""
    argv = list(sys.argv[1:] if argv is None else argv)
    report = run_lockcheck(argv)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
