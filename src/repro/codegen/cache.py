"""Two-level compiled-artifact cache: in-process memo plus on-disk store.

Artifacts are keyed by a content digest over the *generated source*, the
compiler flags and the host ABI — never by file names or timestamps — so a
cache directory can be shared between processes, CI runs and machines of
the same architecture without coherence protocols:

* **In-process**: ``digest → CompiledKernel`` in a lock-protected module
  dict.  Every backend instance in the process shares it, so the
  differential harness's fresh-engine-per-execution pattern compiles each
  kernel form once.  Concurrent resolvers of the *same* digest dedupe to
  one compile through a per-digest in-flight latch (losers wait, then read
  the published kernel from the memo); resolvers of *distinct* digests
  compile fully in parallel, because the module lock is only ever held for
  dict surgery — never across disk IO or a compiler invocation.
* **On disk**: ``<digest>.so`` plus ``<digest>.c`` (for debugging) and a
  ``<digest>.json`` sidecar holding the SHA-256 of the shared library.
  Writers compile to a process-unique temp name and ``os.replace`` into
  place, so concurrent writers race benignly (last atomic rename wins and
  every intermediate state is either absent or complete).  Readers verify
  the sidecar hash before loading; a truncated, tampered or unloadable
  artifact is discarded and recompiled — corruption can cost a compile,
  never correctness.

The **kernel runtime artifact** (the vector ``erf`` every interpreted
``BH_ERF`` calls; :func:`resolve_runtime`) lives in the same store under
the same rules.  A warm disk cache therefore serves a cold process with
**zero compiler invocations**, which is the property the E15 benchmark
asserts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import sys
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.codegen.compiler import (
    CodegenError,
    CompiledKernel,
    CompiledRuntime,
    compile_flags,
    compile_shared_library,
    compiler_unavailable,
    find_c_compiler,
)
from repro.codegen.emit_c import emit_runtime_source

#: Bump to invalidate every cached artifact when the ABI of generated
#: kernels changes (argument layout, symbol name, helper semantics).
#: Schema 5: no artifact takes a scratch lane — a schema-4 reduction chunk
#: stored its partial through one.
ARTIFACT_SCHEMA = 5

#: The runtime is one fixed loop; -O2 is plenty.
RUNTIME_OPT_LEVEL = 2
#: Generated kernels are the hot loops: -O3.  Part of every kernel's
#: artifact digest, so changing it never reuses a library built otherwise.
KERNEL_OPT_LEVEL = 3

#: digest → loaded artifact (kernels and the runtime alike).
_memory_cache: Dict[str, object] = {}
#: cache dir → (runtime or None, why there is none): what resolve_runtime
#: found, so a host that cannot build it is asked once, not once per erf
#: launch.  Guarded by _lock; dropped with the kernel memo.
_runtime_memo: Dict[str, Tuple[Optional[CompiledRuntime], Optional[str]]] = {}
_lock = threading.Lock()
#: Per-digest latches for compiles currently in flight; guarded by _lock.
_inflight: Dict[str, threading.Event] = {}
_temp_counter = itertools.count()


def resolve_cache_dir(configured: Optional[str] = None) -> str:
    """The on-disk cache directory: config knob > env var > user cache dir."""
    if configured:
        return os.path.expanduser(configured)
    env = os.environ.get("REPRO_CODEGEN_CACHE")
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-codegen")


def artifact_digest(source: str, opt_level: int) -> str:
    """Content digest identifying one compiled artifact.

    Covers the generated source, the compiler flags and the host ABI
    (platform + machine + pointer width), so a shared cache directory can
    never serve an artifact compiled for a different target or under
    different semantics-relevant flags.  The thread count reaches neither
    source nor flags, so one artifact serves every count.
    """
    hasher = hashlib.blake2b(digest_size=20)
    abi = (
        ARTIFACT_SCHEMA,
        sys.platform,
        platform.machine(),
        64 if sys.maxsize > 2**32 else 32,
        compile_flags(opt_level),
    )
    hasher.update(repr(abi).encode("utf-8"))
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


def clear_memory_cache() -> None:
    """Drop every in-process loaded artifact (tests and cold-start simulation)."""
    with _lock:
        _memory_cache.clear()
        _runtime_memo.clear()


def memory_cache_size() -> int:
    """Number of kernels currently loaded in the in-process cache."""
    with _lock:
        return len(_memory_cache)


def _artifact_paths(cache_dir: str, digest: str) -> Tuple[str, str, str]:
    return (
        os.path.join(cache_dir, f"{digest}.so"),
        os.path.join(cache_dir, f"{digest}.json"),
        os.path.join(cache_dir, f"{digest}.c"),
    )


def _discard_artifact(cache_dir: str, digest: str) -> None:
    for path in _artifact_paths(cache_dir, digest):
        try:
            os.unlink(path)
        except OSError:
            pass


def _sha256_file(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _load_from_disk(cache_dir: str, digest: str, loader: Callable = CompiledKernel):
    """Load a verified artifact, or ``None`` (discarding anything corrupt)."""
    so_path, meta_path, _ = _artifact_paths(cache_dir, digest)
    if not (os.path.isfile(so_path) and os.path.isfile(meta_path)):
        return None
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        expected = meta["sha256"]
        schema = meta["schema"]
    except (OSError, ValueError, KeyError):
        _discard_artifact(cache_dir, digest)
        return None
    if schema != ARTIFACT_SCHEMA:
        _discard_artifact(cache_dir, digest)
        return None
    try:
        actual = _sha256_file(so_path)
    except OSError:
        _discard_artifact(cache_dir, digest)
        return None
    if actual != expected:
        _discard_artifact(cache_dir, digest)
        return None
    try:
        return loader(so_path)
    except CodegenError:
        _discard_artifact(cache_dir, digest)
        return None


def _atomic_write(path: str, data: bytes, temp_tag: str) -> None:
    temp_path = f"{path}.{temp_tag}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(data)
    os.replace(temp_path, path)


def _compile_to_disk(
    cache_dir: str,
    digest: str,
    source: str,
    opt_level: int,
    loader: Callable = CompiledKernel,
):
    os.makedirs(cache_dir, exist_ok=True)
    so_path, meta_path, c_path = _artifact_paths(cache_dir, digest)
    tag = f"{os.getpid()}.{next(_temp_counter)}"
    temp_c = f"{c_path}.{tag}.tmp.c"  # must end in .c for the compiler driver
    temp_so = f"{so_path}.{tag}.tmp"
    try:
        with open(temp_c, "w", encoding="utf-8") as handle:
            handle.write(source)
        compile_shared_library(temp_c, temp_so, opt_level)
        sha = _sha256_file(temp_so)
        # Publication order matters for racing readers: the library first,
        # its checksum last — a reader that sees a sidecar always sees a
        # fully written .so (possibly a *different* racer's, in which case
        # the checksum mismatch triggers a clean recompile).
        os.replace(temp_so, so_path)
        os.replace(temp_c, c_path)
        _atomic_write(
            meta_path,
            json.dumps(
                {"schema": ARTIFACT_SCHEMA, "sha256": sha, "opt_level": int(opt_level)}
            ).encode("utf-8"),
            tag,
        )
    finally:
        for leftover in (temp_c, temp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return loader(so_path)


def get_compiled_kernel(
    source: str,
    opt_level: int = 2,
    cache_dir: Optional[str] = None,
    loader: Callable = CompiledKernel,
    load_only: bool = False,
) -> Tuple[object, Optional[str]]:
    """Resolve source to a loaded artifact: memory → disk → compile.

    Returns ``(kernel, outcome)`` with ``outcome`` one of ``"memory"``,
    ``"disk"`` or ``"compiled"`` so callers can maintain honest counters;
    ``load_only`` stops before the compile and returns ``(None, None)``.
    ``loader`` turns a verified ``.so`` path into the loaded object
    (:class:`CompiledKernel`, or :class:`CompiledRuntime` for the runtime
    artifact).

    Raises
    ------
    CompilerUnavailable
        When compilation is needed but the host has no C compiler.
    CodegenError
        When the compiler rejects the generated source.
    """
    digest = artifact_digest(source, opt_level)
    directory = resolve_cache_dir(cache_dir)
    # Claim the builder role for this digest, or wait behind whoever holds
    # it.  A waiter that wakes re-checks the memo: served means outcome
    # "memory" (exactly one thread ever reports "compiled" per digest); an
    # empty memo means the builder failed, and the waiter competes to
    # build — a failed compile can therefore never wedge the digest.
    while True:
        with _lock:
            kernel = _memory_cache.get(digest)
            if kernel is not None:
                return kernel, "memory"
            waiting_on = _inflight.get(digest)
            if waiting_on is None:
                latch = threading.Event()
                _inflight[digest] = latch
                break
        waiting_on.wait()
    try:
        kernel = _load_from_disk(directory, digest, loader)
        outcome = "disk"
        if kernel is None:
            if load_only:
                return None, None
            if find_c_compiler() is None:
                raise compiler_unavailable()
            kernel = _compile_to_disk(directory, digest, source, opt_level, loader)
            outcome = "compiled"
        with _lock:
            _memory_cache[digest] = kernel
        return kernel, outcome
    finally:
        with _lock:
            _inflight.pop(digest, None)
        latch.set()


def resolve_runtime(
    cache_dir: Optional[str] = None,
) -> Tuple[Optional[CompiledRuntime], Optional[str]]:
    """The process's kernel runtime: ``(runtime, outcome)``.

    It resolves through :func:`get_compiled_kernel` (same digest, sidecar,
    atomic publication, verify-on-read and compile-once latch as any
    kernel), and ``outcome`` is that resolve's ``"compiled" | "disk" |
    "memory"``.  When it does not resolve — no compiler and nothing on
    disk, or a toolchain that fails to build it — the result is
    ``(None, None)``, remembered for the directory, and
    :func:`runtime_failure` says why.
    """
    key = resolve_cache_dir(cache_dir)
    with _lock:
        known = _runtime_memo.get(key)
    if known is not None:
        return known[0], "memory" if known[0] is not None else None
    runtime = outcome = failure = None
    try:
        runtime, outcome = get_compiled_kernel(
            emit_runtime_source(),
            opt_level=RUNTIME_OPT_LEVEL,
            cache_dir=cache_dir,
            loader=CompiledRuntime,
        )
    except CodegenError as exc:
        failure = str(exc).partition("\n")[0]  # a compiler's stderr follows
    with _lock:
        _runtime_memo[key] = (runtime, failure)
    return runtime, outcome


def runtime_failure(cache_dir: Optional[str] = None) -> Optional[str]:
    """Why :func:`resolve_runtime` found no runtime here: the first line of
    its first :class:`CodegenError`; ``None`` when it found one or has not
    looked yet."""
    with _lock:
        known = _runtime_memo.get(resolve_cache_dir(cache_dir))
    return known[1] if known is not None else None
