"""Invoking the host C compiler and loading compiled kernels via ctypes.

The toolchain contract is deliberately small: any ``cc``-compatible driver
that accepts ``-shared -fPIC`` works.  Flags are part of the artifact
digest (see :mod:`repro.codegen.cache`), so changing the optimization
level can never pick up a stale shared library.

``-fwrapv`` is load-bearing for bitwise parity: NumPy's integer arithmetic
wraps, and without the flag C signed overflow is undefined behaviour the
optimizer may exploit.  ``-ffast-math`` is never passed for the same
reason, and ``-fno-builtin-erf`` keeps every ``erf`` a call into the host
libm: gcc folds ``erf(constant)`` at compile time, correctly rounded, which
the libm's run-time ``erf`` is not (134 of 4000 literals in [-3, 3] differ
in the last bit) — a kernel that reaches ``erf`` through constants would
otherwise disagree with every other tier.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
from typing import Optional, Tuple

#: Exported symbol name of every generated kernel.
KERNEL_SYMBOL = "repro_kernel"

#: Exported chunked entry point: same geometry arguments plus a runtime
#: thread count and the runtime artifact's launch function.  One call
#: covers the whole step; the runtime partitions the outermost splittable
#: loop and calls back into the artifact's chunk function per row range.
MT_KERNEL_SYMBOL = "repro_kernel_mt"

#: The kernel runtime artifact's launch function ...
RT_LAUNCH_SYMBOL = "repro_rt_launch"

#: ... and its vector ``erf``, the compiled half of ``BH_ERF``'s definition.
VEC_ERF_SYMBOL = "repro_vec_erf"


class CodegenError(Exception):
    """Raised when native compilation or artifact loading fails."""


class CompilerUnavailable(CodegenError):
    """Raised when no C compiler can be found on the host."""


_COMPILER_SEARCH = ("cc", "gcc", "clang")
_compiler_cache: Optional[Tuple[bool, Optional[str]]] = None
_compiles_forbidden = False


def forbid_compiles() -> None:
    """Make this process one that loads artifacts and never builds any.

    A dist worker calls this on start-up: the master populates the cache
    directory, workers only read it.  There is no way back.
    """
    global _compiles_forbidden
    _compiles_forbidden = True


def find_c_compiler() -> Optional[str]:
    """Locate the C compiler driver, or ``None`` when the host has none.

    ``REPRO_CC`` overrides the search; otherwise the first of ``cc``,
    ``gcc``, ``clang`` found on ``PATH`` wins.  The result is cached for
    the process (compilers do not appear mid-run).  A process that called
    :func:`forbid_compiles` has none.
    """
    global _compiler_cache
    if _compiles_forbidden:
        return None
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    if _compiler_cache is None:
        found = None
        for candidate in _COMPILER_SEARCH:
            found = shutil.which(candidate)
            if found:
                break
        _compiler_cache = (True, found)
    return _compiler_cache[1]


def compiler_unavailable() -> CompilerUnavailable:
    """The error of a compile attempted where :func:`find_c_compiler` finds none."""
    if _compiles_forbidden:
        return CompilerUnavailable(
            "this process only loads artifacts and the cache directory lacks this one"
        )
    return CompilerUnavailable("no C compiler (cc/gcc/clang) found on PATH")


#: Extra compiler/linker flags per threading mode.  Only the kernel runtime
#: artifact is ever compiled under ``pthread`` (its persistent worker pool)
#: or ``openmp`` (the fallback for toolchains without ``-pthread``); kernel
#: artifacts contain no threading code and always compile as ``serial``.
_MT_FLAGS = {
    "pthread": ("-pthread",),
    "openmp": ("-fopenmp",),
    "serial": (),
}

MT_MODES = tuple(_MT_FLAGS)

#: How long one compiler run may take before the flush stops waiting for it
#: and falls back (a kernel compiles in well under a second).
COMPILE_TIMEOUT_S = 120.0


def compile_flags(opt_level: int, mt_mode: str = "serial") -> Tuple[str, ...]:
    """The compiler flags for one artifact; part of the artifact digest."""
    level = min(3, max(0, int(opt_level)))
    return (
        f"-O{level}",
        "-shared",
        "-fPIC",
        "-fwrapv",
        "-fno-strict-aliasing",
        "-fno-builtin-erf",
    ) + _MT_FLAGS[mt_mode]


def select_mt_mode(cache_dir: Optional[str] = None, use_disk: bool = True) -> str:
    """The in-kernel threading mode of this process's kernel runtime.

    ``pthread`` when the pthread runtime artifact resolves, else ``openmp``
    when the OpenMP one does, else ``serial``.  Resolving the runtime *is*
    the toolchain probe: a process over a warm cache directory reads the
    mode from a verified disk artifact and spawns no compiler.
    """
    from repro.codegen.cache import resolve_runtime  # cache imports this module

    return resolve_runtime(cache_dir, use_disk)[1]


def compile_shared_library(
    source_path: str,
    output_path: str,
    opt_level: int,
    compiler: Optional[str] = None,
    mt_mode: str = "serial",
) -> None:
    """Compile one generated C file into a shared library.

    Raises
    ------
    CompilerUnavailable
        When no compiler exists on the host.
    CodegenError
        When the compiler exits non-zero (its stderr is included, decoded
        leniently: it is a diagnostic) or outlives ``COMPILE_TIMEOUT_S``.
    """
    compiler = compiler if compiler is not None else find_c_compiler()
    if compiler is None:
        raise compiler_unavailable()
    command = [
        compiler,
        *compile_flags(opt_level, mt_mode),
        "-o",
        output_path,
        source_path,
        "-lm",
    ]
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=COMPILE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise CodegenError(
            f"{compiler} did not finish {source_path} within {COMPILE_TIMEOUT_S:g} s"
        ) from None
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace")
        raise CodegenError(
            f"{compiler} failed ({proc.returncode}) for {source_path}:\n{stderr}"
        )


class CompiledKernel:
    """A loaded native kernel: the shared library plus its typed entry point.

    ctypes releases the GIL around foreign calls, so tiles of one step
    genuinely overlap when the parallel scaffolding launches compiled
    kernels from worker threads.
    """

    __slots__ = ("path", "_library", "fn", "fn_mt")

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            self._library = ctypes.CDLL(path)
            self.fn = getattr(self._library, KERNEL_SYMBOL)
        except (OSError, AttributeError) as exc:
            raise CodegenError(f"cannot load compiled kernel {path}: {exc}") from None
        self.fn.argtypes = (
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_int64),
        )
        self.fn.restype = None
        # Every generated artifact exports the chunked entry point; hand-fed
        # sources (tests) may not, so its absence merely disables the
        # one-call multi-thread launch path for this kernel.
        self.fn_mt = getattr(self._library, MT_KERNEL_SYMBOL, None)
        if self.fn_mt is not None:
            self.fn_mt.argtypes = self.fn.argtypes + (
                ctypes.c_int32,
                ctypes.c_void_p,  # the runtime's launch function, or null
            )
            self.fn_mt.restype = None


class CompiledRuntime:
    """The loaded kernel runtime artifact: the process's one worker pool.

    ``launch`` is the address of its ``repro_rt_launch``, passed as the
    last argument of every ``repro_kernel_mt`` call.  The library handle is
    kept so the address outlives every launchable that captured it.
    ``vec_erf(n, src, dst)`` is its ``repro_vec_erf``: the host libm's
    ``erf`` over ``n`` contiguous doubles at address ``src`` into ``dst``
    (the two may be equal) — what ``BH_ERF`` calls on every interpreted
    tier.  Like any foreign call it releases the GIL.
    """

    __slots__ = ("path", "_library", "launch", "vec_erf")

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            self._library = ctypes.CDLL(path)
            entry = getattr(self._library, RT_LAUNCH_SYMBOL)
            self.vec_erf = getattr(self._library, VEC_ERF_SYMBOL)
        except (OSError, AttributeError) as exc:
            raise CodegenError(f"cannot load kernel runtime {path}: {exc}") from None
        self.launch = ctypes.cast(entry, ctypes.c_void_p)
        self.vec_erf.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
        self.vec_erf.restype = None
