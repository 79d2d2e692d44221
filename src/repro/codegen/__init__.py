"""Native code generation: loop-nest IR, C emission and compiled-artifact caching.

The package lowers a fused kernel's element-wise byte-codes into a small
loop-nest IR (:mod:`repro.codegen.loopir`), emits portable C99 from it
(:mod:`repro.codegen.emit_c`), compiles the result with the host C
compiler (:mod:`repro.codegen.compiler`) and caches one shared library per
*canonical kernel form* both in-process and on disk
(:mod:`repro.codegen.cache`) — plus, once per process, the one kernel
runtime artifact whose worker pool every threaded launch goes through
(:func:`repro.codegen.cache.resolve_runtime`).  The :class:`~repro.runtime.native.NativeBackend`
drives it; everything here is backend-agnostic and free of runtime state.
"""

from repro.codegen.loopir import LoweringError, lower_kernel
from repro.codegen.emit_c import emit_kernel_source
from repro.codegen.compiler import CodegenError, CompilerUnavailable, find_c_compiler
from repro.codegen.cache import (
    artifact_digest,
    clear_memory_cache,
    get_compiled_kernel,
    resolve_cache_dir,
)

__all__ = [
    "LoweringError",
    "lower_kernel",
    "emit_kernel_source",
    "CodegenError",
    "CompilerUnavailable",
    "find_c_compiler",
    "artifact_digest",
    "clear_memory_cache",
    "get_compiled_kernel",
    "resolve_cache_dir",
]
