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

from repro._exports import export_on_demand

export_on_demand(
    globals(),
    {
        "repro.codegen.loopir": ("LoweringError", "lower_kernel"),
        "repro.codegen.emit_c": ("emit_kernel_source",),
        "repro.codegen.compiler": ("CodegenError", "CompilerUnavailable", "find_c_compiler"),
        "repro.codegen.cache": (
            "artifact_digest",
            "clear_memory_cache",
            "get_compiled_kernel",
            "resolve_cache_dir",
        ),
    },
)
