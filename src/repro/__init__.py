"""repro — reproduction of "Algebraic Transformation of Descriptive Vector
Byte-code Sequences" (Mads Ohm Larsen, Middleware Doctoral Symposium 2016).

The package implements a Bohrium-like stack in pure Python:

* :mod:`repro.bytecode` — the descriptive vector byte-code IR (op-codes,
  views, programs, the textual listing format).
* :mod:`repro.runtime` — execution backends: a NumPy reference interpreter,
  a fusing JIT, a tiled thread-parallel backend and compiled native
  kernels.
* :mod:`repro.core` — the paper's contribution: the algebraic
  transformation engine (constant merging, power expansion via addition
  chains, the context-aware linear-solve rewrite, fusion, clean-up passes,
  the cost model and the pass pipeline).
* :mod:`repro.linalg` — from-scratch LU / triangular-solve / inversion
  substrate used by the extension byte-codes.
* :mod:`repro.frontend` — a lazy NumPy-like array front-end that records
  byte-code instead of computing eagerly ("change the import, keep the
  code").
* :mod:`repro.dist` — sharded execution over a pool of worker processes.
* :mod:`repro.workloads` — workload generators used by the examples and the
  benchmark harness.

Quickstart (the paper's Listing 1):

>>> from repro import frontend as np
>>> a = np.zeros(10)
>>> a += 1
>>> a += 1
>>> a += 1
>>> a.to_numpy()          # flush: optimize + execute the recorded byte-code
array([3., 3., 3., 3., 3., 3., 3., 3., 3., 3.])
"""

from repro._exports import export_on_demand

__version__ = "1.0.0"
__all__ = ["__version__"]  # joined by every name of the table below

export_on_demand(
    globals(),
    {
        "repro.bytecode": (
            "bytecode",
            "BaseArray",
            "Constant",
            "Instruction",
            "OpCode",
            "Program",
            "ProgramBuilder",
            "View",
            "format_program",
            "parse_program",
            "validate_program",
        ),
        "repro.core": (
            "core",
            "CostModel",
            "OptimizationReport",
            "Pipeline",
            "default_pipeline",
            "optimize",
        ),
        "repro.linalg": ("linalg",),
        "repro.runtime": (
            "runtime",
            "ExecutionEngine",
            "ExecutionPlan",
            "ExecutionResult",
            "ExecutionStats",
            "FusingJIT",
            "MemoryManager",
            "NumPyInterpreter",
            "PlanCache",
            "get_backend",
            "register_backend",
            "program_fingerprint",
        ),
        "repro.utils": ("utils", "Config", "config_override", "get_config", "set_config"),
    },
)
