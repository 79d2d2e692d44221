"""The algebraic byte-code transformation engine — the paper's contribution.

The engine rewrites byte-code :class:`~repro.bytecode.program.Program`
objects into cheaper but semantically equivalent programs.  Its pieces:

* :mod:`repro.core.analysis` — def-use, liveness and safety queries the
  context-aware rules need.
* :mod:`repro.core.rules` — the :class:`Pass` protocol, pass registry and
  result/statistics records.
* Concrete passes:

  - :class:`ConstantMergePass` (Listings 1-3): contract repeated
    constant additions/multiplications into one byte-code.
  - :class:`PowerExpansionPass` + :mod:`repro.core.addition_chains`
    (Equation 1, Listings 4-5): rewrite ``BH_POWER`` into multiplication
    chains, including the paper's two-register square-and-multiply form.
  - :class:`LinearSolveRewritePass` (Equation 2): rewrite
    ``inv(A) @ b`` into an LU-based solve when liveness allows.
  - :class:`FusionPass`: loop-fusion-like contraction of element-wise
    chains into ``BH_FUSED`` kernels.
  - :class:`IdentitySimplifyPass`, :class:`CopyPropagationPass`,
    :class:`DeadCodeEliminationPass`: supporting clean-up rules.

* :mod:`repro.core.cost` — the cost model that prices programs for
  reports; no pass or schedule decision reads it.
* :mod:`repro.core.pipeline` — the pass manager (ordering, fixed point,
  verification) and the top-level :func:`optimize` entry point.
"""

from repro.core.analysis import BaseInterval, DefUse, live_intervals
from repro.core.rules import (
    Pass,
    PassResult,
    PassStats,
    available_passes,
    create_pass,
    register_pass,
)
from repro.core.constant_merge import ConstantMergePass
from repro.core.addition_chains import (
    AdditionChain,
    binary_chain,
    chain_multiply_count,
    naive_chain,
    optimal_chain,
    power_of_two_chain,
)
from repro.core.power_expansion import PowerExpansionPass, expand_power
from repro.core.linear_solve import LinearSolveRewritePass
from repro.core.fusion import FusionPass
from repro.core.identity_simplify import IdentitySimplifyPass
from repro.core.copy_propagation import CopyPropagationPass
from repro.core.dce import DeadCodeEliminationPass
from repro.core.constant_fold import ScalarConstantFoldingPass
from repro.core.strength_reduction import StrengthReductionPass
from repro.core.cse import CommonSubexpressionEliminationPass
from repro.core.cost import CostModel
from repro.core.schedule import (
    FusionSchedule,
    compute_schedule,
    dependency_graph,
    fusion_schedule_of,
)
from repro.core.verifier import SemanticVerifier, VerificationError
from repro.core.pipeline import (
    OptimizationReport,
    Pipeline,
    default_pipeline,
    optimize,
)

__all__ = [
    "DefUse",
    "BaseInterval",
    "live_intervals",
    "Pass",
    "PassResult",
    "PassStats",
    "available_passes",
    "create_pass",
    "register_pass",
    "ConstantMergePass",
    "AdditionChain",
    "binary_chain",
    "chain_multiply_count",
    "naive_chain",
    "optimal_chain",
    "power_of_two_chain",
    "PowerExpansionPass",
    "expand_power",
    "LinearSolveRewritePass",
    "FusionPass",
    "IdentitySimplifyPass",
    "CopyPropagationPass",
    "DeadCodeEliminationPass",
    "ScalarConstantFoldingPass",
    "StrengthReductionPass",
    "CommonSubexpressionEliminationPass",
    "CostModel",
    "FusionSchedule",
    "compute_schedule",
    "dependency_graph",
    "fusion_schedule_of",
    "SemanticVerifier",
    "VerificationError",
    "OptimizationReport",
    "Pipeline",
    "default_pipeline",
    "optimize",
]
