"""The transformation-pass framework.

A *pass* takes a program and returns a (possibly) rewritten program together
with statistics about what it did.  Passes never mutate the input program;
they build a new instruction list and return a new :class:`Program`.  The
:class:`~repro.core.pipeline.Pipeline` composes passes, iterates them to a
fixed point and optionally verifies semantic equivalence.

Passes are also registered by name so configuration files and benchmarks can
select them with strings (``"constant_merge"``, ``"power_expansion"``, ...).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.bytecode.program import Program


@dataclass
class PassStats:
    """What one pass application did.

    Attributes
    ----------
    pass_name:
        Name of the pass that produced these statistics.
    rewrites_applied:
        Number of individual rewrite sites the pass transformed.
    instructions_before / instructions_after:
        Program sizes around the pass.
    notes:
        Free-form per-rewrite notes (e.g. "merged 3 BH_ADD constants into 3").
    artifacts:
        Structured artifacts a pass wants to expose beyond counters (the
        fusion pass records its :class:`~repro.core.schedule.FusionSchedule`
        here so the engine can attach it to the execution plan and the CLI
        can report scheduler statistics).
    """

    pass_name: str
    rewrites_applied: int = 0
    instructions_before: int = 0
    instructions_after: int = 0
    notes: List[str] = field(default_factory=list)
    artifacts: Dict[str, object] = field(default_factory=dict)

    def note(self, message: str) -> None:
        """Record a free-form note about one rewrite."""
        self.notes.append(message)


@dataclass
class PassResult:
    """A pass's output: the rewritten program plus statistics."""

    program: Program
    stats: PassStats

    @property
    def changed(self) -> bool:
        """True when the pass applied at least one rewrite."""
        return self.stats.rewrites_applied > 0


class Pass(abc.ABC):
    """Base class for all transformation passes."""

    #: Stable pass name used for registration, configuration and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, program: Program) -> PassResult:
        """Rewrite ``program`` and return the result.

        Implementations must not mutate ``program``; they return a fresh
        :class:`Program` (which may share :class:`Instruction` objects with
        the input, since instructions are immutable values).
        """

    def _new_stats(self, program: Program) -> PassStats:
        """Create a stats record pre-filled with the input program size."""
        return PassStats(pass_name=self.name, instructions_before=len(program))

    def _finish(self, program: Program, stats: PassStats) -> PassResult:
        """Fill in the output size and wrap up a result."""
        stats.instructions_after = len(program)
        return PassResult(program=program, stats=stats)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} name={self.name!r}>"


_PASS_FACTORIES: Dict[str, Callable[[], Pass]] = {}


def register_pass(name: str, factory: Callable[[], Pass]) -> None:
    """Register a pass factory under ``name``."""
    _PASS_FACTORIES[name] = factory


def available_passes() -> tuple:
    """Names of all registered passes."""
    _ensure_default_passes()
    return tuple(sorted(_PASS_FACTORIES))


def create_pass(name: str, **kwargs) -> Pass:
    """Instantiate a registered pass by name."""
    _ensure_default_passes()
    try:
        factory = _PASS_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown pass {name!r}; available: {tuple(sorted(_PASS_FACTORIES))}"
        ) from None
    return factory(**kwargs) if kwargs else factory()


def _ensure_default_passes() -> None:
    """Register the built-in passes lazily (avoids import cycles)."""
    if _PASS_FACTORIES:
        return
    from repro.core.constant_fold import ScalarConstantFoldingPass
    from repro.core.constant_merge import ConstantMergePass
    from repro.core.copy_propagation import CopyPropagationPass
    from repro.core.cse import CommonSubexpressionEliminationPass
    from repro.core.dce import DeadCodeEliminationPass
    from repro.core.fusion import FusionPass
    from repro.core.identity_simplify import IdentitySimplifyPass
    from repro.core.linear_solve import LinearSolveRewritePass
    from repro.core.power_expansion import PowerExpansionPass
    from repro.core.strength_reduction import StrengthReductionPass

    register_pass("identity_simplify", IdentitySimplifyPass)
    register_pass("constant_merge", ConstantMergePass)
    register_pass("constant_fold", ScalarConstantFoldingPass)
    register_pass("strength_reduction", StrengthReductionPass)
    register_pass("cse", CommonSubexpressionEliminationPass)
    register_pass("power_expansion", PowerExpansionPass)
    register_pass("linear_solve", LinearSolveRewritePass)
    register_pass("copy_propagation", CopyPropagationPass)
    register_pass("dce", DeadCodeEliminationPass)
    register_pass("fusion", FusionPass)


#: Canonical ordering of the default pipeline.  Scalar/algebraic rewrites run
#: first (they shrink the program), the context-aware idiom rewrites next,
#: clean-up passes after that, and fusion last because it changes the
#: instruction granularity the earlier passes pattern-match on.
DEFAULT_PASS_ORDER = (
    "identity_simplify",
    "constant_merge",
    "power_expansion",
    "linear_solve",
    "copy_propagation",
    "dce",
    "fusion",
)

#: The extended pipeline adds the passes that go beyond the paper's concrete
#: listings (scalar constant folding, strength reduction, common-subexpression
#: elimination).  They run before the paper's rewrites because they expose
#: more opportunities for them (e.g. CSE creates copies that copy propagation
#: dissolves; strength reduction normalises divisions into multiplications
#: the constant-merge pass understands).
EXTENDED_PASS_ORDER = (
    "identity_simplify",
    "constant_fold",
    "constant_merge",
    "strength_reduction",
    "cse",
    "power_expansion",
    "linear_solve",
    "copy_propagation",
    "dce",
    "fusion",
)
