"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish validation problems from execution problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError):
    """A byte-code program or instruction failed static validation.

    Raised by :mod:`repro.bytecode.validate` when an instruction has the
    wrong arity, incompatible operand shapes, a constant in an output
    position, or similar structural problems.
    """


class IRCheckError(ValidationError):
    """A between-pass program invariant was violated.

    Raised by :mod:`repro.checks.ircheck` when the program produced by an
    optimization pass breaks a flow-sensitive invariant the pass's input
    satisfied (a read of a never-written temporary, a dropped SYNC target, a
    use after BH_FREE, a view escaping its base).  The pipeline decorates
    the message with the *first offending pass* so the diagnosis lands on
    the rewrite, not on the backend that would have executed the damage.

    Attributes
    ----------
    index:
        Position of the offending instruction in the checked program, or
        ``None`` for whole-program violations (e.g. a missing SYNC).
    pass_name:
        Name of the pass whose output failed, filled in by the pipeline.
    """

    def __init__(self, message: str, index=None, pass_name=None) -> None:
        super().__init__(message)
        self.index = index
        self.pass_name = pass_name


class PlanCheckError(ValidationError):
    """A plan-time artifact failed its independent soundness check.

    Raised by :mod:`repro.checks.plancheck` when a memory plan aliases
    overlapping lifetimes, a fusion schedule violates a dependency edge, or
    a tiling decomposition contradicts the independently recomputed overlap
    hazards.  Backends run the check from ``prepare_plan`` under the
    ``check_ir`` knob, so a corrupted cached plan can never execute.
    """


class ExecutionError(ReproError):
    """A backend failed while executing a byte-code program."""


class DistributedExecutionError(ExecutionError):
    """The distributed backend lost a worker or hit a protocol fault.

    Raised when a worker process dies mid-flush, replies with an error
    frame, violates the control protocol, or the shared-memory budget is
    exhausted.  The failure is surfaced cleanly: the worker pool is torn
    down (a fresh pool respawns on the next flush) and the session remains
    usable — no hang, no leaked shared-memory segments.
    """


class RewriteError(ReproError):
    """A transformation pass produced an invalid or non-equivalent program.

    Raised either directly by a pass that detects it cannot apply safely, or
    by the semantic verifier when the optimized program disagrees with the
    original program on a test input.
    """


class FrontendError(ReproError):
    """Misuse of the lazy array front-end (e.g. shape mismatch)."""


class AllocationError(ReproError):
    """The memory manager could not satisfy an allocation request."""


class ParseError(ReproError):
    """The textual byte-code parser encountered malformed input."""


class CostModelError(ReproError):
    """The cost model was asked to price an unknown operation."""


class ClusterError(ReproError):
    """A partitioned computation was asked for fewer than one worker."""


class ConcurrencyError(ReproError):
    """A single-owner structure was entered by two threads concurrently.

    Raised by :class:`repro.utils.locking.SingleOwner` — the deterministic
    diagnosis for what would otherwise be a silent data race (two threads
    driving one tenant session at once).
    """


class ServiceOverloadError(ReproError):
    """The array service rejected a flush under admission control.

    Raised when the in-flight cap (global or per-tenant) stays saturated
    past the admission timeout.  The rejection is clean: nothing was
    recorded as executed and the session remains usable — callers retry or
    shed load.
    """
