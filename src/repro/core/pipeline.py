"""The optimization pipeline (pass manager).

Composes the individual transformation passes, optionally iterates them to a
fixed point (one rewrite frequently enables another: power expansion creates
multiply chains that fusion then contracts; the linear-solve rewrite leaves a
dead inversion that DCE then removes), optionally verifies semantic
equivalence, and reports per-pass statistics.

The top-level convenience function is :func:`optimize`:

>>> report = optimize(program)
>>> report.optimized            # the rewritten program
>>> report.total_rewrites       # how many rewrite sites fired
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from repro.bytecode.program import Program
from repro.bytecode.validate import validate_program
from repro.core.rules import DEFAULT_PASS_ORDER, EXTENDED_PASS_ORDER, Pass, PassStats, create_pass
from repro.core.verifier import SemanticVerifier
from repro.utils.config import Config, get_config
from repro.utils.errors import IRCheckError

#: Safety bound on a pipeline's iterate-to-fixed-point loop.
MAX_ITERATIONS = 16


@dataclass
class OptimizationReport:
    """Everything the pipeline did to one program.

    Reports are *cacheable*: the execution engine stores the report inside a
    cached :class:`~repro.runtime.plan.ExecutionPlan` and hands out
    :meth:`replayed` copies on plan-cache hits, so ``session.last_report``
    keeps working on flushes whose optimization never actually re-ran.
    """

    original: Program
    optimized: Program
    pass_stats: List[PassStats] = field(default_factory=list)
    iterations: int = 0
    verified: Optional[bool] = None
    #: Structural fingerprint of the original program (set by the engine).
    fingerprint: Optional[str] = None
    #: True when this report was replayed from a cached plan rather than
    #: produced by an actual pipeline run.
    cached: bool = False
    #: Between-pass IR checks the pipeline ran producing this report
    #: (non-zero only under the ``check_ir`` configuration knob).
    ir_checks_run: int = 0

    def replayed(self) -> "OptimizationReport":
        """A copy of this report marked as served from the plan cache.

        The program and per-pass statistics are shared (they are treated as
        immutable); only the ``cached`` flag differs.
        """
        return OptimizationReport(
            original=self.original,
            optimized=self.optimized,
            pass_stats=self.pass_stats,
            iterations=self.iterations,
            verified=self.verified,
            fingerprint=self.fingerprint,
            cached=True,
            ir_checks_run=self.ir_checks_run,
        )

    @property
    def total_rewrites(self) -> int:
        """Total number of rewrite sites applied across all passes."""
        return sum(stats.rewrites_applied for stats in self.pass_stats)

    @property
    def changed(self) -> bool:
        """True when the optimized program differs from the original."""
        return self.total_rewrites > 0

    @property
    def instructions_before(self) -> int:
        """Instruction count of the original program."""
        return len(self.original)

    @property
    def instructions_after(self) -> int:
        """Instruction count of the optimized program."""
        return len(self.optimized)

    def stats_for(self, pass_name: str) -> List[PassStats]:
        """All stats records produced by a given pass (one per iteration)."""
        return [stats for stats in self.pass_stats if stats.pass_name == pass_name]

    def summary(self) -> str:
        """Human-readable multi-line summary of what happened."""
        lines = [
            f"optimization summary: {self.instructions_before} -> "
            f"{self.instructions_after} byte-codes in {self.iterations} iteration(s), "
            f"{self.total_rewrites} rewrite(s)"
            + (" [replayed from plan cache]" if self.cached else "")
        ]
        for stats in self.pass_stats:
            if stats.rewrites_applied == 0:
                continue
            lines.append(
                f"  {stats.pass_name}: {stats.rewrites_applied} rewrite(s), "
                f"{stats.instructions_before} -> {stats.instructions_after} byte-codes"
            )
            for note in stats.notes:
                lines.append(f"    - {note}")
        if self.verified is not None:
            lines.append(f"  semantic verification: {'passed' if self.verified else 'FAILED'}")
        return "\n".join(lines)


class Pipeline:
    """An ordered list of passes with fixed-point iteration and verification."""

    def __init__(
        self,
        passes: Sequence[Union[str, Pass]],
        fixed_point: bool = True,
        verify: bool = False,
        validate: bool = True,
        config: Optional[Config] = None,
    ) -> None:
        """
        Parameters
        ----------
        passes:
            Pass instances or registered pass names, in execution order.
            A name is built under ``config``.
        fixed_point:
            Re-run the whole pass list until no pass reports a rewrite (or
            :data:`MAX_ITERATIONS` is hit).
        verify:
            Re-execute the original and the optimized program on the same
            inputs and compare them (:class:`SemanticVerifier`).  Expensive;
            meant for tests and debugging.
        validate:
            Structurally validate the input and output programs.
        config:
            The configuration the pipeline runs under (its ``check_ir``);
            defaults to the one live when the pipeline is built.
        """
        self.config = config if config is not None else get_config()
        self.passes: List[Pass] = [
            _create_pass(item, self.config) if isinstance(item, str) else item
            for item in passes
        ]
        self.fixed_point = fixed_point
        self.verify = verify
        self.validate = validate

    def pass_names(self) -> List[str]:
        """Names of the passes in execution order."""
        return [p.name for p in self.passes]

    def signature(self) -> tuple:
        """A hashable description of what this pipeline does.

        Used as part of the execution engine's plan-cache key: two pipelines
        with the same signature are assumed to rewrite a given program
        identically, so their plans may be shared — and a pipeline with a
        different pass list or iteration policy never collides.
        """
        return (
            tuple(self.pass_names()),
            self.fixed_point,
            bool(self.verify),
            self.validate,
        )

    def run(self, program: Program) -> OptimizationReport:
        """Optimize ``program`` and return the full report.

        Under the pipeline configuration's ``check_ir`` the flow-sensitive IR
        checker (:mod:`repro.checks.ircheck`) runs on every pass's output
        against facts computed from the pipeline's *input* program — those
        facts (def-before-use, synced outputs) are invariant under every
        legal transformation, so the first pass to break one is named in
        the raised :class:`~repro.utils.errors.IRCheckError`.
        """
        if self.validate:
            validate_program(program)
        report = OptimizationReport(original=program.copy(), optimized=program.copy())
        current = program.copy()
        reference = None
        if self.config.check_ir:
            from repro.checks.ircheck import check_program, reference_facts

            reference = reference_facts(current)
        iterations = 0
        while True:
            iterations += 1
            changed_this_round = False
            for transformation in self.passes:
                result = transformation.run(current)
                report.pass_stats.append(result.stats)
                if result.changed:
                    changed_this_round = True
                    current = result.program
                    if reference is not None:
                        report.ir_checks_run += 1
                        try:
                            check_program(current, reference=reference)
                        except IRCheckError as exc:
                            raise IRCheckError(
                                f"pass {transformation.name!r} "
                                f"(iteration {iterations}) broke the IR: {exc}",
                                index=exc.index,
                                pass_name=transformation.name,
                            ) from None
            if not self.fixed_point or not changed_this_round:
                break
            if iterations >= MAX_ITERATIONS:
                break
        report.iterations = iterations
        report.optimized = current
        if self.validate:
            validate_program(current)
        if self.verify:
            verifier = SemanticVerifier()
            report.verified = verifier.equivalent(report.original, report.optimized)
        return report


def _create_pass(name: str, config: Config, **kwargs) -> Pass:
    """:func:`create_pass`, the fusion pass scheduling under ``config``."""
    if name == "fusion":
        kwargs = {"config": config, **kwargs}
    return create_pass(name, **kwargs)


def default_pipeline(
    enabled_passes: Optional[Iterable[str]] = None,
    fixed_point: bool = True,
    verify: bool = False,
    extended: bool = False,
    config: Optional[Config] = None,
    **pass_kwargs,
) -> Pipeline:
    """Build the canonical pipeline.

    Parameters
    ----------
    enabled_passes:
        Subset of pass names to include (order is always the canonical
        :data:`~repro.core.rules.DEFAULT_PASS_ORDER`, or the extended order
        when ``extended`` is true).  ``None`` uses the configuration's,
        which itself defaults to "all".
    config:
        The configuration the pipeline is built and run under; defaults
        to the one live now.
    fixed_point / verify:
        Forwarded to :class:`Pipeline`.
    extended:
        Include the extension passes (scalar constant folding, strength
        reduction, common-subexpression elimination) that go beyond the
        paper's concrete listings.
    pass_kwargs:
        Per-pass constructor overrides keyed by pass name, e.g.
        ``power_expansion={"strategy": "binary"}``.
    """
    config = config if config is not None else get_config()
    canonical_order = EXTENDED_PASS_ORDER if extended else DEFAULT_PASS_ORDER
    if enabled_passes is None:
        enabled_passes = config.enabled_passes
    if enabled_passes is None:
        names = list(canonical_order)
    else:
        requested = set(enabled_passes)
        order = EXTENDED_PASS_ORDER if extended or requested - set(DEFAULT_PASS_ORDER) else canonical_order
        names = [name for name in order if name in requested]
    passes = [_create_pass(name, config, **pass_kwargs.get(name, {})) for name in names]
    return Pipeline(passes, fixed_point=fixed_point, verify=verify, config=config)


def optimize(
    program: Program,
    enabled_passes: Optional[Iterable[str]] = None,
    fixed_point: bool = True,
    verify: bool = False,
    extended: bool = False,
    **pass_kwargs,
) -> OptimizationReport:
    """Optimize ``program`` with the default pipeline and return the report."""
    pipeline = default_pipeline(
        enabled_passes=enabled_passes,
        fixed_point=fixed_point,
        verify=verify,
        extended=extended,
        **pass_kwargs,
    )
    return pipeline.run(program)
