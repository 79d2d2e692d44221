"""Semantic verification of rewrites.

A transformation is only worth having if the rewritten program computes the
same values.  The verifier executes the original and the optimized program
from identical randomised initial states on the reference interpreter and
compares every observable view (synced views plus surviving written bases).

The pipeline runs the verifier when built with ``verify=True``;
the test suite uses it directly (including property-based tests that feed
random programs through the optimizer).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.bytecode.base import BaseArray
from repro.bytecode.program import Program
from repro.bytecode.validate import validate_program
from repro.core.analysis import DefUse, observable_views
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.memory import MemoryManager
from repro.utils.errors import RewriteError, ValidationError


#: Seed of the verifier's random inputs and the base of a session's
#: ``BH_RANDOM`` seeds.
DEFAULT_SEED = 0x5EED


class VerificationError(RewriteError):
    """The optimized program disagrees with the original program."""


class SemanticVerifier:
    """Executes two programs from the same state and compares their outputs."""

    def __init__(
        self,
        rtol: float = 1e-6,
        atol: float = 1e-8,
        seed: int = DEFAULT_SEED,
        initial_values: Optional[Dict[BaseArray, np.ndarray]] = None,
    ) -> None:
        """
        Parameters
        ----------
        rtol / atol:
            Relative / absolute tolerances for the comparison.  Rewrites
            like constant merging and power expansion legitimately change
            floating-point rounding, so exact equality is not required.
        seed:
            Seed for the random initial contents of the input bases.
        initial_values:
            Optional explicit initial contents per base array; bases not
            listed are filled with reproducible random values.
        """
        self.rtol = rtol
        self.atol = atol
        self.seed = seed
        self.initial_values = dict(initial_values or {})

    # ------------------------------------------------------------------ #
    # State preparation
    # ------------------------------------------------------------------ #

    def _prepare_memory(self, bases: Iterable[BaseArray]) -> MemoryManager:
        memory = MemoryManager()
        rng = np.random.default_rng(self.seed)
        for base in bases:
            if base in self.initial_values:
                memory.set_data(base, self.initial_values[base])
                continue
            if base.dtype.is_bool:
                data = rng.integers(0, 2, size=base.nelem).astype(bool)
            elif base.dtype.is_integer:
                data = rng.integers(-8, 9, size=base.nelem)
            else:
                # Keep magnitudes moderate so chained multiplications do not
                # overflow and mask genuine disagreements.
                data = rng.uniform(0.5, 1.5, size=base.nelem)
            memory.set_data(base, data)
        return memory

    def _all_bases(self, *programs: Program) -> Tuple[BaseArray, ...]:
        seen = {}
        for program in programs:
            for base in program.bases():
                seen.setdefault(id(base), base)
        return tuple(seen.values())

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #

    def outputs(self, program: Program, memory: MemoryManager) -> Dict[str, np.ndarray]:
        """Execute ``program`` and collect its observable views by base name."""
        interpreter = NumPyInterpreter()
        result = interpreter.execute(program, memory)
        outputs: Dict[str, np.ndarray] = {}
        for view in observable_views(program):
            if not result.memory.is_allocated(view.base):
                continue
            outputs[view.base.name] = result.value(view)
        return outputs

    def equivalent(self, original: Program, optimized: Program) -> bool:
        """True when the two programs produce the same observable outputs."""
        try:
            self.check(original, optimized)
        except VerificationError:
            return False
        return True

    def check(self, original: Program, optimized: Program) -> None:
        """Raise :class:`VerificationError` when the programs disagree.

        Observability is defined by the *original* program: every view the
        original exposes must exist and match in the optimized program.  The
        optimized program may drop temporaries (that is the point of DCE),
        so extra missing internals on its side are only an error when the
        original exposes them.
        """
        try:
            # The interpreter would run a malformed kernel payload (a
            # reduction anywhere but last) member by member without complaint.
            validate_program(optimized)
        except ValidationError as exc:
            raise VerificationError(f"optimized program is malformed: {exc}") from None
        bases = self._all_bases(original, optimized)
        original_outputs = self.outputs(original, self._prepare_memory(bases))
        optimized_outputs = self.outputs(optimized, self._prepare_memory(bases))

        defuse = DefUse.analyze(original)
        synced_names = {
            base.name for base in defuse.bases.values() if defuse.is_synced(base)
        }

        for name, expected in original_outputs.items():
            if name not in optimized_outputs:
                # The optimized program may legitimately have eliminated a
                # base that the original wrote but never exposed via SYNC
                # (observable_views is conservative about surviving writes).
                # A SYNC'd base is a program output, though: losing it means
                # the rewrite destroyed an observable value, which used to
                # slip through here silently.
                if name in synced_names:
                    raise VerificationError(
                        f"output {name!r} was dropped by optimization: the "
                        f"original program exposes it via BH_SYNC but the "
                        f"optimized program never produces it"
                    )
                continue
            actual = optimized_outputs[name]
            if expected.shape != actual.shape:
                raise VerificationError(
                    f"output {name!r} changed shape: {expected.shape} -> {actual.shape}"
                )
            if not np.allclose(expected, actual, rtol=self.rtol, atol=self.atol, equal_nan=True):
                worst = float(np.max(np.abs(expected - actual)))
                raise VerificationError(
                    f"output {name!r} differs after optimization "
                    f"(max absolute error {worst:.3e})"
                )
