"""Copy propagation, in both directions.

``BH_IDENTITY dst, src`` copies a whole view.

**Forward** — when later byte-codes read ``dst`` while neither ``dst`` nor
``src`` has been written in between, they can read ``src`` directly.  Once
every reader has been redirected the copy itself usually becomes dead and
is swept up by DCE — together the two passes implement the "temporary
elimination" side of the paper's fusion-like contractions.  This direction
is deliberately conservative:

* only full-view to full-view copies with identical shapes are propagated;
* propagation stops at the first write to either base, at a ``BH_SYNC`` of
  the destination, and at a ``BH_FREE`` of the source;
* the destination view is only replaced when it appears as a *read* operand
  with exactly the same view as the copy wrote.

**Backward (store forwarding)** — when ``src`` is the full view of a
temporary ``T`` that one launch unit ``P`` produced only to be copied, ``P``
can store into ``dst`` directly: the NumPy stencil idiom ``interior =
f(work); nxt = work.copy(); nxt[1:-1, 1:-1] = interior`` then writes its
result where it is going instead of materialising ``interior``.  The copy
``C`` and ``BH_FREE T`` go, ``dst`` may be any view of the copy's shape.
The conditions (:meth:`CopyPropagationPass._forward_store`):

* ``T`` is written by exactly one launch unit — a bare element-wise
  byte-code, or a ``BH_FUSED`` kernel whose payload stores ``T``'s full
  view once — read by ``C`` only, of ``dst``'s dtype, and dead after ``C``
  (:meth:`~repro.core.analysis.DefUse.value_dead_after`: freed, never
  synced), so nothing else can miss the value;
* ``P`` touches nothing of ``dst``'s base (retargeting an in-place shifted
  window stencil would make the kernel read what it is overwriting);
* in the dependence DAG (:func:`repro.core.schedule.dependency_graph`) the
  edge ``P -> C`` is the **only** path from ``P`` to ``C``.  The byte-codes
  between the two that ``C`` depends on (the full copy ``nxt = work.copy()``,
  a write-after-write predecessor) are then independent of ``P`` and hoist
  above it; everything else keeps its place.  Checking only what ``P``
  reads is not enough: a fused ``P`` may also write a value an interleaved
  reduction reads, and sinking ``P`` past that reader changes its result;
* a *bare* producer waits while an input of its is still written by a bare
  element-wise byte-code of this program: fusion is about to cluster the
  chain, and the greedy list scheduler closes a cluster at an unscheduled
  predecessor — a chain tail retargeted early would depend on the hoisted
  copy and be stranded outside its kernel.  On the next fixed-point sweep
  the chain is one ``BH_FUSED`` unit and moves as one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.analysis import DefUse
from repro.core.rules import Pass, PassResult, PassStats
from repro.core.schedule import dependency_graph


class CopyPropagationPass(Pass):
    """Forward stores into copy destinations; redirect readers to copy sources."""

    name = "copy_propagation"

    def run(self, program: Program) -> PassResult:
        stats = self._new_stats(program)
        instructions = list(program)
        # Both directions start from a view-to-view BH_IDENTITY, so one walk
        # finds where to look.  The def-use index and the dependence DAG are
        # built only once one of them is a copy forwarding could apply to.
        copies = self._view_copies(instructions)
        if any(self._forwardable_copy(instructions[index]) for index in copies):
            instructions = self._forward_stores(instructions, stats)
            copies = self._view_copies(instructions)
        for index in copies:
            # Read here, not before the loop: an earlier propagation may have
            # redirected this copy's own source.
            copy = self._as_copy(instructions[index])
            if copy is None:
                continue
            dst, src = copy
            propagated = self._propagate(instructions, index, dst, src)
            if propagated:
                stats.rewrites_applied += 1
                stats.note(
                    f"redirected {propagated} read(s) of {dst.base.name} to {src.base.name}"
                )
        return self._finish(Program(instructions), stats)

    @staticmethod
    def _view_copies(instructions: List[Instruction]) -> List[int]:
        """Indices of the ``BH_IDENTITY view, view`` byte-codes (no constant fills)."""
        return [
            index
            for index, instruction in enumerate(instructions)
            if instruction.opcode is OpCode.BH_IDENTITY
            and len(instruction.operands) == 2
            and is_view(instruction.operands[1])
        ]

    def _as_copy(self, instruction: Instruction) -> Optional[tuple]:
        if instruction.opcode is not OpCode.BH_IDENTITY:
            return None
        out = instruction.out
        inputs = instruction.inputs
        if out is None or len(inputs) != 1 or not is_view(inputs[0]):
            return None
        src = inputs[0]
        if out.shape != src.shape:
            return None
        if out.base is src.base:
            return None
        if out.base.dtype != src.base.dtype:
            return None  # a converting identity computes: its reads see other values
        return out, src

    # ------------------------------------------------------------------ #
    # Backward: store forwarding
    # ------------------------------------------------------------------ #

    def _forwardable_copy(self, instruction: Instruction) -> Optional[tuple]:
        """``(dst, src)`` when ``instruction`` copies a whole base."""
        copy = self._as_copy(instruction)
        if copy is None:
            return None
        dst, src = copy
        if not src.covers_base():
            return None
        return copy

    def _forward_stores(
        self, instructions: List[Instruction], stats: PassStats
    ) -> List[Instruction]:
        """Apply every legal store forwarding, one def-use index per rewrite."""
        start = 0
        while True:
            defuse = DefUse.analyze(Program(instructions))
            for index in range(start, len(instructions)):
                forwarded = self._forward_store(instructions, defuse, index, stats)
                if forwarded is not None:
                    # Nothing before the producer moved: resume there.
                    instructions, start = forwarded
                    break
            else:
                return instructions

    def _forward_store(
        self,
        instructions: List[Instruction],
        defuse: DefUse,
        copy_index: int,
        stats: PassStats,
    ) -> Optional[tuple]:
        """Forward the producer's store into the copy at ``copy_index``.

        Returns ``(rewritten instructions, producer index)``, or ``None``
        when a condition of the module docstring fails.
        """
        copy = self._forwardable_copy(instructions[copy_index])
        if copy is None:
            return None
        dst, src = copy
        temporary = src.base
        accesses = defuse.accesses_of(temporary)
        writers = {access.index for access in accesses if access.is_write}
        if len(writers) != 1 or any(
            access.index != copy_index for access in accesses if not access.is_write
        ):
            return None
        (producer_index,) = writers
        if producer_index > copy_index or not defuse.value_dead_after(copy_index, src):
            return None
        producer = instructions[producer_index]
        if any(view.base is dst.base for view in producer.views()):
            return None
        retargeted = self._retarget(producer, src, dst, defuse)
        if retargeted is None:
            return None
        # Contract the edge producer -> copy.  Edges point forward, so every
        # path between the two lies inside the window they span; a second
        # one leaves the producer through a byte-code that reaches the copy.
        window = instructions[producer_index : copy_index + 1]
        successors, _ = dependency_graph(Program(window))
        last = len(window) - 1
        reaches_copy = {last}
        for position in range(last - 1, 0, -1):
            if successors[position] & reaches_copy:
                reaches_copy.add(position)
        reaches_copy.discard(last)
        if successors[0] & reaches_copy:
            return None
        hoisted = sorted(reaches_copy)
        stay = [
            window[position] for position in range(1, last) if position not in reaches_copy
        ]
        frees = set(defuse.freed.get(id(temporary), ()))
        rest = [
            instruction
            for index, instruction in enumerate(
                instructions[copy_index + 1 :], copy_index + 1
            )
            if index not in frees
        ]
        stats.rewrites_applied += 1
        stats.note(
            f"forwarded store of {temporary.name} to {dst.base.name}"
            + (f" (hoisted {len(hoisted)} byte-code(s))" if hoisted else "")
        )
        return (
            instructions[:producer_index]
            + [window[position] for position in hoisted]
            + [retargeted]
            + stay
            + rest,
            producer_index,
        )

    def _retarget(
        self, producer: Instruction, src: View, dst: View, defuse: DefUse
    ) -> Optional[Instruction]:
        """``producer`` storing into ``dst`` instead of ``src``, if it may."""
        if producer.is_fused():
            stores = [
                position
                for position, inner in enumerate(producer.kernel)
                if any(view.base is src.base for view in inner.writes())
            ]
            if len(stores) != 1 or not producer.kernel[stores[0]].out.same_view(src):
                return None
            payload = list(producer.kernel)
            payload[stores[0]] = self._with_output(payload[stores[0]], dst)
            return producer.replace(kernel=payload)
        if not producer.is_elementwise() or not producer.out.same_view(src):
            return None
        if any(
            access.instruction.is_elementwise()
            for view in producer.input_views
            for access in defuse.writes_of(view.base)
        ):
            return None  # wait for fusion to cluster the chain
        return self._with_output(producer, dst)

    def _with_output(self, instruction: Instruction, dst: View) -> Instruction:
        return instruction.replace(
            operands=(dst,) + instruction.operands[1:], tag=self.name
        )

    # ------------------------------------------------------------------ #
    # Forward: redirect readers
    # ------------------------------------------------------------------ #

    def _propagate(
        self, instructions: List[Instruction], copy_index: int, dst: View, src: View
    ) -> int:
        """Rewrite readers of ``dst`` after ``copy_index``; returns the count."""
        propagated = 0
        for index in range(copy_index + 1, len(instructions)):
            instruction = instructions[index]
            # Stop conditions first: anything that changes either value, or
            # makes the source unavailable, ends the propagation window.
            if instruction.opcode is OpCode.BH_FREE:
                if any(v.base is src.base or v.base is dst.base for v in instruction.views()):
                    break
                continue
            if instruction.opcode is OpCode.BH_SYNC:
                continue
            writes_dst = any(
                v.base is dst.base and v.overlaps(dst) for v in instruction.writes()
            )
            writes_src = any(
                v.base is src.base and v.overlaps(src) for v in instruction.writes()
            )
            replaced = self._rewrite_reads(instructions, index, dst, src)
            propagated += replaced
            if writes_dst or writes_src:
                break
        return propagated

    def _rewrite_reads(
        self, instructions: List[Instruction], index: int, dst: View, src: View
    ) -> int:
        """Replace read operands equal to ``dst`` with ``src`` in one instruction."""
        instruction = instructions[index]
        if instruction.kernel is not None:
            return 0
        info = instruction.info
        new_operands = list(instruction.operands)
        replaced = 0
        start = 1 if info.has_output else 0
        for position in range(start, len(new_operands)):
            operand = new_operands[position]
            if is_view(operand) and operand.same_view(dst):
                new_operands[position] = src
                replaced += 1
        if replaced:
            instructions[index] = instruction.replace(operands=new_operands, tag=self.name)
        return replaced
