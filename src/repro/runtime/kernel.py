"""Kernels: groups of element-wise byte-codes executed as one launch.

Bohrium's JIT fuses consecutive element-wise byte-codes that iterate over
the same index space into a single generated OpenCL/OpenMP kernel, so the
data is traversed once instead of once per byte-code.  We reproduce the
clustering logic (:class:`Kernel`, :func:`partition_into_kernels`) and
compile each kernel form once into a :class:`KernelTemplate` the tiled
backends launch per tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode, opcode_info
from repro.bytecode.operand import is_constant, is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.runtime.interpreter import _erf
from repro.utils.errors import ExecutionError


@dataclass
class Kernel:
    """A fusable cluster of element-wise instructions.

    Attributes
    ----------
    instructions:
        The element-wise byte-codes in execution order.
    """

    instructions: List[Instruction] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of fused byte-codes."""
        return len(self.instructions)

    @property
    def shape(self) -> Optional[Tuple[int, ...]]:
        """The common output shape of the fused byte-codes."""
        for instruction in self.instructions:
            out = instruction.out
            if out is not None:
                return out.shape
        return None

    def output_views(self) -> Tuple[View, ...]:
        """Views written by the kernel."""
        return tuple(v for instr in self.instructions for v in instr.writes())

    def input_views(self) -> Tuple[View, ...]:
        """Views read by the kernel."""
        return tuple(v for instr in self.instructions for v in instr.reads())

    def can_accept(self, instruction: Instruction, max_size: int) -> bool:
        """Whether ``instruction`` may be appended to this kernel.

        Fusion requires the candidate to be element-wise, the kernel to have
        room, and *every* view operand of the candidate — output **and**
        inputs — to share the kernel's iteration space (a broadcast or
        differently-shaped input view iterates a different space and must
        not be folded into the kernel's single loop; dtypes follow bases,
        so a shape-matched view is automatically dtype-consistent with any
        kernel view of the same base).

        On top of the iteration-space rule, loop-fusion legality: inside one
        fused loop a statement may consume a value an earlier statement
        produced only through the *identical* view.  A shifted or otherwise
        overlapping window would read elements the fused loop has already
        overwritten (or not yet written), diverging from sequential
        execution — the kernel is cut instead.
        """
        if not instruction.is_elementwise():
            return False
        if self.size >= max_size:
            return False
        if not self.instructions:
            return True
        out = instruction.out
        if out is None or self.shape != out.shape:
            return False
        for view in instruction.input_views:
            if view.shape != self.shape:
                return False
        # Flow/output dependencies: candidate touching a view the kernel
        # writes must do so through the identical view.
        for written in self.output_views():
            for view in instruction.views():
                if not view.same_view(written) and view.overlaps(written):
                    return False
        # Anti-dependency: candidate overwriting elements an earlier
        # statement reads through a different window.
        for view in instruction.writes():
            for read in self.input_views():
                if not view.same_view(read) and view.overlaps(read):
                    return False
        return True

    def append(self, instruction: Instruction) -> None:
        """Add one instruction to the cluster."""
        self.instructions.append(instruction)

    def as_instruction(self, tag: Optional[str] = None) -> Instruction:
        """Wrap the cluster into a single ``BH_FUSED`` byte-code."""
        return Instruction(OpCode.BH_FUSED, (), kernel=self.instructions, tag=tag)


#: Elements per slot a blocked template launch evaluates before moving on:
#: all byte-codes of a fused kernel run over one block while its lanes
#: (15 float64 slots of this size are ~2 MB) are still cache-resident.
#: Smaller blocks pay more interpreter dispatch per element, larger ones
#: grow every lane for no resolvable gain (measured 4 K .. 64 K, see
#: CHANGES.md, PR 17); results never depend on it.
TEMPLATE_BLOCK_ELEMENTS = 16384


class KernelTemplate:
    """A compiled kernel parameterized over its operand views.

    A template closes over *slot indices* instead of concrete views, so one
    compiled artifact serves every structurally identical kernel: the caller
    supplies the kernel's concrete views (from :func:`kernel_slot_views`) at
    launch time.  This is what lets a template cache share entries between
    equivalent kernels that differ only in their temporaries.

    Every launch resolves its slots to ndarrays once and hands the steps
    those arrays.  There are two: :meth:`blocked` for a map step tiling
    proved row-sliceable, :meth:`evaluate` for the producers of a reduction
    tail.  Templates are shared between threads, so a launch keeps nothing
    on the template: block scratch belongs to the call.
    """

    __slots__ = ("key", "num_slots", "uses_erf", "_steps")

    def __init__(self, key: tuple, num_slots: int, steps, uses_erf: bool) -> None:
        self.key = key
        self.num_slots = num_slots
        #: Whether a launch runs ``BH_ERF``: the launching tier then asks
        #: :func:`~repro.runtime.interpreter.erf_helper`.
        self.uses_erf = uses_erf
        self._steps = tuple(steps)

    def blocked(self, local_slots: frozenset, erf=None) -> "BlockedTemplateLaunch":
        """This template as a row-blocked launcher eliding ``local_slots``,
        its ``BH_ERF`` steps calling the vector ``erf`` (``None``: the loop)."""
        return BlockedTemplateLaunch(self, local_slots, erf)

    def evaluate(self, memory, views: Sequence[View], local_slots, result: int, erf=None):
        """Run every byte-code once over ``views``; return slot ``result``'s array.

        For the producers of a reduction tail: ``views`` are one tile span's
        slices and each local slot gets one uninitialised, span-sized lane
        owned by the call — not blocks: the reduction that consumes the
        returned array must see the span it sees when the array is real.
        """
        arrays = self._resolve(memory, views, local_slots)
        for position in local_slots:
            view = views[position]
            arrays[position] = np.empty(view.shape, view.dtype.np_dtype)
        for step in self._steps:
            step(arrays, erf)
        return arrays[result]

    def _resolve(self, memory, views: Sequence[View], local_slots) -> list:
        """One ndarray per slot (``None`` for a local one), resolved once."""
        if len(views) != self.num_slots:
            raise ExecutionError(
                f"kernel template expects {self.num_slots} view(s), got {len(views)}"
            )
        return [
            None if position in local_slots else memory.view_array(view)
            for position, view in enumerate(views)
        ]


class BlockedTemplateLaunch:
    """A template bound to one row-sliceable step, evaluated block by block.

    Only a caller that proved the kernel row-sliceable may ask for this
    (the tile decomposition does: every view shares the kernel's shape and
    no written window overlaps a different one): the launch walks its rows
    in blocks of about :data:`TEMPLATE_BLOCK_ELEMENTS` elements and runs
    *all* byte-codes on a block before moving on, which reorders work
    across rows but never within one.

    ``elided_slots`` are the step's kernel-local slots — stored before they
    are loaded, observed by nobody else.  As with a compiled launch, the
    caller allocates no storage for them; each gets one block-sized,
    uninitialised scratch lane owned by the call and reused across its
    blocks.
    """

    __slots__ = ("_template", "elided_slots", "_erf")

    def __init__(self, template: KernelTemplate, local_slots: frozenset, erf=None) -> None:
        self._template = template
        self.elided_slots = local_slots
        self._erf = erf

    def __call__(self, memory, views: Sequence[View]) -> None:
        template, local = self._template, self.elided_slots
        arrays = template._resolve(memory, views, local)
        shape = views[0].shape
        rows = shape[0]
        block_rows = max(1, TEMPLATE_BLOCK_ELEMENTS // max(1, math.prod(shape[1:])))
        lanes = {
            position: np.empty(
                (min(rows, block_rows),) + shape[1:], views[position].dtype.np_dtype
            )
            for position in local
        }
        for start in range(0, rows, block_rows):
            stop = min(rows, start + block_rows)
            block = [
                lanes[position][: stop - start] if array is None else array[start:stop]
                for position, array in enumerate(arrays)
            ]
            for step in template._steps:
                step(block, self._erf)


def split_tail(instructions: Sequence[Instruction]):
    """``(element-wise members, reduction tail or None)`` of a launch unit.

    A kernel may end in one reduction (:mod:`repro.core.schedule`); a bare
    reduction is the kernel with no members.
    """
    if instructions and instructions[-1].is_reduction():
        return tuple(instructions[:-1]), instructions[-1]
    return tuple(instructions), None


def _slot_walk(instructions: Sequence[Instruction]):
    """One canonical walk yielding the key, the slot views and step specs.

    The walk assigns a *slot* to each distinct view token (first-occurrence
    order); the structural key and the slot assignment come from the same
    traversal, so a template compiled from one kernel resolves correctly
    against the slot views of any kernel with an equal key.
    """
    from repro.runtime.plan import OperandEncoder

    encoder = OperandEncoder()
    key_parts = []
    slot_of = {}
    slot_views: List[View] = []
    specs = []
    for instruction in instructions:
        key_parts.append(encoder.encode_instruction(instruction))
        operand_refs = []
        for operand in instruction.operands:
            if is_constant(operand):
                operand_refs.append(("const", operand))
                continue
            token = encoder.encode(operand)
            slot = slot_of.get(token)
            if slot is None:
                slot = len(slot_views)
                slot_of[token] = slot
                slot_views.append(operand)
            operand_refs.append(("slot", slot))
        specs.append((instruction, tuple(operand_refs)))
    return tuple(key_parts), tuple(slot_views), specs


def kernel_structural_key(instructions: Sequence[Instruction]) -> tuple:
    """Canonical structural key of a kernel's instruction list."""
    key, _, _ = _slot_walk(instructions)
    return key


def kernel_slot_views(instructions: Sequence[Instruction]) -> Tuple[View, ...]:
    """The distinct views of a kernel, in template slot order."""
    _, slots, _ = _slot_walk(instructions)
    return slots


def compile_kernel_template(instructions: Sequence[Instruction]) -> KernelTemplate:
    """Compile an instruction list into a view-parameterized template."""
    key, _, specs = _slot_walk(instructions)
    return _compile_template(key, specs)


def prepare_kernel_launch(instructions: Sequence[Instruction]):
    """One canonical walk returning ``(key, slot views, template factory)``.

    Callers holding a template cache (the tiled parallel backend launches
    one template per tile every execution) need the structural key *and*
    the launch views; this pays the :func:`_slot_walk` traversal once for
    both, and the returned zero-argument factory compiles the template
    only when the key missed the cache.
    """
    key, slots, specs = _slot_walk(instructions)
    return key, slots, lambda: _compile_template(key, specs)


#: Entries every kernel-form cache holds (the tiled backends' template
#: caches, the native launch cache).
KERNEL_CACHE_CAPACITY = 256


def cached_kernel_launch(cache, instructions: Sequence[Instruction], prepared=None):
    """``(slot views, template)`` for one launch through ``cache``.

    ``cache`` is the caller's :class:`~repro.utils.lru.BoundedLRU` of
    templates by structural key.  ``prepared`` is the caller's own
    :func:`prepare_kernel_launch` result when it has already paid the walk
    (the native backend keys its compiled launchables by the same key).
    """
    key, slots, make_template = prepared or prepare_kernel_launch(instructions)
    template = cache.get(key)
    if template is None:
        # Built outside the cache's lock; a concurrent miss of the same
        # form adopts whichever template was published first.
        template = cache.setdefault(key, make_template())
    return slots, template


def _compile_template(key: tuple, specs) -> KernelTemplate:
    steps = [_compile_step(instruction, refs) for instruction, refs in specs]
    num_slots = 0
    for _, refs in specs:
        for kind, value in refs:
            if kind == "slot":
                num_slots = max(num_slots, value + 1)
    uses_erf = any(instruction.opcode is OpCode.BH_ERF for instruction, _ in specs)
    return KernelTemplate(key=key, num_slots=num_slots, steps=steps, uses_erf=uses_erf)


def _loop_produces(func, instruction: Instruction) -> bool:
    """Whether ``func``'s NumPy loop for these operands yields the output dtype.

    Asked of NumPy itself, on one-element stand-ins of the operands' dtypes
    and ranks (constants as they are), so promotion rules are never
    re-derived here.  A stand-in NumPy rejects answers "no": the launch then
    raises exactly where it always did.
    """
    samples = [
        operand.as_numpy()
        if is_constant(operand)
        else np.ones((1,) * operand.ndim, dtype=operand.dtype.np_dtype)
        for operand in instruction.inputs
    ]
    try:
        with np.errstate(all="ignore"):
            produced = func(*samples).dtype
    except (TypeError, ValueError):
        return False
    return produced == instruction.out.dtype.np_dtype


def _inputs(sources, arrays) -> list:
    """A step's input values: each source's array by slot, or its constant."""
    return [value if slot is None else arrays[slot] for slot, value in sources]


def _compile_step(instruction: Instruction, operand_refs):
    """Compile one element-wise byte-code into a step over per-slot arrays.

    The step takes the launch's (or one block's) arrays by slot index and
    the launch's vector erf; constants are resolved here, once.
    """
    info = opcode_info(instruction.opcode)
    if not info.elementwise:
        raise ExecutionError(f"cannot compile non-element-wise {instruction.opcode} into a kernel")
    out_kind, out_slot = operand_refs[0]
    if out_kind != "slot":
        raise ExecutionError(f"{instruction.opcode} writes to a constant operand")
    # Per input: (slot, None) for a view, (None, value) for a constant.
    sources = tuple(
        (None, ref.as_numpy()) if kind == "const" else (ref, None)
        for kind, ref in operand_refs[1:]
    )

    if instruction.opcode is OpCode.BH_IDENTITY:

        def run_identity(arrays, erf) -> None:
            np.copyto(arrays[out_slot], _inputs(sources, arrays)[0], casting="unsafe")

        return run_identity

    if instruction.opcode is OpCode.BH_ERF:  # the one op-code NumPy has no ufunc for

        def run_erf(arrays, erf) -> None:
            _erf(_inputs(sources, arrays)[0], arrays[out_slot], erf)

        return run_erf

    func = getattr(np, info.numpy_name)

    if _loop_produces(func, instruction):
        # The loop's result needs no cast: write it in place — no hidden
        # full-size temporary, no second pass.  NumPy picks the loop from
        # the inputs alone, so each element sees the one the oracle runs.
        def run_in_place(arrays, erf) -> None:
            func(*_inputs(sources, arrays), out=arrays[out_slot])

        return run_in_place

    def run_cast(arrays, erf) -> None:
        # A dtype-changing store (a comparison into a float view): compute
        # in the loop's own dtype, then cast-copy, as the interpreter does.
        out = arrays[out_slot]
        np.copyto(out, func(*_inputs(sources, arrays)), casting="unsafe")

    return run_cast


#: Most element-wise byte-codes fused into one kernel.
MAX_KERNEL_SIZE = 32


def partition_into_kernels(
    program: Program, max_kernel_size: int = MAX_KERNEL_SIZE
) -> List[object]:
    """Greedy fusion clustering of a program.

    Returns a list whose items are either :class:`Kernel` objects (clusters
    of consecutive fusable element-wise byte-codes) or bare
    :class:`Instruction` objects (reductions, extension methods, system
    byte-codes and anything else that cannot be fused).

    The clustering is the same "consecutive, same shape" policy Bohrium's
    simple fuser applies; a kernel is cut whenever the next instruction is
    not element-wise, has a different iteration space, or the kernel reached
    ``max_kernel_size`` (default :data:`MAX_KERNEL_SIZE`).  The
    dependency-graph scheduler (:mod:`repro.core.schedule`) supersedes this
    policy behind the shared partitioning seam; this walk remains the
    ``"consecutive"`` mode and the low-level clustering primitive.
    """
    partition: List[object] = []
    current: Optional[Kernel] = None
    for instruction in program:
        if instruction.is_elementwise():
            if current is None:
                current = Kernel()
            if not current.can_accept(instruction, max_kernel_size):
                partition.append(current)
                current = Kernel()
            current.append(instruction)
            continue
        if current is not None and current.size > 0:
            partition.append(current)
            current = None
        partition.append(instruction)
    if current is not None and current.size > 0:
        partition.append(current)
    return partition
