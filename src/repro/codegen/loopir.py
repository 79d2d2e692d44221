"""The loop-nest IR and the byte-code → IR lowering rules.

A fused kernel is a straight-line sequence of element-wise byte-codes over
views that all share one iteration space.  Lowering turns that sequence
into a :class:`LoopNest`: a rank-R loop over the common shape whose body is
a list of scalar :class:`Store` statements into per-view *slots* — the same
slot assignment :func:`repro.runtime.kernel._slot_walk` computes, so a
compiled artifact launched with :func:`~repro.runtime.kernel.kernel_slot_views`
binds each slot to the right concrete view.

The IR is deliberately *geometry-generic*: shapes and strides are runtime
arguments of the emitted function, so one compiled artifact serves every
tile of a tiled execution and every structurally identical kernel,
whatever its array sizes.

Lowering is **bitwise-conservative**: an op-code is lowered only when the
emitted C provably reproduces NumPy's result bit-for-bit on the supported
dtypes (bool, int32/64, float32/64).  Everything else — transcendentals
whose libm results differ from NumPy's SIMD kernels (``BH_ERF`` is the
exception: NumPy has no ``erf``, the host libm's *is* its definition on
every tier, see :mod:`repro.runtime.interpreter`), bool arithmetic with
saturating semantics, value-dependent integer ops NumPy guards specially —
raises :class:`LoweringError` and the caller falls back to the interpreted
kernel template.  Compute and result dtypes are not re-derived from a
promotion table: each step is *probed* against NumPy itself on zero-size
operands, so NEP-50 promotion changes can never skew the generated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.bytecode import dtypes
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode, opcode_info
from repro.bytecode.view import View


class LoweringError(Exception):
    """Raised when a kernel cannot be lowered bitwise-safely to native code."""


# --------------------------------------------------------------------------- #
# Expression and statement nodes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Load:
    """Read the current element of a slot; value dtype is the slot's storage."""

    slot: int
    dtype_name: str


@dataclass(frozen=True)
class Literal:
    """A scalar constant, already converted to its target dtype."""

    value: object  # a NumPy scalar of dtype_name's np_dtype
    dtype_name: str


@dataclass(frozen=True)
class Cast:
    """Convert a value to another dtype (C cast; bool targets compare != 0)."""

    arg: object
    dtype_name: str


@dataclass(frozen=True)
class Op:
    """A primitive operation over already-typed arguments.

    ``kind`` is one of the emitter's primitive kinds (``"add"``, ``"max"``,
    ``"lt"``, ...); ``dtype_name`` is the *value* dtype of the expression
    (the compute dtype for arithmetic, ``BH_BOOL`` for comparisons and
    logicals).
    """

    kind: str
    dtype_name: str
    args: Tuple[object, ...]


@dataclass(frozen=True)
class Store:
    """Assign an expression to the current element of ``slot``.

    The emitted assignment casts the expression's value dtype to the slot's
    storage dtype exactly like the interpreter's
    ``np.copyto(out, result, casting="unsafe")``.
    """

    slot: int
    expr: object


def is_operand(literal: Literal) -> bool:
    """Whether a literal is a launch operand of the compiled kernel and not
    part of its text: any float32/float64, so that kernels differing only in
    a float are one artifact.  Integer and bool literals count, index and
    mask, and stay text.  (A nest that stores nothing but literals is never
    compiled: the native backend writes it as a fill.)"""
    return literal.dtype_name in ("BH_FLOAT32", "BH_FLOAT64")


def float_literals(body: Sequence[Store]) -> Tuple[Literal, ...]:
    """The operand literals of a statement list, one entry per occurrence, in
    expression order (statement by statement, arguments left to right).

    This order is the artifact's ABI: literal ``i`` is the kernel's ``k<i>``
    and the ``i``-th literal entry of ``ptrs``, so two bodies that differ
    only in these values emit the same C and share one artifact.
    """
    found = []

    def walk(expr) -> None:
        if isinstance(expr, Literal):
            if is_operand(expr):
                found.append(expr)
        elif isinstance(expr, Cast):
            walk(expr.arg)
        elif isinstance(expr, Op):
            for arg in expr.args:
                walk(arg)

    for statement in body:
        walk(statement.expr)
    return tuple(found)


@dataclass(frozen=True)
class LoopNest:
    """A rank-R element-wise loop nest over slot views.

    Attributes
    ----------
    rank:
        Number of loop dimensions (the common view rank).
    slot_dtypes:
        Storage dtype name per slot, in slot order.
    body:
        The :class:`Store` statements, in program order.
    """

    rank: int
    slot_dtypes: Tuple[str, ...]
    body: Tuple[Store, ...]
    #: Slots whose stores never reach memory: liveness proved their base is
    #: instruction-local (see :func:`lower_kernel`'s ``local_slots``), so
    #: the value lives purely in the per-iteration scalar local and the
    #: backend neither allocates nor passes real storage for them.
    elided_slots: frozenset = frozenset()

    @property
    def num_slots(self) -> int:
        return len(self.slot_dtypes)



# --------------------------------------------------------------------------- #
# Supported op-codes
# --------------------------------------------------------------------------- #

#: Binary arithmetic ops whose C emission is bitwise-equal to the NumPy loop
#: on the probed compute dtype.
_ARITH_KINDS = {
    OpCode.BH_ADD: "add",
    OpCode.BH_SUBTRACT: "sub",
    OpCode.BH_MULTIPLY: "mul",
    OpCode.BH_DIVIDE: "div",
    OpCode.BH_MOD: "mod",
    OpCode.BH_MAXIMUM: "max",
    OpCode.BH_MINIMUM: "min",
}

_UNARY_KINDS = {
    OpCode.BH_NEGATIVE: "neg",
    OpCode.BH_ABSOLUTE: "abs",
    OpCode.BH_SQRT: "sqrt",
    OpCode.BH_RECIPROCAL: "recip",
    OpCode.BH_ERF: "erf",
}

_COMPARE_KINDS = {
    OpCode.BH_GREATER: "gt",
    OpCode.BH_GREATER_EQUAL: "ge",
    OpCode.BH_LESS: "lt",
    OpCode.BH_LESS_EQUAL: "le",
    OpCode.BH_EQUAL: "eq",
    OpCode.BH_NOT_EQUAL: "ne",
}

_LOGICAL_KINDS = {
    OpCode.BH_LOGICAL_AND: "land",
    OpCode.BH_LOGICAL_OR: "lor",
    OpCode.BH_LOGICAL_NOT: "lnot",
}

#: Arithmetic kinds whose C emission diverges from NumPy when the compute
#: dtype is bool (NumPy's bool add saturates to logical-or; C ``1 + 1`` is 2).
_BOOL_UNSAFE_KINDS = frozenset({"add", "sub", "div", "mod", "neg"})

#: NumPy dtype → byte-code dtype name, *exact* matches only.  Lowering must
#: reject any probe result outside the supported storage set instead of
#: rounding it to the nearest supported dtype the way
#: :func:`repro.bytecode.dtypes.from_numpy` does.
_EXACT_DTYPE_NAMES = {dt.np_dtype: dt.name for dt in dtypes.all_dtypes()}

#: Loop ranks the emitter generates nests for.
MAX_RANK = 4


def supported_opcodes() -> frozenset:
    """The op-codes :func:`lower_kernel` can lower (given friendly dtypes)."""
    return frozenset(
        {OpCode.BH_IDENTITY}
        | set(_ARITH_KINDS)
        | set(_UNARY_KINDS)
        | set(_COMPARE_KINDS)
        | set(_LOGICAL_KINDS)
    )


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #


def _exact_dtype_name(np_dtype) -> str:
    name = _EXACT_DTYPE_NAMES.get(np.dtype(np_dtype))
    if name is None:
        raise LoweringError(f"unsupported compute dtype {np_dtype!r}")
    return name


def _write_is_injective(view: View) -> bool:
    """Sufficient condition that a strided view never writes one element twice.

    Sort dimensions by absolute stride; the view is injective when every
    stride strictly exceeds the maximal index span reachable through all
    smaller-stride dimensions (and no extent-over-one dimension has stride
    zero).  Contiguous and sliced views always pass; genuinely self-aliasing
    broadcasts fail and the kernel falls back to the interpreter.
    """
    dims = sorted(
        (abs(stride), extent)
        for stride, extent in zip(view.strides, view.shape)
        if extent > 1
    )
    span = 0
    for stride, extent in dims:
        if stride == 0 or stride <= span:
            return False
        span += stride * (extent - 1)
    return True


def _operand(kind: str, ref, slot_views, known):
    """``(expression, NumPy stand-in)`` of one input, for lowering and for
    probing NumPy: a constant is its typed scalar, a slot a zero-size array
    of its dtype — or, when the kernel just stored a constant there
    (``known``), that constant as a one-element array."""
    if kind == "const":
        value = ref.as_numpy()
        return Literal(value, ref.dtype.name), value
    literal = known.get(ref)
    if literal is not None:
        return literal, np.full(1, literal.value)
    dtype = slot_views[ref].dtype
    return Load(ref, dtype.name), np.zeros(0, dtype=dtype.np_dtype)


def _cast(expr, dtype_name: str):
    """Coerce an expression to ``dtype_name``; literals fold with NumPy casts."""
    if expr.dtype_name == dtype_name:
        return expr
    if isinstance(expr, Literal):
        target = dtypes.from_name(dtype_name).np_dtype
        value = np.asarray(expr.value).astype(target, casting="unsafe")[()]
        return Literal(value, dtype_name)
    return Cast(expr, dtype_name)


def _probe(instruction: Instruction, samples) -> np.ndarray:
    """Ask NumPy itself what this step produces on these operands."""
    info = opcode_info(instruction.opcode)
    func = getattr(np, info.numpy_name)
    try:
        with np.errstate(all="ignore"):  # constants may overflow or divide by zero
            return np.asarray(func(*samples))
    except Exception as exc:
        raise LoweringError(
            f"NumPy rejects {instruction.opcode} on these operand dtypes: {exc}"
        ) from None


def _lower_instruction(instruction: Instruction, refs, slot_views, known) -> Store:
    opcode = instruction.opcode
    out_kind, out_slot = refs[0]
    if out_kind != "slot":
        raise LoweringError(f"{opcode} writes to a constant operand")
    args, samples = zip(*(_operand(kind, ref, slot_views, known) for kind, ref in refs[1:]))

    if opcode is OpCode.BH_IDENTITY:
        # Pure copy; the store-side cast reproduces copyto(..., "unsafe").
        return Store(out_slot, args[0])

    if opcode in _LOGICAL_KINDS:
        # Each operand is tested != 0 in its own storage dtype; no
        # promotion is involved, exactly like NumPy's logical loops.
        return Store(out_slot, Op(_LOGICAL_KINDS[opcode], "BH_BOOL", tuple(args)))

    if opcode is OpCode.BH_ERF:
        # There is no NumPy loop to probe: BH_ERF is defined in double — the
        # host libm's erf — whatever dtype the operand is stored in.
        operand = _cast(args[0], "BH_FLOAT64")
        return Store(out_slot, Op("erf", "BH_FLOAT64", (operand,)))

    if opcode in _COMPARE_KINDS:
        try:
            compute = _exact_dtype_name(np.result_type(*samples))
        except LoweringError:
            raise
        except Exception as exc:
            raise LoweringError(f"cannot promote operands of {opcode}: {exc}") from None
        operands = tuple(_cast(arg, compute) for arg in args)
        return Store(out_slot, Op(_COMPARE_KINDS[opcode], "BH_BOOL", operands))

    kind = _ARITH_KINDS.get(opcode) or _UNARY_KINDS.get(opcode)
    if kind is None:
        raise LoweringError(f"no bitwise-safe lowering for {opcode}")
    probed = _probe(instruction, samples)
    compute = _exact_dtype_name(probed.dtype)
    compute_dt = dtypes.from_name(compute)
    if compute_dt.is_bool and kind in _BOOL_UNSAFE_KINDS:
        raise LoweringError(f"{opcode} on bools has NumPy-specific semantics")
    if kind == "recip" and not compute_dt.is_float:
        raise LoweringError("integer reciprocal is NumPy-specific")
    if kind == "div" and not compute_dt.is_float:
        # BH_DIVIDE is true division; NumPy always promotes it to float, so
        # an integer compute dtype here means the probe model broke.
        raise LoweringError("non-float true division cannot be lowered")
    if all(isinstance(arg, Literal) for arg in args):
        # Constants only: NumPy computed the value while it was asked for the
        # dtype.  A loop-invariant chain is one literal, not a loop the C
        # compiler has to hoist (it cannot fold what it is not shown).
        return Store(out_slot, Literal(probed.ravel()[0], compute))
    operands = tuple(_cast(arg, compute) for arg in args)
    return Store(out_slot, Op(kind, compute, operands))


def lower_kernel(
    instructions: Sequence[Instruction], local_slots: frozenset = frozenset()
) -> LoopNest:
    """Lower a kernel's instruction list to a :class:`LoopNest`.

    ``local_slots`` are slot indices whose base arrays liveness proved to be
    *instruction-local* (written and read only inside this kernel, freed,
    never synced — see :func:`repro.runtime.tiling.decompose`).  Stores to
    such slots stay in scalar locals and are elided from memory, which is
    the codegen backend's main traffic win on long fused chains.  The
    tiling's set is already store-first; the intersection below only keeps
    a hand-built ``local_slots`` from eliding a slot the kernel loads first
    (which would have to read its zero-initialised storage).

    Raises
    ------
    LoweringError
        When any instruction, dtype or view-aliasing pattern has no
        bitwise-safe native lowering; the caller falls back to the
        interpreted kernel template.
    """
    from repro.runtime.kernel import _slot_walk
    from repro.runtime.tiling import store_first_slots

    _, slot_views, specs = _slot_walk(instructions)
    if not slot_views:
        raise LoweringError("kernel has no view operands")
    shape = slot_views[0].shape
    rank = len(shape)
    if rank < 1 or rank > MAX_RANK:
        raise LoweringError(f"rank {rank} outside the emitter's 1..{MAX_RANK} range")
    for view in slot_views:
        if view.shape != shape:
            raise LoweringError("slot views disagree on the iteration space")
        if view.dtype.np_dtype not in _EXACT_DTYPE_NAMES:
            raise LoweringError(f"unsupported storage dtype {view.dtype.name}")

    supported = supported_opcodes()
    written = []
    for instruction, refs in specs:
        if instruction.opcode not in supported:
            raise LoweringError(f"unsupported op-code {instruction.opcode}")
        out_kind, out_slot = refs[0]
        if out_kind == "slot":
            written.append(out_slot)

    # A single element-wise C loop interleaves reads and writes per element,
    # so any written view overlapping a *different* slot's view (identical
    # views share a slot by construction) would diverge from the
    # interpreter's read-everything-then-write semantics.  Self-aliasing
    # writes (zero or colliding strides) would additionally make the
    # dead-store elision unsound.
    for out_slot in written:
        out_view = slot_views[out_slot]
        if not _write_is_injective(out_view):
            raise LoweringError("written view may alias itself")
        for index, view in enumerate(slot_views):
            if index != out_slot and view.overlaps(out_view):
                raise LoweringError("written view overlaps another operand window")

    body = []
    known = {}  # slot -> the Literal it holds, in its storage dtype
    for instruction, refs in specs:
        store = _lower_instruction(instruction, refs, slot_views, known)
        body.append(store)
        if isinstance(store.expr, Literal):
            known[store.slot] = _cast(store.expr, slot_views[store.slot].dtype.name)
        else:
            known.pop(store.slot, None)
    return LoopNest(
        rank=rank,
        slot_dtypes=tuple(view.dtype.name for view in slot_views),
        body=tuple(body),
        elided_slots=frozenset(local_slots) & store_first_slots(specs),
    )
