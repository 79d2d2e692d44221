"""Execution plans: fingerprinted, cached artifacts of the middleware pipeline.

Repeated-flush workloads (the heat-equation stencil, parameter sweeps,
Monte-Carlo draws) hand the runtime a *structurally identical* byte-code
program hundreds of times — only the base-array identities differ between
iterations, because the front-end allocates fresh temporaries each round,
and the ``BH_RANDOM`` seeds, because the session counts them up.
Re-running the full optimization pipeline and kernel partitioning for every
flush wastes exactly the middleware overhead the paper sets out to amortize.

This module provides the three pieces that make flushes cacheable:

* :func:`canonical_program_walk` / :func:`program_fingerprint` — a canonical
  structural encoding of a program (op-codes, operand geometry, constants)
  that is *tolerant of base-array identity and of data operands*: two
  programs that differ only in which concrete
  :class:`~repro.bytecode.base.BaseArray` objects they reference, and in
  the values of the operands their op-codes declare as data
  (:attr:`~repro.bytecode.opcodes.OpCodeInfo.data_operands` — the seed),
  hash identically.  Every other constant is structure: a pass may decide
  on it and a kernel bakes it in, so its value stays in the key.
* :class:`ExecutionPlan` — the cached artifact: the optimized program, its
  optimization report and the canonical base and value enumerations it was
  derived from.  :meth:`ExecutionPlan.bind` rebinds the plan onto the base
  arrays and data values of a new, structurally identical program in one
  linear pass — no optimizer.
* :class:`PlanCache` — the shared :class:`~repro.utils.lru.BoundedLRU`
  mapping cache keys to plans, with hit/miss/eviction counters surfaced
  through the execution statistics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.bytecode.base import BaseArray
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OPCODE_INFO
from repro.bytecode.operand import Constant, is_constant, is_view
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.utils.config import Config
from repro.utils.errors import ExecutionError
from repro.utils.lru import BoundedLRU


# --------------------------------------------------------------------------- #
# Canonical encoding and fingerprinting
# --------------------------------------------------------------------------- #


class _Enumerator:
    """Assigns dense indices to objects in first-use order, by identity."""

    def __init__(self) -> None:
        self.order: list = []
        self._index: Dict[int, int] = {}

    def index_of(self, item) -> int:
        key = id(item)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.order)
            self._index[key] = idx
            self.order.append(item)
        return idx


#: Op-code name -> operand positions that are data (see
#: :attr:`~repro.bytecode.opcodes.OpCodeInfo.data_operands`).  Keyed by name
#: because the walk has the name in hand and an enum member hashes slowly.
_DATA_OPERANDS: Dict[str, Tuple[int, ...]] = {
    opcode.name: info.data_operands
    for opcode, info in OPCODE_INFO.items()
    if info.data_operands
}


def data_operand_positions(instruction: Instruction) -> Tuple[int, ...]:
    """Positions in ``instruction.operands`` holding data constants."""
    operands = instruction.operands
    return tuple(
        position
        for position in _DATA_OPERANDS.get(instruction.opcode.name, ())
        if position < len(operands) and is_constant(operands[position])
    )


def _encode_operand(operand, bases: _Enumerator) -> tuple:
    if is_view(operand):
        return (
            "v",
            bases.index_of(operand.base),
            operand.base.nelem,
            operand.base.dtype.name,
            operand.offset,
            operand.shape,
            operand.strides,
        )
    if is_constant(operand):
        return ("c", operand.dtype.name, operand.value)
    raise ExecutionError(f"cannot encode operand {operand!r}")


def _encode_instruction(
    instruction: Instruction, bases: _Enumerator, values: _Enumerator
) -> tuple:
    # ``_name_`` is the enum's own slot behind the (much slower) ``name``
    # property; this walk runs on every flush.
    name = instruction.opcode._name_
    data = _DATA_OPERANDS.get(name)
    if data is None:
        operands = tuple(_encode_operand(op, bases) for op in instruction.operands)
    else:
        # A data operand is an argument of the plan: the key keeps its dtype
        # and which of the flush's values it is, never the value itself.
        operands = tuple(
            ("d", op.dtype.name, values.index_of(op))
            if position in data and is_constant(op)
            else _encode_operand(op, bases)
            for position, op in enumerate(instruction.operands)
        )
    if instruction.kernel is not None:
        payload = tuple(
            _encode_instruction(inner, bases, values) for inner in instruction.kernel
        )
        return (name, operands, payload)
    return (name, operands)


class OperandEncoder:
    """Stateful canonical encoder for kernel fingerprinting.

    Base arrays are numbered in first-use order, so the encoding of a view
    depends only on *which* base it references relative to the walk — not on
    the base's identity or auto-generated name.  Encoding is idempotent: the
    same operand always yields the same token for one encoder instance.
    """

    def __init__(self) -> None:
        self._bases = _Enumerator()
        self._values = _Enumerator()

    def encode(self, operand) -> tuple:
        """Canonical token for a view or constant operand."""
        return _encode_operand(operand, self._bases)

    def encode_instruction(self, instruction: Instruction) -> tuple:
        """Canonical token for a whole instruction (kernel payload included)."""
        token = _encode_instruction(instruction, self._bases, self._values)
        if self._values.order:
            # A template (and emitted C) bakes every constant it is compiled
            # from, and kernels are shared by key: a value the key abstracts
            # must never reach one.
            raise ExecutionError(
                f"{instruction.opcode.name} carries a data operand; it cannot "
                f"be launched through a kernel template"
            )
        return token

    @property
    def bases(self) -> Tuple[BaseArray, ...]:
        """Bases seen so far, in first-use (index) order."""
        return tuple(self._bases.order)


def _walk_instruction_bases(instruction: Instruction, enumerator: _Enumerator) -> None:
    for operand in instruction.operands:
        if is_view(operand):
            enumerator.index_of(operand.base)
    if instruction.kernel is not None:
        for inner in instruction.kernel:
            _walk_instruction_bases(inner, enumerator)


def program_base_order(program: Program) -> Tuple[BaseArray, ...]:
    """The program's base arrays in canonical (first-use) order.

    Exactly the enumeration :func:`canonical_program_key` builds, without
    paying for the structural tokens.  Anything structural that a plan
    stores per base (the memory planner's slot assignments) is keyed by
    position in this order, so it can be rebound onto a structurally
    identical program by re-walking it the same way.
    """
    enumerator = _Enumerator()
    for instruction in program:
        _walk_instruction_bases(instruction, enumerator)
    return tuple(enumerator.order)


def canonical_program_walk(
    program: Program,
) -> Tuple[tuple, Tuple[BaseArray, ...], Tuple[Constant, ...]]:
    """Return ``(key, bases, values)`` for ``program``, from one walk.

    ``key`` is a hashable structural encoding in which base arrays are
    replaced by their first-use index and data operands (the ``BH_RANDOM``
    seed, see :attr:`~repro.bytecode.opcodes.OpCodeInfo.data_operands`) by
    their dtype and first-use slot, so two flushes that allocate fresh
    temporaries and draw fresh seeds produce equal keys.  ``bases`` and
    ``values`` are the enumerations the key was built against, in index
    order — the base arrays and the data operand objects themselves (their
    values are not read here) — exactly what :meth:`ExecutionPlan.bind`
    needs to map a plan onto a new program.
    """
    bases, values = _Enumerator(), _Enumerator()
    key = tuple(_encode_instruction(instr, bases, values) for instr in program)
    return key, tuple(bases.order), tuple(values.order)


def canonical_program_key(program: Program) -> Tuple[tuple, Tuple[BaseArray, ...]]:
    """``(key, bases)`` of :func:`canonical_program_walk`."""
    return canonical_program_walk(program)[:2]


def program_fingerprint(program: Program) -> str:
    """A stable hex digest of the program's canonical structural key."""
    key, _ = canonical_program_key(program)
    return fingerprint_of_key(key)


def fingerprint_of_key(key: tuple) -> str:
    """Hash a canonical key (from :func:`canonical_program_key`) to hex."""
    import hashlib  # here: a dist worker imports this module and never hashes

    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()


#: Fields every plan artifact is the same under, whatever their value: the
#: front-end's backend choice (plans are keyed by backend) and the
#: read-only checks.
_UNSIGNED_FIELDS = ("default_backend", "check_ir")

#: Every other field shapes a plan — its optimized program, schedule,
#: tiling, memory plan, kernels or shards — or how it runs, so a plan built
#: under one combination must not be replayed under another.  The engine
#: signs a resolved snapshot: no ``None`` stands for "whatever the host has".
_CONFIG_SIGNATURE_FIELDS = tuple(
    knob.name for knob in fields(Config) if knob.name not in _UNSIGNED_FIELDS
)


def config_signature(config: Config) -> tuple:
    """The optimization-relevant slice of ``config``, as a cache key.

    Any change to these fields invalidates cached plans (the cache key no
    longer matches); unrelated fields such as ``default_backend`` do not.
    """
    return tuple((name, getattr(config, name)) for name in _CONFIG_SIGNATURE_FIELDS)


def config_report(config: Config) -> Dict[str, object]:
    """What a resolved snapshot made concrete, and the digest of its signature."""
    return {
        "threads": config.parallel_num_threads,
        "codegen_threads": config.codegen_threads,
        "cache_dir": config.codegen_cache_dir,
        "dist_workers": config.dist_num_workers,
        "plan_signature": fingerprint_of_key(config_signature(config)),
    }


# --------------------------------------------------------------------------- #
# Execution plans
# --------------------------------------------------------------------------- #


@dataclass
class ExecutionPlan:
    """A cached, replayable result of optimizing one flush batch.

    Attributes
    ----------
    fingerprint:
        Structural fingerprint of the *source* program the plan was built
        from.
    backend_name:
        Name of the backend the plan was prepared for.
    source_bases:
        The source program's base arrays in canonical (first-use) order.
        Binding maps these positionally onto the new program's bases.
    optimized:
        The optimized program, still referencing the source bases — and the
        source program's data operand *objects*: the optimizer moves,
        retargets and drops byte-codes but hands their operands through, so
        an operand's slot (its index in ``source_values``) travels with it.
    source_values:
        The source program's data operands in canonical (first-use) order,
        as returned by :func:`canonical_program_walk`; ``None`` takes the
        optimized program's own.  Binding replaces each, wherever the
        optimizer left it, by the new flush's operand of the same slot.
    report:
        The optimization report produced when the plan was compiled; replays
        of the plan hand out cached copies (see
        :meth:`~repro.core.pipeline.OptimizationReport.replayed`).
    config:
        The resolved configuration snapshot the plan was built under (see
        :meth:`~repro.runtime.backend.Backend.resolve_config`).  Every
        artifact below is computed from it and every execution of the plan
        runs under it; the cache key signs it, so a replay's own snapshot
        has the same signature.
    tiling:
        Backend-attached tile decomposition (see
        :meth:`~repro.runtime.backend.Backend.prepare_plan` and
        :mod:`repro.runtime.tiling`).  Decompositions are structural —
        instruction indices and row spans, never base identities — so the
        one computed at plan time applies unchanged to every rebound
        replay of the plan.
    memory_plan:
        The liveness-driven :class:`~repro.runtime.memplan.MemoryPlan`
        attached at plan time (``None`` when memory planning is
        disabled).  Like ``tiling`` it is structural — slot assignments
        are keyed by canonical base position — so every rebound replay
        re-uses it via :meth:`~repro.runtime.memplan.MemoryPlan.bind`.
    hits:
        How many times this plan has been reused.
    """

    fingerprint: str
    backend_name: str
    source_bases: Tuple[BaseArray, ...]
    optimized: Program
    source_values: Optional[Tuple[Constant, ...]] = None
    report: Optional[object] = None
    config: Config = field(default_factory=Config)
    tiling: Optional[object] = None
    memory_plan: Optional[object] = None
    #: The :class:`~repro.core.schedule.FusionSchedule` the optimizer's
    #: fusion pass computed for this plan (``None`` when the pipeline ran
    #: without the fusion pass).  Purely structural — byte-code indices and
    #: counters — so, like ``tiling`` and ``memory_plan``, it replays
    #: unchanged for every rebound flush; its clustering and byte-code
    #: order are already baked into ``optimized``.
    fusion_schedule: Optional[object] = None
    #: Shard descriptors (per-step worker shards, private bases and
    #: reduction span assignments) the distributed backend planned for this
    #: plan.  Structural like ``tiling`` — spans and canonical base
    #: positions, never base identities or segment names — so rebound
    #: replays reuse it unchanged.
    dist_plan: Optional[object] = None
    #: The master's :class:`~repro.dist.worker.LoadedPlan` of ``dist_plan``:
    #: the templates of the shard it runs itself, built once per plan.
    dist_loaded: Optional[object] = None
    hits: int = 0
    #: Plan-artifact soundness checks run against this plan (cumulative
    #: over preparations and executions: the ``check_ir`` gate's, and a
    #: one-shard ``dist`` plan's shard-plan validation).
    #: Bumped under ``lock`` because cached plans are shared.
    plan_checks_run: int = 0
    #: Guards what changes on a *shared* plan after it is published: the
    #: check counter.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _scratch_bases: Tuple[BaseArray, ...] = field(default_factory=tuple)
    #: ``id(instruction) -> ((operand position, value slot), ...)`` for the
    #: byte-codes of ``optimized`` (kernel payloads included) that carry data
    #: operands: resolved once here, by operand identity, so that ``bind``
    #: neither searches nor guesses.
    _value_fills: Dict[int, Tuple[Tuple[int, int], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        source_ids = {id(base) for base in self.source_bases}
        scratch = []
        seen = set()
        for base in self.optimized.bases():
            if id(base) not in source_ids and id(base) not in seen:
                seen.add(id(base))
                scratch.append(base)
        self._scratch_bases = tuple(scratch)
        # A plan built without the source's values (plan-less callers that
        # never rebind them) adopts the optimized program's own.
        adopt = self.source_values is None
        values = [] if adopt else list(self.source_values)
        slots = {id(value): slot for slot, value in enumerate(values)}
        for instruction in self.optimized:
            self._index_data_operands(instruction, slots, values if adopt else None)
        self.source_values = tuple(values)

    def _index_data_operands(self, instruction: Instruction, slots, adopted) -> None:
        fills = []
        for position in data_operand_positions(instruction):
            operand = instruction.operands[position]
            slot = slots.get(id(operand))
            if slot is None:
                if adopted is None:
                    # A pass that rebuilt the operand read (or copied) a
                    # value that is only this flush's: replays would repeat it.
                    raise ExecutionError(
                        f"a data operand of {instruction.opcode.name} in the "
                        f"optimized program is not one of the source program's"
                    )
                slot = slots[id(operand)] = len(adopted)
                adopted.append(operand)
            fills.append((position, slot))
        if fills:
            self._value_fills[id(instruction)] = tuple(fills)
        if instruction.kernel is not None:
            for inner in instruction.kernel:
                self._index_data_operands(inner, slots, adopted)

    def bind(
        self,
        bases: Tuple[BaseArray, ...],
        values: Optional[Tuple[Constant, ...]] = None,
    ) -> Program:
        """Rebind the optimized program onto a new program's bases and values.

        ``bases`` and ``values`` are the canonical enumerations of the new
        (structurally identical) source program, as returned by
        :func:`canonical_program_walk`; ``values`` defaults to the ones the
        plan was built from.  Views are rewritten base-for-base and data
        operands slot-for-slot; optimizer-introduced scratch arrays (e.g.
        power-expansion temporaries) get a fresh allocation per bind,
        mirroring what a full re-optimization would have produced.  The
        plan itself is never written: concurrent flushes bind one plan.

        The rebind is a single linear pass over the optimized program —
        this is the whole point: a cache hit replaces the fixed-point
        optimizer run with O(plan size) pointer surgery.
        """
        if values is None:
            values = self.source_values
        if len(bases) != len(self.source_bases) or len(values) != len(self.source_values):
            raise ExecutionError(
                f"cannot bind plan over {len(self.source_bases)} bases and "
                f"{len(self.source_values)} values to a program with "
                f"{len(bases)} bases and {len(values)} values"
            )
        if all(old is new for old, new in zip(self.source_bases, bases)) and all(
            old is new for old, new in zip(self.source_values, values)
        ):
            # The iteration reused the same storage (arrays mutated in
            # place); the cached program is directly executable.
            return self.optimized.copy()
        mapping: Dict[int, BaseArray] = {
            id(old): new for old, new in zip(self.source_bases, bases)
        }
        for scratch in self._scratch_bases:
            mapping[id(scratch)] = BaseArray(scratch.nelem, scratch.dtype)
        view_cache: Dict[int, View] = {}
        return Program(
            self._bind_instruction(instr, mapping, view_cache, values)
            for instr in self.optimized
        )

    def _bind_instruction(
        self,
        instruction: Instruction,
        mapping: Dict[int, BaseArray],
        view_cache: Dict[int, View],
        values: Tuple[Constant, ...],
    ) -> Instruction:
        operands = [
            self._bind_operand(op, mapping, view_cache) for op in instruction.operands
        ]
        for position, slot in self._value_fills.get(id(instruction), ()):
            operands[position] = values[slot]
        kernel = None
        if instruction.kernel is not None:
            kernel = tuple(
                self._bind_instruction(inner, mapping, view_cache, values)
                for inner in instruction.kernel
            )
        return Instruction(instruction.opcode, operands, kernel=kernel, tag=instruction.tag)

    def _bind_operand(self, operand, mapping, view_cache):
        if is_constant(operand):
            return operand
        cached = view_cache.get(id(operand))
        if cached is not None:
            return cached
        new_base = mapping.get(id(operand.base))
        if new_base is None:
            raise ExecutionError(
                f"plan references base {operand.base.name!r} with no binding"
            )
        bound = View(new_base, operand.offset, operand.shape, operand.strides)
        view_cache[id(operand)] = bound
        return bound


# --------------------------------------------------------------------------- #
# The plan cache
# --------------------------------------------------------------------------- #


#: Plans an engine's (or a tiled backend's plan-less) LRU holds by default.
PLAN_CACHE_SIZE = 128


class PlanCache(BoundedLRU):
    """A bounded LRU cache of :class:`ExecutionPlan` objects.

    Keys are whatever the owner derives them from (the engine: program
    fingerprint plus backend name, pipeline signature and configuration
    signature); the cache itself only requires them to be hashable.

    All of the mechanism — bounding, recency, the lock that lets many
    sessions share one engine, the counters — is
    :class:`~repro.utils.lru.BoundedLRU`'s; this subclass only counts
    per-plan reuse and names the statistics.
    """

    def __init__(self, max_plans: int = PLAN_CACHE_SIZE) -> None:
        super().__init__(max_plans)

    def get(self, key) -> Optional[ExecutionPlan]:
        """Look up a plan, counting the hit/miss and refreshing recency."""
        with self._lock:
            plan = super().get(key)
            if plan is not None:
                plan.hits += 1
            return plan

    def stats(self, prefix: str = "plan_cache_") -> Dict[str, int]:
        """Counters for reporting: hits, misses, evictions, size, capacity."""
        return super().stats(prefix)
