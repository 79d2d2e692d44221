"""The native backend: tiled execution through compiled C loop nests.

Subclasses the tiled parallel backend and replaces its launch seams —
:meth:`~repro.runtime.parallel.ParallelBackend._map_launcher`,
``_launch_map`` and ``_span_producer`` — so the plan-time tile
decomposition, the memory planning, the serial fallbacks and every
reduction's fold are *identical* to the parallel backend's: a reduction
is NumPy's ``ufunc.reduce`` over the plan's spans on both, combined by
:func:`~repro.runtime.tiling.combine_partials`, so its bits never depend
on what this backend has compiled.  A bare reduction is no kernel; a
kernel that ends in one compiles only its members, as a map form that
stores the reduced slot into span-sized scratch
(:meth:`NativeKernelLaunch.evaluate`).
What changes is what runs per step: when a kernel form lowers bitwise-safely
(:mod:`repro.codegen.loopir`), the step is one call into a compiled C
function instead of per-instruction NumPy dispatch; otherwise the step falls
back to the interpreted :class:`~repro.runtime.kernel.KernelTemplate`, making
every program executable regardless of codegen coverage.  A form that
computes nothing — every store a literal (a fill) or a same-dtype load of a
slot it does not write (a copy) — runs as a :class:`NumPyAssign`, one NumPy
call per step, and never reaches the C compiler.

Caching is three-layered:

1. a backend-local LRU from structural kernel key → launchable (or ``None``
   for forms that do not lower), so warm steps pay one dict lookup,
2. the process-wide loaded-artifact memo in :mod:`repro.codegen.cache`
   (content digest → ``CompiledKernel``), shared across backend instances,
3. the on-disk ``.so`` store, shared across processes and sessions.

A kernel form is compiled once it is known to run twice — it recurs in
one plan, or this backend launched it before; until then it binds an
artifact already loaded or on disk, or runs the interpreted template, so a
one-shot program never waits for the compiler.  A form is resolved where
it launches, on the flushing thread (:meth:`_native_launch`);
:meth:`prepare_plan` only marks the forms that recur in a plan, so the
first launch of one compiles it.  A warm plan-cache flush performs **zero**
lowering walks and zero compiler invocations: one launch-cache lookup per
step.  Every ``native_*`` counter lands on the flushing
:class:`~repro.runtime.instrumentation.ExecutionStats` only; the backend
adds that record to its cumulative one once, when the flush ends.

A compiled step threads only when threads are asked for (``codegen_threads``,
default one) and each gets a tile: it runs in :func:`launch_parts` parts,
``min(threads, elements // parallel_tile_elements)``; one part is one
serial ``repro_kernel`` call.  Two or more are the same kernel called once
per contiguous block of the step's rows, the blocks scattered on the
backend's tile pool: the middleware splits the work, and one artifact
serves every thread count.  No kernel needs the kernel runtime artifact
(the vector ``erf`` of interpreted ``BH_ERF``), so no compiled launch
resolves it; only an erf form's interpreted first launch does.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.bytecode.view import View
from repro.codegen.cache import (
    KERNEL_OPT_LEVEL,
    get_compiled_kernel,
    memory_cache_size,
    resolve_cache_dir,
)
from repro.codegen.compiler import CodegenError
from repro.codegen.emit_c import emit_kernel_source
from repro.codegen.loopir import (
    Literal,
    Load,
    LoopNest,
    LoweringError,
    _cast,
    float_literals,
    lower_kernel,
)
from repro.runtime.instrumentation import NUMERIC_STATS, ExecutionStats
from repro.runtime.kernel import KERNEL_CACHE_CAPACITY, prepare_kernel_launch, split_tail
from repro.runtime.memory import MemoryManager
from repro.runtime.parallel import ParallelBackend
from repro.runtime.tiling import (
    TiledMapStep,
    TiledReduceStep,
    TileSpan,
    partition_length,
    slice_view,
    span_producer,
)
from repro.utils.config import Config
from repro.utils.errors import ExecutionError
from repro.utils.lru import BoundedLRU


def _literal_operands(literals):
    """``(buffer, addresses)`` of a nest's float literals: one 8-byte lane per
    literal holding the NumPy scalar's own bytes, and the lanes' addresses —
    the ``ptrs`` entries a launch appends.  The buffer is the launchable's,
    written here and never again: launchables of different constants share
    one compiled artifact, concurrently."""
    raw = b"".join(literal.value.tobytes().ljust(8, b"\0") for literal in literals)
    buffer = (ctypes.c_double * len(literals))()
    ctypes.memmove(buffer, raw, len(raw))
    base = ctypes.addressof(buffer)
    return buffer, tuple(base + 8 * index for index in range(len(literals)))


class NativeKernelLaunch:
    """A compiled loop nest bound to its slot layout, launchable per tile.

    The call signature matches :class:`~repro.runtime.kernel.KernelTemplate`
    — ``(memory, views)`` with tile-sliced slot views — so the parallel
    scaffolding treats both interchangeably.  Geometry is marshalled per
    call (extents, byte strides, offset-folded base pointers); the foreign
    call releases the GIL, so row blocks overlap on worker threads.
    """

    __slots__ = (
        "_fn",
        "_rank",
        "_itemsizes",
        "_dims_type",
        "_ptrs_type",
        "_strides_type",
        "_literals",
        "_literal_ptrs",
        "elided_slots",
    )

    def __init__(self, compiled, nest: LoopNest, slots: Sequence[View]) -> None:
        self._fn = compiled.fn
        self._rank = nest.rank
        self._itemsizes = tuple(view.dtype.itemsize for view in slots)
        #: Slots the compiled kernel keeps in registers: no storage is
        #: allocated or passed for them (the scaffolding skips their
        #: allocation too — see ``ParallelBackend._run_map``).
        self.elided_slots = nest.elided_slots
        num_slots = len(self._itemsizes)
        self._literals, self._literal_ptrs = _literal_operands(float_literals(nest.body))
        self._dims_type = ctypes.c_int64 * nest.rank
        self._ptrs_type = ctypes.c_void_p * (num_slots + len(self._literal_ptrs))
        self._strides_type = ctypes.c_int64 * (num_slots * nest.rank)

    def _marshal(self, memory: MemoryManager, views: Sequence[View], scratch=None):
        """The call's ``(dims, ptrs, strides)``; a slot in ``scratch`` (slot ->
        array) is that array, not its view's storage."""
        rank = self._rank
        dims = self._dims_type(*views[0].shape)
        pointers = []
        strides = []
        for position, (view, itemsize) in enumerate(zip(views, self._itemsizes)):
            if position in self.elided_slots:
                pointers.append(0)
                strides.extend((0,) * rank)
                continue
            if scratch and position in scratch:
                pointers.append(scratch[position].ctypes.data)
                strides.extend(scratch[position].strides)
                continue
            storage = memory.allocate(view.base)
            pointers.append(storage.ctypes.data + view.offset * itemsize)
            for stride in view.strides:
                strides.append(stride * itemsize)
        return (
            dims,
            self._ptrs_type(*pointers, *self._literal_ptrs),
            self._strides_type(*strides),
        )

    def __call__(self, memory: MemoryManager, views: Sequence[View]) -> None:
        dims, pointers, strides = self._marshal(memory, views)
        self._fn(dims, pointers, strides)

    def evaluate(self, memory, views: Sequence[View], local_slots, result: int, erf=None):
        """:meth:`KernelTemplate.evaluate <repro.runtime.kernel.KernelTemplate.evaluate>`
        as one serial call: each of ``local_slots`` the nest does not keep in
        registers gets one uninitialised array of its view's shape, and slot
        ``result``'s is returned.  ``erf`` is unused: the nest calls libm's."""
        scratch = {
            position: np.empty(views[position].shape, views[position].dtype.np_dtype)
            for position in local_slots
            if position not in self.elided_slots
        }
        self._fn(*self._marshal(memory, views, scratch))
        return scratch[result]


class NumPyAssign:
    """A nest that computes nothing, written by NumPy: it is never compiled,
    loaded or marshalled.

    Every store is a literal or a same-dtype load of a slot the nest does not
    write (a fill, a copy).  Each stored slot that is not elided gets its
    *last* store, in one NumPy call over the whole step's view: a literal
    cast to the slot's storage dtype by NumPy's unsafe cast — the
    interpreter's ``copyto(..., casting="unsafe")`` — or ``np.copyto`` from
    the loaded slot's view, whose bits it moves unchanged.  Legality is the
    lowering's: written views are injective and overlap no other slot, so
    no store can see another's result.
    """

    __slots__ = ("_stores", "elided_slots")

    def __init__(self, nest: LoopNest) -> None:
        self.elided_slots = nest.elided_slots
        last = {statement.slot: statement.expr for statement in nest.body}
        #: ``(slot, loaded slot or None, literal value or None)`` per store.
        self._stores = tuple(
            (slot, expr.slot, None)
            if isinstance(expr, Load)
            else (slot, None, _cast(expr, nest.slot_dtypes[slot]).value)
            for slot, expr in last.items()
            if slot not in self.elided_slots
        )

    @staticmethod
    def covers(nest: LoopNest) -> bool:
        """Whether every store of ``nest`` is a literal or a same-dtype load
        of a slot the nest does not write."""
        written = {statement.slot for statement in nest.body}
        return all(
            isinstance(statement.expr, Literal)
            or (
                isinstance(statement.expr, Load)
                and statement.expr.slot not in written
                and statement.expr.dtype_name == nest.slot_dtypes[statement.slot]
            )
            for statement in nest.body
        )

    def __call__(self, memory: MemoryManager, views: Sequence[View]) -> None:
        for slot, source, value in self._stores:
            target = memory.view_array(views[slot])
            if source is None:
                target[...] = value
            else:
                np.copyto(target, memory.view_array(views[source]))


def _lower_map(instructions, local_slots: frozenset, slots: Sequence[View]):
    """A map form's ``(C source, bind)``, or ``(None, launch)`` when nothing
    is compiled: a :class:`NumPyAssign`, or the message saying why the form
    does not lower."""
    try:
        nest = lower_kernel(instructions, local_slots)
    except LoweringError as exc:
        return None, str(exc)
    if NumPyAssign.covers(nest):
        return None, NumPyAssign(nest)
    return emit_kernel_source(nest), partial(NativeKernelLaunch, nest=nest, slots=slots)


def _producer_form(members, source: View, step: TiledReduceStep):
    """``(prepare_kernel_launch walk, local slots)`` of the element-wise
    ``members`` of a kernel whose reduction reads ``source``, as a map form:
    every kernel-local slot of the ``step`` but the reduced one lives in
    registers, and the reduced one is stored into span-sized scratch."""
    prepared = prepare_kernel_launch(members)
    result = next(p for p, view in enumerate(prepared[1]) if view.same_view(source))
    return prepared, step.local_slots - {result}


def launch_parts(slots: Sequence[View], config: Config) -> int:
    """How many parts a compiled step over ``slots`` (its first slot has the
    step's shape) runs in: one per ``parallel_tile_elements`` elements,
    at most the codegen thread count and at least one — one part is one
    serial call.  The thread count is 1 unless asked for: a 2-part launch
    lost to the serial call at every size measured (8 836 to 4 Mi
    elements) on a 2-CPU host."""
    threads = config.codegen_threads or 1
    elements = math.prod(slots[0].shape)
    return max(1, min(threads, elements // config.parallel_tile_elements))


#: The launch-cache entry of a form known to run again, with no artifact yet
#: (its next resolve compiles it), and the reason its template launch counts.
FIRST_LAUNCH = "first launch of this form"

#: ``get_compiled_kernel`` outcome -> the counter it bumps.
_OUTCOME_COUNTERS = {
    "compiled": "native_compiles",
    "disk": "native_disk_hits",
    "memory": "native_memory_hits",
}


def _count(stats: ExecutionStats, fallback_reason: Optional[str] = None, **increments: int):
    """Add to one flush's record; ``fallback_reason`` is the message noted
    per fallback being counted."""
    for counter, amount in increments.items():
        setattr(stats, counter, getattr(stats, counter) + amount)
    for _ in range(increments.get("native_fallbacks", 0)):
        stats.note_fallback(fallback_reason)


def _verdict(cached):
    """A launch-cache entry as ``(launchable, None)`` or ``(None, reason)``."""
    return (None, cached) if isinstance(cached, str) else (cached, None)


class NativeBackend(ParallelBackend):
    """Tiled executor that compiles eligible kernel forms to native code."""

    name = "native"

    def __init__(
        self,
        num_threads: Optional[int] = None,
        tile_elements: Optional[int] = None,
    ) -> None:
        super().__init__(num_threads=num_threads, tile_elements=tile_elements)
        # Structural kernel key (+ codegen signature) → NativeKernelLaunch,
        # or, for a form with no compiled launch, the message saying why.
        self._native_cache = BoundedLRU(KERNEL_CACHE_CAPACITY)

    @property
    def native_compiles(self) -> int:
        """C compiler invocations over this backend's lifetime."""
        return self._totals.native_compiles

    @property
    def native_cache_misses(self) -> int:
        """Launch-cache lookups that had to lower (or re-diagnose) a form."""
        return self._native_cache.misses

    # ------------------------------------------------------------------ #
    # Codegen resolution
    # ------------------------------------------------------------------ #

    def _codegen_signature(self, config) -> tuple:
        # Everything a launchable's artifacts depend on.  The thread count
        # is not here: a threaded launch calls the same kernel per row block.
        return (
            resolve_cache_dir(config.codegen_cache_dir),
            config.codegen_disk_cache_enabled,
        )

    def _resolve_config(self, config: Config) -> Config:
        """Also resolve the thread count a compiled step is split over.

        ``codegen_threads`` > ``REPRO_CODEGEN_THREADS`` env var > 1 (see
        :func:`launch_parts`).  Purely runtime: changing it never touches
        plan tilings or compiled artifacts.  An environment value that is
        not a positive integer raises :class:`ExecutionError` — before the
        flush that resolves it runs any step.
        """
        config = super()._resolve_config(config)
        threads = config.codegen_threads
        if threads is None:
            env = os.environ.get("REPRO_CODEGEN_THREADS")
            if env:
                try:
                    threads = int(env)
                except ValueError:
                    threads = 0
                if threads < 1:
                    raise ExecutionError(
                        f"REPRO_CODEGEN_THREADS={env!r} is not a positive integer"
                    )
            else:
                threads = 1
        return config.replace(codegen_threads=max(1, int(threads)))

    def _native_launch(
        self,
        key: tuple,
        slots: Sequence[View],
        instructions,
        local_slots: frozenset,
        stats: ExecutionStats,
        config: Config,
    ):
        """Resolve a kernel form to ``(launchable, None)`` — compiled, or a
        :class:`NumPyAssign` — or ``(None, why not)``, on the flushing thread.

        ``local_slots`` (plan-time liveness, part of the cache key) names
        slots whose stores the kernel elides entirely; ``stats`` receives
        the compile/cache outcome of a launch-cache miss.  A form with no
        native lowering (or whose compilation failed) is cached as the
        *message* saying why; the caller uses the interpreted path and
        counts the reason.

        Only a :data:`FIRST_LAUNCH` entry (a miss) compiles; any other miss
        binds an artifact already loaded or on disk, and with none caches
        and returns the marker.
        """
        cache_key = (key, local_slots, self._codegen_signature(config))
        cached = self._native_cache.get(cache_key, marker=FIRST_LAUNCH)
        if cached is not None and cached is not FIRST_LAUNCH:
            return _verdict(cached)
        # Lowering and compilation run outside any lock; concurrent misses
        # of one form may both walk here, but the process-wide digest memo
        # latches the actual compile to exactly one of them.
        try:
            source, launch = _lower_map(instructions, local_slots, slots)
            if source is not None:
                compiled, outcome = get_compiled_kernel(
                    source,
                    opt_level=KERNEL_OPT_LEVEL,
                    cache_dir=config.codegen_cache_dir,
                    use_disk=config.codegen_disk_cache_enabled,
                    load_only=cached is None,
                )
                if outcome is not None:
                    _count(stats, **{_OUTCOME_COUNTERS[outcome]: 1})
                launch = launch(compiled) if compiled is not None else FIRST_LAUNCH
        except (LoweringError, CodegenError) as exc:
            # No lowering, no compiler, or a toolchain failure: degrade to
            # the interpreted template — and remember why, so the next launch
            # of this form pays one dict lookup instead of re-diagnosing.
            # (The first line: a compiler's stderr follows it.)
            launch = str(exc).partition("\n")[0]
        return _verdict(self._native_cache.setdefault(cache_key, launch, marker=FIRST_LAUNCH))

    # ------------------------------------------------------------------ #
    # Parallel-backend seams
    # ------------------------------------------------------------------ #

    def _map_launcher(self, instructions, step, stats, config):
        prepared = prepare_kernel_launch(instructions)
        key, slots, _ = prepared
        launch, reason = self._native_launch(
            key, slots, instructions, step.local_slots, stats, config
        )
        if launch is None:
            _count(stats, fallback_reason=reason, native_fallbacks=1)
            return super()._map_launcher(instructions, step, stats, config, prepared)
        if isinstance(launch, NativeKernelLaunch):
            _count(
                stats,
                native_kernel_launches=1,
                native_slots_elided=len(launch.elided_slots),
            )
        return slots, launch

    def _launch_map(self, launcher, slots, step, memory, stats, config) -> None:
        """Run a compiled map step as one serial call, or one call per row block.

        A step of one part (:func:`launch_parts`) is one serial
        ``repro_kernel`` call.  A step of two or more calls the same kernel
        once per contiguous block of its rows — :func:`partition_length`, so
        a step with fewer rows than parts runs one block per row — and the
        blocks run on the tile pool of ``codegen_threads`` workers.  Hazard
        analysis already happened at plan time: only splittable nests become
        :class:`TiledMapStep`s.  A :class:`NumPyAssign` is one NumPy call
        per step; interpreted templates keep the inherited per-tile
        machinery.
        """
        compiled = isinstance(launcher, NativeKernelLaunch)
        parts = launch_parts(slots, config) if compiled else 1
        if parts > 1:
            spans = [TileSpan(*block) for block in partition_length(slots[0].shape[0], parts)]
            stats.tiles_executed += len(spans)
            if len(spans) > 1:
                stats.native_mt_launches += 1
            self._scatter(
                [
                    partial(launcher, memory, tuple(slice_view(view, span) for view in slots))
                    for span in spans
                ],
                config.codegen_threads,
            )
        elif compiled or isinstance(launcher, NumPyAssign):
            stats.tiles_executed += 1
            launcher(memory, slots)
        else:
            super()._launch_map(launcher, slots, step, memory, stats, config)

    def _span_producer(self, members, source, step, stats, config):
        """The members of a kernel that ends in a reduction, as an ordinary
        compiled map form (:func:`_producer_form`) evaluated once per span
        (:meth:`NativeKernelLaunch.evaluate`); NumPy folds what it stores.
        A form with no compiled launch runs the inherited template — counted
        as a fallback with its reason, unless it is a :class:`NumPyAssign`.
        """
        prepared, local = _producer_form(members, source, step)
        key, slots, _ = prepared
        launch, reason = self._native_launch(key, slots, members, local, stats, config)
        if isinstance(launch, NativeKernelLaunch):
            _count(stats, native_kernel_launches=1, native_slots_elided=len(step.local_slots))
            return slots, span_producer(launch, slots, step.local_slots, source, None)
        if launch is None:
            _count(stats, fallback_reason=reason, native_fallbacks=1)
        return super()._span_producer(members, source, step, stats, config, prepared)

    def prepare_plan(self, plan) -> None:
        """Tile (inherited), and mark each kernel form that occurs in two or
        more of the plan's steps :data:`FIRST_LAUNCH`, so its first launch
        compiles it: it is known to run twice.  A bare reduction has no
        form; a kernel that ends in one has its members' map form
        (:func:`_producer_form`).  Nothing is lowered or compiled here.
        """
        super().prepare_plan(plan)
        codegen = self._codegen_signature(plan.config)
        forms = set()
        for step in plan.tiling.steps:
            instruction = plan.optimized[step.index]
            instructions = instruction.kernel if instruction.is_fused() else (instruction,)
            if isinstance(step, TiledReduceStep):
                instructions, tail = split_tail(instructions)
                if not instructions:
                    continue  # a bare reduction is NumPy's: no form
                (key, _, _), local = _producer_form(instructions, tail.inputs[0], step)
            elif isinstance(step, TiledMapStep):
                key, local = prepare_kernel_launch(instructions)[0], step.local_slots
            else:
                continue
            form = (key, local, codegen)
            if form in forms:
                self._native_cache.setdefault(form, FIRST_LAUNCH)
            forms.add(form)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> Dict[str, int]:
        stats = super().cache_stats()
        stats.update(
            (name, getattr(self._totals, name))
            for name, _, _ in NUMERIC_STATS
            if name.startswith("native_")
        )
        stats.update(self._native_cache.stats("native_cache_"))
        stats["native_loaded_artifacts"] = memory_cache_size()
        return stats
