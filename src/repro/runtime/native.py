"""The native backend: tiled execution through compiled C loop nests.

Subclasses the tiled parallel backend and replaces its launch seams —
:meth:`~repro.runtime.parallel.ParallelBackend._map_launcher` and, for
reductions with or without a producing kernel, ``_run_reduce`` — so the
plan-time tile decomposition, the memory planning, the interpreted
reduction path and the serial fallbacks are *identical* to the parallel
backend.
What changes is what runs per tile: when a kernel form lowers bitwise-safely
(:mod:`repro.codegen.loopir`), each tile calls into one compiled C function
instead of per-instruction NumPy dispatch; otherwise the step falls back to
the interpreted :class:`~repro.runtime.kernel.KernelTemplate`, making every
program executable regardless of codegen coverage.  A form that lowers to
nothing but literal stores computes nothing: it runs as a
:class:`NativeFill`, one NumPy assignment per step, and never reaches the
C compiler.

Caching is three-layered:

1. a backend-local LRU from structural kernel key → launchable (or ``None``
   for forms that do not lower), so warm steps pay one dict lookup,
2. the process-wide loaded-artifact memo in :mod:`repro.codegen.cache`
   (content digest → ``CompiledKernel``), shared across backend instances,
3. the on-disk ``.so`` store, shared across processes and sessions.

Plans pre-compile their tiled map steps at plan time
(:meth:`prepare_plan`, distinct forms concurrently), so a warm plan-cache
flush performs **zero** lowering walks and zero compiler invocations.
Every ``native_*`` counter increment lands, at the site it happens, on the
backend's cumulative record and on exactly one flush's
:class:`~repro.runtime.instrumentation.ExecutionStats`; plan-stage
resolution has no flush yet, so its outcomes are parked on the plan for the
first execution of that plan to report.

Threaded launches go through the process's one **kernel runtime artifact**
(:func:`repro.codegen.cache.resolve_runtime`): every launchable captures
its ``repro_rt_launch`` and passes it to the kernel's ``repro_kernel_mt``,
so all kernel forms share one worker pool and one launch mutex.  How the
runtime was obtained is ``NativeBackend.native_runtime``; it is not a
kernel and never counts as a compile or a disk hit.
"""

from __future__ import annotations

import ctypes
import os
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.bytecode.view import View
from repro.codegen.cache import (
    get_compiled_kernel,
    memory_cache_size,
    resolve_cache_dir,
    resolve_runtime,
)
from repro.codegen.compiler import CodegenError
from repro.codegen.emit_c import emit_kernel_source, emit_reduce_source
from repro.codegen.loopir import (
    Literal,
    LoopNest,
    LoweringError,
    ReduceNest,
    _cast,
    float_literals,
    lower_kernel,
    lower_reduction,
)
from repro.runtime.instrumentation import NUMERIC_STATS, ExecutionStats
from repro.runtime.kernel import KERNEL_CACHE_CAPACITY, prepare_kernel_launch, split_tail
from repro.runtime.memory import MemoryManager
from repro.runtime.parallel import ParallelBackend
from repro.runtime.tiling import TiledMapStep, TiledReduceStep
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
    call releases the GIL, so tiles overlap on worker threads.
    """

    __slots__ = (
        "_fn",
        "_fn_mt",
        "_runtime",
        "_rank",
        "_itemsizes",
        "_dims_type",
        "_ptrs_type",
        "_strides_type",
        "_literals",
        "_literal_ptrs",
        "elided_slots",
    )

    #: A compiled loop nest covers any geometry in one call, so the tiled
    #: scaffolding may run a whole map step as a single launch when no
    #: worker threads would consume the tiles (see ``_run_map``).
    single_pass = True

    def __init__(
        self, compiled, nest: LoopNest, slots: Sequence[View], runtime=None
    ) -> None:
        self._fn = compiled.fn
        # The chunked entry point threads only through a runtime's launch
        # function; without one (serial toolchain) it would run the nest on
        # the caller, so multi-thread launches keep the per-tile path.
        self._fn_mt = compiled.fn_mt if runtime is not None else None
        self._runtime = runtime
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

    @property
    def supports_mt(self) -> bool:
        """Whether one call can split the outer loop across in-kernel threads."""
        return self._fn_mt is not None

    def _marshal(self, memory: MemoryManager, views: Sequence[View]):
        rank = self._rank
        dims = self._dims_type(*views[0].shape)
        pointers = []
        strides = []
        for position, (view, itemsize) in enumerate(zip(views, self._itemsizes)):
            if position in self.elided_slots:
                pointers.append(0)
                strides.extend((0,) * rank)
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

    def launch_mt(
        self, memory: MemoryManager, views: Sequence[View], nthreads: int
    ) -> None:
        """Run the whole step as ONE foreign call; the runtime splits the
        outermost loop across the process's persistent worker pool."""
        dims, pointers, strides = self._marshal(memory, views)
        self._fn_mt(
            dims, pointers, strides, ctypes.c_int32(nthreads), self._runtime.launch
        )


class NativeFill:
    """A nest of literal stores, written by NumPy: it computes nothing, so
    it is never compiled, loaded or marshalled.

    Each stored slot that is not elided gets its *last* store's value, cast
    to the slot's storage dtype by NumPy's unsafe cast — the interpreter's
    ``copyto(..., casting="unsafe")`` — in one assignment over the whole
    step's view.  Legality is the lowering's: written views are injective
    and overlap no other slot.
    """

    __slots__ = ("_values", "elided_slots")

    def __init__(self, nest: LoopNest) -> None:
        self.elided_slots = nest.elided_slots
        last = {statement.slot: statement.expr for statement in nest.body}
        self._values = tuple(
            (slot, _cast(expr, nest.slot_dtypes[slot]).value)
            for slot, expr in last.items()
            if slot not in self.elided_slots
        )

    def __call__(self, memory: MemoryManager, views: Sequence[View]) -> None:
        for slot, value in self._values:
            memory.view_array(views[slot])[...] = value


def _lower_map(instructions, local_slots: frozenset, slots: Sequence[View]):
    """A map form's ``(C source, bind)``, or ``(None, launch)`` when nothing
    is compiled: a :class:`NativeFill`, or the message saying why the form
    does not lower."""
    try:
        nest = lower_kernel(instructions, local_slots)
    except LoweringError as exc:
        return None, str(exc)
    if all(isinstance(statement.expr, Literal) for statement in nest.body):
        return None, NativeFill(nest)
    return emit_kernel_source(nest), partial(NativeKernelLaunch, nest=nest, slots=slots)


class NativeReduceLaunch:
    """A compiled reduction kernel bound to its geometry mapping.

    ABI (see :func:`repro.codegen.emit_c.emit_reduce_source`): ``dims`` are
    the *source* extents, ``ptrs`` is the nest's slots, the output, then the
    members' float literals — a bare reduction's one slot is its source, the
    slots a kernel's members store have no storage and pass null — and
    ``strides`` carries each slot's and the output's byte strides, the
    output's aligned to source axes with a zero lane at the reduced axis.
    """

    __slots__ = (
        "_fn",
        "_fn_mt",
        "_runtime",
        "_rank",
        "_axis",
        "_loaded",
        "_literals",
        "_literal_ptrs",
        "_dims_type",
        "_ptrs_type",
        "_strides_type",
    )

    def __init__(self, compiled, nest: ReduceNest, runtime=None) -> None:
        self._fn = compiled.fn
        self._fn_mt = compiled.fn_mt if runtime is not None else None
        self._runtime = runtime
        self._rank = nest.rank
        self._axis = nest.axis
        self._loaded = frozenset(nest.loaded_slots)
        entries = len(nest.slot_dtypes) + 1
        self._literals, self._literal_ptrs = _literal_operands(float_literals(nest.body))
        self._dims_type = ctypes.c_int64 * nest.rank
        self._ptrs_type = ctypes.c_void_p * (entries + len(self._literal_ptrs))
        self._strides_type = ctypes.c_int64 * (entries * nest.rank)

    @property
    def supports_mt(self) -> bool:
        return self._fn_mt is not None

    def __call__(
        self,
        memory: MemoryManager,
        slots: Sequence[View],
        out_view: View,
        nthreads: int,
    ) -> bool:
        """Run the reduction; returns True when the chunked entry fired."""
        out_item = out_view.dtype.itemsize
        dims = self._dims_type(*slots[0].shape)
        pointers = []
        strides = []
        for position, view in enumerate(slots):
            if position not in self._loaded:
                pointers.append(0)
                strides.extend((0,) * self._rank)
                continue
            itemsize = view.dtype.itemsize
            storage = memory.allocate(view.base)
            pointers.append(storage.ctypes.data + view.offset * itemsize)
            strides.extend(stride * itemsize for stride in view.strides)
        out_storage = memory.allocate(out_view.base)
        pointers.append(out_storage.ctypes.data + out_view.offset * out_item)
        pointers = self._ptrs_type(*pointers, *self._literal_ptrs)
        out_position = 0
        for dim in range(self._rank):
            if dim == self._axis:
                strides.append(0)
            else:
                strides.append(out_view.strides[out_position] * out_item)
                out_position += 1
        packed = self._strides_type(*strides)
        if self._fn_mt is not None and nthreads > 1:
            self._fn_mt(
                dims, pointers, packed, ctypes.c_int32(nthreads), self._runtime.launch
            )
            return True
        self._fn(dims, pointers, packed)
        return False


#: ``get_compiled_kernel`` outcome -> the counter it bumps.
_OUTCOME_COUNTERS = {
    "compiled": "native_compiles",
    "disk": "native_disk_hits",
    "memory": "native_memory_hits",
}


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
        #: How this backend first obtained the kernel runtime artifact:
        #: "compiled" | "disk" | "memory", "serial" when the toolchain
        #: builds none, ``None`` until a kernel form needed it.
        self.native_runtime: Optional[str] = None

    def _count(
        self, stats: ExecutionStats, fallback_reason: Optional[str] = None, **increments: int
    ) -> None:
        """Add to one flush's record and to the cumulative one, together.

        ``fallback_reason`` is the message of the fallback being counted.
        """
        with self._cache_lock:
            for record in (stats, self._totals):
                for counter, amount in increments.items():
                    setattr(record, counter, getattr(record, counter) + amount)
                record.note_fallback(fallback_reason)

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
        # Everything a launchable's artifacts depend on.  Neither the
        # threading mode nor the thread count is here: kernels are
        # mode-agnostic and a launchable keeps the runtime it captured.
        return (
            config.codegen_enabled,
            resolve_cache_dir(config.codegen_cache_dir),
            int(config.codegen_opt_level),
            config.codegen_disk_cache_enabled,
            config.codegen_reductions_enabled,
        )

    def _resolve_codegen_threads(self, config, fallback: int) -> int:
        """The thread count handed to ``repro_kernel_mt`` launches.

        ``codegen_threads`` > ``REPRO_CODEGEN_THREADS`` env var > the
        parallel worker count.  Purely runtime: changing it never touches
        plan tilings or compiled artifacts.
        """
        threads = config.codegen_threads
        if threads is None:
            env = os.environ.get("REPRO_CODEGEN_THREADS")
            if env:
                try:
                    threads = int(env)
                except ValueError:
                    threads = None
        if threads is None:
            threads = fallback
        return max(1, int(threads))

    def _cached_launch(self, cache_key: tuple, config, lower: Callable, stats):
        """``(launchable, None)`` or ``(None, reason)`` for ``cache_key``.

        ``lower()`` returns the form's C source and a ``bind(compiled,
        runtime=...)`` constructor, or raises :class:`LoweringError`; with
        no source, the second item is the launch itself (a fill) or why
        there is none, and no compiler or runtime is asked for.  A form
        with no native lowering (or whose compilation failed) is cached as
        the *message* saying why; the caller uses the interpreted path and
        counts the reason.
        """
        cached = self._native_cache.get(cache_key)
        if cached is not None:
            return _verdict(cached)
        # Lowering and compilation run outside any lock; concurrent misses
        # of one form may both walk here, but the process-wide digest memo
        # latches the actual compile to exactly one of them.
        outcome = runtime_outcome = None
        try:
            source, launch = lower()
            if source is not None:
                compiled, outcome = get_compiled_kernel(
                    source,
                    opt_level=config.codegen_opt_level,
                    cache_dir=config.codegen_cache_dir,
                    use_disk=config.codegen_disk_cache_enabled,
                )
                # A kernel needs the runtime only here: ``prepare_plan``
                # builds it beside the plan's kernels, not before them.
                runtime, _, runtime_outcome = resolve_runtime(
                    config.codegen_cache_dir, config.codegen_disk_cache_enabled
                )
                launch = launch(compiled, runtime=runtime)
        except (LoweringError, CodegenError) as exc:
            # No lowering, no compiler, or a toolchain failure: degrade to
            # the interpreted template — and remember why, so the next launch
            # of this form pays one dict lookup instead of re-diagnosing.
            # (The first line: a compiler's stderr follows it.)
            launch = str(exc).partition("\n")[0]
        with self._cache_lock:
            self._note_runtime(runtime_outcome)
        if outcome is not None:
            self._count(stats, **{_OUTCOME_COUNTERS[outcome]: 1})
        return _verdict(self._native_cache.setdefault(cache_key, launch))

    def _note_runtime(self, outcome: Optional[str]) -> None:
        """Keep how this backend obtained the runtime (cache lock held).

        A resolve that found it already loaded never overwrites the one
        that loaded it: two of a plan's jobs may race for it.
        """
        if outcome is not None and self.native_runtime in (None, "memory"):
            self.native_runtime = outcome

    def _resolve_runtime(self, config) -> None:
        """``prepare_plan``'s extra job: the runtime the plan's kernels will
        launch through, built beside them."""
        outcome = resolve_runtime(
            config.codegen_cache_dir, config.codegen_disk_cache_enabled
        )[2]
        with self._cache_lock:
            self._note_runtime(outcome)

    def _native_launch(
        self,
        key: tuple,
        slots: Sequence[View],
        instructions,
        local_slots: frozenset,
        stats: ExecutionStats,
        lowered: Optional[tuple] = None,
    ):
        """Resolve a kernel form to ``(launchable, None)`` — compiled, or a
        :class:`NativeFill` — or ``(None, why not)``.

        ``local_slots`` (plan-time liveness, part of the cache key) names
        slots whose stores the kernel elides entirely; ``stats`` receives
        the compile/cache outcome of a launch-cache miss; ``lowered`` is
        the form's :func:`_lower_map`, when the caller already has it.
        """
        config = self._effective_config()
        if not config.codegen_enabled:
            return None, "codegen disabled"
        lower = (lambda: lowered) if lowered else partial(
            _lower_map, instructions, local_slots, slots
        )
        cache_key = (key, local_slots, self._codegen_signature(config))
        return self._cached_launch(cache_key, config, lower, stats)

    @staticmethod
    def _reduce_form(members, tail, step: TiledReduceStep):
        """``(slot views, structural key)`` of a tiled reduction ``tail``
        after the element-wise ``members`` of the kernel it ends (none: a
        bare reduction, whose one slot is its source).

        The key — opcode, dtypes, rank, axis, tiling shape, the members'
        form and which of their slots is reduced — names one artifact for
        every rebind and every array size of the same canonical map-reduce.
        """
        source = tail.inputs[0]
        slots, producers = (source,), ()
        if members:
            key, slots, _ = prepare_kernel_launch(members)
            producers = (key, next(i for i, v in enumerate(slots) if v.same_view(source)))
        return slots, (
            "reduce",
            tail.opcode,
            source.dtype.name,
            tail.out.dtype.name,
            len(source.shape),
            int(tail.constants[0].value),
            step.combine,
            step.tile_axis,
            producers,
        )

    def _native_reduce_launch(
        self, members, tail, step: TiledReduceStep, form: tuple, stats: ExecutionStats
    ):
        """Resolve a tiled reduction of structural key ``form`` to
        ``(compiled launchable, None)`` or ``(None, why not)``.

        Shares the backend LRU with map forms.
        """
        if 0 in tail.inputs[0].shape:
            # Geometry first, here and at plan time: a launch that would be
            # thrown away costs no compiler run and no cache entry.
            return None, "zero-size reduction source"
        config = self._effective_config()
        if not (config.codegen_enabled and config.codegen_reductions_enabled):
            return None, "compiled reductions disabled"

        def lower():
            nest = lower_reduction(
                tail, step.combine, step.tile_axis, members, step.local_slots
            )
            return emit_reduce_source(nest), partial(NativeReduceLaunch, nest=nest)

        cache_key = (form, step.local_slots, self._codegen_signature(config))
        return self._cached_launch(cache_key, config, lower, stats)

    # ------------------------------------------------------------------ #
    # Parallel-backend seams
    # ------------------------------------------------------------------ #

    def _map_launcher(self, instructions, step, stats):
        prepared = prepare_kernel_launch(instructions)
        key, slots, _ = prepared
        launch, reason = self._native_launch(
            key, slots, instructions, step.local_slots, stats
        )
        if launch is None:
            self._count(stats, fallback_reason=reason, native_fallbacks=1)
            return super()._map_launcher(instructions, step, stats, prepared)
        if isinstance(launch, NativeKernelLaunch):
            self._count(
                stats,
                native_kernel_launches=1,
                native_slots_elided=len(launch.elided_slots),
            )
        return slots, launch

    def _launch_map(self, launcher, slots, step, memory, stats, threads) -> None:
        """Collapse a multi-thread launch of a chunk-capable compiled
        kernel into ONE ``repro_kernel_mt`` call.

        The runtime block-partitions the outermost loop over the process's
        persistent worker pool, so the whole fused step costs a single
        ctypes round (which releases the GIL) regardless of thread count.
        Hazard analysis already happened at plan time: only splittable
        nests become :class:`TiledMapStep`s, and serial-hazard nests never
        reach this seam.  Interpreted templates, launchables bound without
        a runtime and single-thread launches keep the inherited per-tile
        machinery.  A fill is one NumPy assignment per step at any thread
        count.
        """
        if isinstance(launcher, NativeFill):
            stats.tiles_executed += 1
            launcher(memory, slots)
            return
        if isinstance(launcher, NativeKernelLaunch) and launcher.supports_mt:
            nthreads = self._resolve_codegen_threads(self._effective_config(), threads)
            if nthreads > 1:
                stats.tiles_executed += 1
                launcher.launch_mt(memory, slots, nthreads)
                self._count(stats, native_mt_launches=1)
                return
        super()._launch_map(launcher, slots, step, memory, stats, threads)

    def _run_reduce(self, instruction, step, memory, stats, threads) -> None:
        """Run a tiled reduction through a compiled kernel when one exists.

        The compiled path is one foreign call: n-D forms chunk the
        partition axis into disjoint output slices; rank-1 combine forms
        collect per-chunk partials and tree-combine them inside the
        artifact in the tiled backend's fixed order.  Forms that do not
        lower (or with reductions disabled) fall back to the inherited
        interpreted tiled paths, counted as reduction fallbacks.
        """
        fused = instruction if instruction.is_fused() else None
        instructions = instruction.kernel if fused else (instruction,)
        members, tail = split_tail(instructions)
        slots, form = self._reduce_form(members, tail, step)
        launch, reason = self._native_reduce_launch(members, tail, step, form, stats)
        if launch is not None:
            stats.record_launch(instructions, fused)
            stats.tiled_instructions += len(instructions)
            stats.tiles_executed += 1
            nthreads = self._resolve_codegen_threads(self._effective_config(), threads)
            used_mt = launch(memory, slots, tail.out, nthreads)
            # A kernel's members ran compiled too: one kernel launch.
            self._count(
                stats,
                native_reductions_compiled=1,
                native_kernel_launches=int(bool(members)),
                native_mt_launches=int(used_mt),
                native_slots_elided=len(step.local_slots),
            )
            return
        self._count(
            stats,
            fallback_reason=reason,
            native_reduction_fallbacks=1,
            native_fallbacks=int(bool(members)),
        )
        super()._run_reduce(instruction, step, memory, stats, threads)

    def prepare_plan(self, plan) -> None:
        """Tile (inherited) and pre-compile the plan's kernel forms.

        Pre-compilation at plan time means a warm plan replay launches
        straight into cached artifacts; the ``native_signature`` stamp
        makes the warm path skip even the per-step slot walks.  A form that
        occurs twice is resolved once here and hits the LRU at launch.

        No flush exists yet, so the resolution outcomes — counted
        cumulatively as they happen — are parked on the plan for its first
        execution to report.
        """
        super().prepare_plan(plan)
        config = self._effective_config()
        with plan.lock:
            if not config.codegen_enabled or plan.tiling is None:
                plan.native_signature = None
                return
            signature = (self._codegen_signature(config), plan.tiling_signature)
            if plan.native_signature == signature:
                return
            if plan.native_prepare_stats is None:
                plan.native_prepare_stats = ExecutionStats()
            parked = plan.native_prepare_stats
            resolvers: Dict[tuple, Callable] = {}
            compiles = False  # whether any form may need an artifact
            for step in plan.tiling.steps:
                instruction = plan.optimized[step.index]
                instructions = (
                    instruction.kernel if instruction.is_fused() else (instruction,)
                )
                if isinstance(step, TiledReduceStep):
                    members, tail = split_tail(instructions)
                    form = self._reduce_form(members, tail, step)[1]
                    resolve = partial(
                        self._native_reduce_launch, members, tail, step, form, parked
                    )
                    form, compiles = (form, step.local_slots), True
                elif isinstance(step, TiledMapStep):
                    key, slots, _ = prepare_kernel_launch(instructions)
                    form = (key, step.local_slots)
                    if form in resolvers:
                        continue
                    # Lowered here, not on the pool (it holds the GIL
                    # anyway), so that a plan of fills asks for no runtime.
                    lowered = None
                    if self._native_cache.peek(form + signature[:1]) is None:
                        lowered = _lower_map(instructions, step.local_slots, slots)
                        compiles = compiles or lowered[0] is not None
                    resolve = partial(
                        self._native_launch,
                        key,
                        slots,
                        instructions,
                        step.local_slots,
                        parked,
                        lowered,
                    )
                else:
                    continue
                resolvers.setdefault(form, resolve)
            # Distinct forms resolve concurrently on the tile pool: a compile
            # is a subprocess wait and an artifact load is hashing + dlopen,
            # both of which release the GIL.  The pool threads take only the
            # backend cache lock and the codegen latch, never the plan lock
            # this thread holds.  Until this backend has the runtime those
            # forms launch through, when one of them may compile (a fill
            # never does), and when the pool is in play anyway, the
            # runtime is one more job, built beside them and not before.  It
            # leads because every kernel's resolve ends by binding to it: a
            # runtime started late is built, in series, by whichever kernel
            # finishes first — and it is the longest compile of the lot
            # (``<pthread.h>``; cold ``flush_storm_small``: 78-135 ms against
            # 50-125 ms per kernel).  (A lone form stays on this thread: a
            # warm miss must not pay a pool round-trip for a runtime that is
            # already loaded.)
            jobs = list(resolvers.values())
            if compiles and len(jobs) > 1 and self.native_runtime is None:
                jobs.insert(0, partial(self._resolve_runtime, config))
            self._scatter(jobs, self.num_threads())
            plan.native_signature = signature

    def execute_plan(self, plan, program, memory=None):
        """Execute (inherited) and report any parked plan-stage outcomes."""
        result = super().execute_plan(plan, program, memory)
        with plan.lock:
            parked, plan.native_prepare_stats = plan.native_prepare_stats, None
        if parked is not None:
            result.stats.merge(parked)
        return result

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
