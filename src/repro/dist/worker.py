"""The worker-process side of the distributed backend.

``worker_main`` is the spawn entry point: a frame-serve loop over one
duplex pipe.  Workers are deliberately dumb — they hold no configuration of
their own (what a plan needs of the master's travels in its ``load``
frame), never create shared-memory segments (only attach, so a worker
crash cannot leak one), never run a compiler
(:func:`~repro.codegen.compiler.forbid_compiles`) and never talk to each
other; the master sequences every step
through per-step ``step``/``complete`` round trips, which is what makes a
dead worker immediately detectable (the master waits on the pipe *and* the
process sentinel).

Execution model
---------------
* ``load`` caches the pickled (program, tiling, shard plan) under its plan
  token, drops the tokens the frame says the master evicted, and runs the
  plan soundness checks (structural shard validation always; the ``checks``
  layer's tiling and dist-adoption checks when the master says so).  A
  plan that shards ``BH_ERF`` also names the master's artifact cache
  directory: the worker keeps it with the plan and loads the kernel
  runtime's vector ``erf`` from there; if the directory lacks it the shard
  runs ``math.erf`` — the same bits — and its ``complete`` frame says so.
* ``map`` binds canonical base positions to shared-memory segments for the
  coming steps — the whole per-flush data plane is this name mapping.
  Several positions may name one segment (temporaries the memory plan put
  on one slot), and the positions the shard plan lists as *private* may be
  missing: no other step addresses those bases, so the worker launches
  their slots as kernel-local ones — block scratch of the template launch,
  exactly as on the thread tier.
* ``step`` executes this worker's shard of one distributed step through
  :meth:`LoadedPlan.run_shard`, which the master calls for shard 0 (over a
  :class:`ShardMemory` of the segments it bound itself): map
  shards slice every template slot view to the shard rows and run the
  template's blocked launch once — a stencil view reaching past the shard
  reads its neighbour's rows in place, in the segment every worker maps;
  reduction shards reduce their assigned spans — of a kernel that ends in
  the reduction, after its members computed the span in scratch — combine
  forms writing partials into the shared scratch segment for the master's
  fixed pairwise combine.
"""

from __future__ import annotations

import os
import pickle
import traceback
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.bytecode.base import BaseArray
from repro.bytecode.view import View
from repro.codegen.compiler import forbid_compiles
from repro.dist.planner import MapShardStep, ReduceShardStep
from repro.dist.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    make_frame,
)
from repro.dist.shardstore import attach_segment
from repro.runtime import interpreter
from repro.runtime.kernel import prepare_kernel_launch, split_tail
from repro.runtime.tiling import reduce_tile, slice_view, span_producer
from repro.utils.config import Config

#: Worker-side attachment cache cap: segments beyond this are re-attached
#: on demand (bounds stale attachments when the master recycles heavily).
MAX_ATTACHMENTS = 64


class ShardMemory:
    """Duck-typed memory manager over one flush's shared-memory storage.

    Kernel templates and the shared reduce body only need ``allocate`` /
    ``view_array``; storage is pre-registered from the flush's segment
    mapping, so resolving an unmapped base is a protocol violation, never a
    silent host allocation.  ``unmapped`` holds the private base positions
    the mapping left out, ``scratch`` the reduction scratch segment's bytes.
    """

    def __init__(self, unmapped: frozenset, scratch: Optional[np.ndarray]) -> None:
        self._storage: Dict[int, np.ndarray] = {}
        self.unmapped = unmapped
        self.scratch = scratch

    def register(self, base: BaseArray, storage: np.ndarray) -> None:
        self._storage[id(base)] = storage

    def allocate(self, base: BaseArray, zero: Optional[bool] = None) -> np.ndarray:
        try:
            return self._storage[id(base)]
        except KeyError:
            raise ProtocolError(
                f"shard asked to materialize unmapped base {base.name or id(base)}"
            ) from None

    def view_array(self, view: View) -> np.ndarray:
        buffer = self.allocate(view.base)
        itemsize = view.base.dtype.itemsize
        strides_bytes = tuple(stride * itemsize for stride in view.strides)
        return np.lib.stride_tricks.as_strided(
            buffer[view.offset:],
            shape=view.shape,
            strides=strides_bytes,
            writeable=True,
        )


class LoadedPlan:
    """One plan as a shard executes it: a worker keeps one per loaded token
    (until the master evicts it), the master one per execution plan.

    The program is the one the token's *first* flush bound: structure only,
    as far as a shard is concerned (the shard plan keeps every step that
    reads a data operand on the master).
    """

    def __init__(self, program, dist_plan, config: Config) -> None:
        from repro.runtime.plan import program_base_order

        self.program = program
        self.dist_plan = dist_plan
        #: Where the plan's vector ``erf`` comes from (the master's artifact
        #: directory; the default when the plan shards no ``BH_ERF``).
        self.config = config
        self.base_order = program_base_order(program)
        #: Base positions a ``map`` frame may leave out (kernel-local bases,
        #: bases the program only frees).
        self.private_positions = dist_plan.unbound_positions(True)
        #: step index -> (slot views, compiled template)
        self.templates: Dict[int, tuple] = {}

    def map_segments(self, segments, scratch_name, buffer_of) -> ShardMemory:
        """One flush's storage: ``segments`` maps canonical base positions
        to ``(segment name, nbytes)`` and ``buffer_of`` resolves a segment
        name to its bytes — a worker attaches, the master reads the mapping
        its store already holds."""
        unmapped = frozenset(range(len(self.base_order))) - segments.keys()
        if not unmapped <= self.private_positions:
            raise ProtocolError(
                f"map leaves non-private base positions "
                f"{sorted(unmapped - self.private_positions)} unmapped"
            )
        scratch = buffer_of(scratch_name) if scratch_name is not None else None
        memory = ShardMemory(unmapped, scratch)
        for position, (name, _) in segments.items():
            base = self.base_order[position]
            buffer = buffer_of(name)
            if base.nbytes > buffer.nbytes:
                raise ProtocolError(
                    f"segment {name} ({buffer.nbytes} B) too small for base "
                    f"at position {position} ({base.nbytes} B)"
                )
            memory.register(base, buffer[: base.nbytes].view(base.dtype.np_dtype))
        return memory

    def run_shard(self, step, shard: int, memory: ShardMemory) -> dict:
        """Execute shard ``shard`` of one distributed step against ``memory``.

        A worker runs the shard its id names, the master shard 0.  Returns
        the counters a ``complete`` frame carries.
        """
        counters: dict = {}
        if isinstance(step, MapShardStep):
            _run_map_shard(self, step, shard, memory, counters)
        elif isinstance(step, ReduceShardStep):
            _run_reduce_shard(self, step, shard, memory, counters)
        else:
            raise ProtocolError(f"step {step.index} is not distributed")
        return counters


class _Worker:
    def __init__(self, worker_id: int, conn) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.plans: Dict[str, LoadedPlan] = {}
        #: segment name -> uint8 buffer over its mapping; LRU, capped.
        self.attachments: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.memory: Optional[ShardMemory] = None
        self.current_token: Optional[str] = None
        self.mapped_names: set = set()
        self.crash_armed = False

    # ------------------------------------------------------------------ #
    # Channel helpers
    # ------------------------------------------------------------------ #

    def send(self, kind: str, **payload) -> None:
        self.conn.send_bytes(encode_frame(make_frame(kind, **payload)))

    def serve(self) -> None:
        self.send("hello", worker=self.worker_id, pid=os.getpid())
        while True:
            try:
                frame = decode_frame(self.conn.recv_bytes())
            except (EOFError, OSError):
                break  # master went away; nothing to clean but mappings
            kind = frame["kind"]
            if kind == "shutdown":
                break
            if kind == "crash":
                # Test-only fault injection, *armed* rather than immediate:
                # the worker dies when it starts its next step, so the
                # master observes the death mid-flush (after load/map, with
                # a step outstanding) instead of between flushes where the
                # pool would simply be respawned.
                self.crash_armed = True
                continue
            try:
                if kind == "load":
                    self.handle_load(frame)
                elif kind == "map":
                    self.handle_map(frame)
                elif kind == "step":
                    self.handle_step(frame)
                else:
                    raise ProtocolError(f"worker cannot handle {kind!r} frames")
            except Exception as exc:
                try:
                    self.send(
                        "error",
                        message=f"{type(exc).__name__}: {exc}",
                        traceback=traceback.format_exc(),
                    )
                except (BrokenPipeError, OSError):
                    break
        self.close()

    def close(self) -> None:
        # A mapping unmaps with its last view; segments are the master's.
        self.memory = None
        self.plans.clear()
        self.attachments.clear()
        try:
            self.conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Frame handlers
    # ------------------------------------------------------------------ #

    def handle_load(self, frame) -> None:
        from repro.dist.planner import validate_dist_plan

        token = frame["token"]
        program, tiling, dist_plan = pickle.loads(frame["payload"])
        # The master names the directory its vector erf lies in, if any.
        config = Config(codegen_cache_dir=frame.get("codegen"))
        loaded = LoadedPlan(program, dist_plan, config)
        checks = validate_dist_plan(program, tiling, dist_plan, frame["check"])
        # The master owns the table's bound: it names what it evicted.
        for evicted in frame.get("evict", ()):
            self.plans.pop(evicted, None)
            if evicted == self.current_token:
                self.current_token = self.memory = None
        self.plans[token] = loaded
        self.send("loaded", token=token, plan_checks_run=checks, plans=len(self.plans))

    def _attach(self, name: str) -> np.ndarray:
        buffer = self.attachments.get(name)
        if buffer is not None:
            self.attachments.move_to_end(name)
            return buffer
        while len(self.attachments) >= MAX_ATTACHMENTS:
            stale = next(
                (key for key in self.attachments if key not in self.mapped_names),
                None,
            )
            if stale is None:
                break
            del self.attachments[stale]
        buffer = np.frombuffer(attach_segment(name), dtype=np.uint8)
        self.attachments[name] = buffer
        return buffer

    def handle_map(self, frame) -> None:
        token = frame["token"]
        loaded = self.plans.get(token)
        if loaded is None:
            raise ProtocolError(f"map for unloaded plan token {token}")
        self.mapped_names = {name for name, _ in frame["segments"].values()}
        if frame["scratch"] is not None:
            self.mapped_names.add(frame["scratch"])
        self.memory = loaded.map_segments(
            frame["segments"], frame["scratch"], self._attach
        )
        self.current_token = token

    def handle_step(self, frame) -> None:
        if self.crash_armed:
            # Die exactly like a segfaulting kernel would: no reply, no
            # cleanup, with the master's step outstanding.
            os._exit(23)
        token = frame["token"]
        if token != self.current_token or self.memory is None:
            raise ProtocolError("step frame without a current segment mapping")
        loaded = self.plans[token]
        step = loaded.dist_plan.steps[frame["step"]]
        counters = loaded.run_shard(step, self.worker_id, self.memory)
        self.send("complete", step=frame["step"], counters=counters)


# --------------------------------------------------------------------------- #
# Shard execution: the body of LoadedPlan.run_shard
# --------------------------------------------------------------------------- #


def _template(loaded: LoadedPlan, step_index: int):
    cached = loaded.templates.get(step_index)
    if cached is None:
        instruction = loaded.program[step_index]
        # The element-wise byte-codes: a closing reduction is not a step
        # of the template but what consumes its result.
        members = split_tail(instruction.kernel or (instruction,))[0]
        _, slots, make_template = prepare_kernel_launch(members)
        cached = (slots, make_template())
        loaded.templates[step_index] = cached
    return cached


def _launch_template(loaded, step, memory: ShardMemory, counters):
    """``(slot views, template, local slots, vector erf)`` for one launch
    of a step.

    Slots of private bases the mapping left out are kernel-local to the
    launch: scratch of the call, no storage to resolve.
    """
    slots, template = _template(loaded, step.index)
    local = frozenset(
        slot
        for position, base_slots in step.private
        if position in memory.unmapped
        for slot in base_slots
    )
    counters["template_slots_elided"] = len(local)
    erf = None
    if template.uses_erf:
        erf, counters["erf_fallback"] = interpreter.erf_helper(loaded.config)
    return slots, template, local, erf


def _run_map_shard(loaded, step: MapShardStep, shard: int, memory, counters) -> None:
    if shard >= len(step.shards):
        raise ProtocolError(
            f"shard {shard} launched beyond step's {len(step.shards)} shards"
        )
    slots, template, local, erf = _launch_template(loaded, step, memory, counters)
    views = tuple(slice_view(view, step.shards[shard]) for view in slots)
    template.blocked(local, erf)(memory, views)


def _run_reduce_shard(
    loaded, step: ReduceShardStep, shard: int, memory, counters
) -> None:
    positions = step.assignments[shard]
    if not positions:
        raise ProtocolError(f"shard {shard} launched for reduce step with no spans")
    instruction = loaded.program[step.index]
    producer = None
    if instruction.is_fused():
        # A kernel that ends in the reduction: its members produce each
        # span's source here, in scratch, as on the thread tier.
        slots, template, local, erf = _launch_template(loaded, step, memory, counters)
        instruction = instruction.kernel[-1]
        producer = span_producer(template, slots, local, instruction.inputs[0], erf)
    partials = None
    if step.combine:
        if memory.scratch is None:
            raise ProtocolError("combine reduction launched without a scratch segment")
        dtype = np.dtype(step.partial_dtype)
        partials = memory.scratch[: len(step.spans) * dtype.itemsize].view(dtype)
    # The thread tier's tile body, over this shard's share of the spans.
    for position in positions:
        reduce_tile(memory, instruction, step, position, partials, producer)


def worker_main(worker_id: int, conn) -> None:
    """Spawn entry point: serve frames until shutdown or master death."""
    forbid_compiles()
    _Worker(worker_id, conn).serve()
