"""The versioned control-channel protocol between master and workers.

Every message on a worker pipe is one *frame*: a plain dict with a magic
marker, a protocol version, a ``kind`` tag and kind-specific payload
fields.  Frames are pickled explicitly (``encode_frame``) and sent with
``Connection.send_bytes`` so the exact wire size of every exchange is
countable — ``ExecutionStats.dist_control_bytes`` is the *entire* cost of
the hot path, and :func:`array_payload_nbytes` proves no NumPy array ever
rides along (``dist_payload_bytes`` must stay zero; arrays travel only
through shared memory).

Frame kinds
-----------
``hello``     worker → master once at startup (worker id, pid).
``load``      master → worker, cold path only: the pickled (program,
              tiling, shard plan) for one plan token, plus whether the
              worker should run plan soundness checks before executing
              and ``evict``: the tokens the master's bounded table dropped
              to make room, for the worker to drop too — and, when the plan
              shards ``BH_ERF``, ``codegen``: the artifact cache directory
              the worker loads the vector ``erf`` from.  The token is
              seed-free and the program is its *first* flush's, so a
              worker may read structure from it and nothing else.
``loaded``    worker → master ack of ``load`` (plan checks run; ``plans``:
              how many plans the worker now holds).
``map``       master → worker, per flush: canonical base position →
              shared-memory segment name, plus the reduction scratch
              segment.
``step``      master → worker: execute one distributed step of the loaded
              plan against the current mapping.
``complete``  worker → master ack of ``step`` with measured counters
              (and ``erf_fallback``: why the shard's ``BH_ERF`` ran the
              ``math.erf`` loop, when it did).
``error``     worker → master: the step or load failed; payload carries
              the message and formatted traceback.
``crash``     master → worker, tests only: arm the worker to die
              (``os._exit``) when it begins its *next step*, so the master
              deterministically observes a mid-flush death.
``shutdown``  master → worker: exit the serve loop cleanly.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from repro.utils.errors import DistributedExecutionError

PROTOCOL_MAGIC = "repro-dist"
PROTOCOL_VERSION = 1

#: Required payload fields per frame kind — validation is structural, not
#: exhaustive; the point is that a malformed or foreign message fails loudly
#: at the channel boundary instead of deep inside execution.
FRAME_FIELDS: Dict[str, tuple] = {
    "hello": ("worker", "pid"),
    "load": ("token", "payload", "check"),
    "loaded": ("token", "plan_checks_run"),
    "map": ("token", "segments", "scratch"),
    "step": ("token", "step"),
    "complete": ("step", "counters"),
    "error": ("message", "traceback"),
    "crash": (),
    "shutdown": (),
}


class ProtocolError(DistributedExecutionError):
    """A control-channel frame was malformed or out of protocol."""


def make_frame(kind: str, **payload: Any) -> Dict[str, Any]:
    """Build a frame of ``kind``; payload fields become dict entries."""
    frame = {"magic": PROTOCOL_MAGIC, "version": PROTOCOL_VERSION, "kind": kind}
    frame.update(payload)
    return validate_frame(frame)


def validate_frame(frame: Any) -> Dict[str, Any]:
    """Check magic, version, kind and required fields; return the frame."""
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame is not a dict: {type(frame).__name__}")
    if frame.get("magic") != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad magic {frame.get('magic')!r}")
    if frame.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {frame.get('version')!r}, "
            f"speaking {PROTOCOL_VERSION}"
        )
    kind = frame.get("kind")
    if kind not in FRAME_FIELDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    missing = [name for name in FRAME_FIELDS[kind] if name not in frame]
    if missing:
        raise ProtocolError(f"{kind} frame missing fields {missing}")
    return frame


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Pickle a validated frame for ``Connection.send_bytes``."""
    return pickle.dumps(validate_frame(frame), protocol=pickle.HIGHEST_PROTOCOL)


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Unpickle and validate one received frame."""
    try:
        frame = pickle.loads(data)
    except Exception as exc:  # pragma: no cover - corrupted channel
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    return validate_frame(frame)


def array_payload_nbytes(value: Any) -> int:
    """Bytes of NumPy array data reachable inside ``value``.

    Walks containers recursively.  Used to *measure* (not assume) that
    control frames carry no array payload: descriptors, names, spans and
    pickled program structure are all fine; an ``ndarray`` anywhere in a
    frame is a design violation the counters make visible.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(
            array_payload_nbytes(k) + array_payload_nbytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(array_payload_nbytes(item) for item in value)
    return 0
