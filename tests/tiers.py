"""Executing tiers of the differential axes, by name.

A tier is a backend plus the settings it runs under.  ``parallel4`` is the
parallel backend with four tile workers pinned: the plain ``parallel`` tier
runs as many workers as the host has CPUs — one on a single-CPU runner,
where no tile ever leaves the calling thread — so ``parallel4`` is the
column that always crosses the pooled path (blocks submitted to the
persistent pool, partials produced on worker threads).

A ``native`` or ``dist`` cell runs its program three times on one backend
(:func:`runs`): a kernel form that occurs in one step of a plan is compiled
on its second launch, so the first run takes the template path, the second
proves the compiled one and the third replays it warm; a dist plan ships
on its first flush and replays after.  A tier's bits are a function of the
program and the resolved configuration, so every run must give the same.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.utils.config import config_override

#: Tier name -> ``(backend, config overrides)`` for every tier that is not
#: a bare backend name.
TIERS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "parallel4": ("parallel", {"parallel_num_threads": 4}),
}


@contextmanager
def on_tier(name: str) -> Iterator[str]:
    """Apply tier ``name``'s settings for the block; yield its backend name."""
    backend, settings = TIERS.get(name, (name, {}))
    with config_override(**settings):
        yield backend


def runs(name: str) -> int:
    """How many times a cell of tier ``name`` executes its program on one
    backend: three times on ``native`` and ``dist``, once elsewhere."""
    return 3 if TIERS.get(name, (name, {}))[0] in ("native", "dist") else 1
