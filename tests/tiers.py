"""Executing tiers of the differential axes, by name.

A tier is a backend plus the settings it runs under.  ``parallel4`` is the
parallel backend with four tile workers pinned: the plain ``parallel`` tier
runs as many workers as the host has CPUs — one on a single-CPU runner,
where no tile ever leaves the calling thread — so ``parallel4`` is the
column that always crosses the pooled path (blocks submitted to the
persistent pool, partials produced on worker threads).

A ``native`` cell runs its program twice on one backend (:func:`runs`): a
kernel form that occurs in one step of a plan is compiled on its second
launch, so the second run is the one that proves the compiled path, and
the first one the template path it takes until then.
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
    backend: twice on ``native``, once elsewhere."""
    return 2 if TIERS.get(name, (name, {}))[0] == "native" else 1
