"""Partitioning of views across simulated workers."""

from __future__ import annotations

from typing import List

from repro.bytecode.view import View
# The block distribution lives with the tiling, whose spans it computes: a
# dist worker needs it without the simulated cluster.
from repro.runtime.tiling import partition_length


def partition_view(view: View, num_workers: int) -> List[View]:
    """Split ``view`` along its first axis into per-worker sub-views.

    Workers beyond the clamped chunk count (more workers than rows) get
    ``None`` placeholders so the caller can keep worker indices aligned.
    """
    chunks = partition_length(view.shape[0], num_workers)
    parts: List[View] = []
    for start, count in chunks:
        offset = view.offset + start * view.strides[0]
        shape = (count,) + view.shape[1:]
        parts.append(View(view.base, offset, shape, view.strides))
    parts.extend([None] * (num_workers - len(parts)))
    return parts
