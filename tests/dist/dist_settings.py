"""Configuration shared by the distributed suite's test modules.

A named module, not ``conftest``: ``from conftest import ...`` resolves to
whichever directory's ``conftest.py`` was imported first, so it breaks as
soon as two suites are collected together.
"""

#: Tiny tiles force multi-shard execution paths even on the small arrays
#: the tests use, so coverage hits sharding rather than serial fallbacks.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)


def shifted_bases(instruction):
    """The bases ``instruction`` (or its kernel) reads through views at two
    or more offsets."""
    offsets = {}
    for inner in instruction.kernel or (instruction,):
        for view in inner.reads():
            offsets.setdefault(id(view.base), (view.base, set()))[1].add(view.offset)
    return [base for base, seen in offsets.values() if len(seen) > 1]


def stencil_steps(plan):
    """The shard-plan steps of ``plan`` that read a shifted base: the steps
    whose shards read rows beyond their own."""
    return [
        step for step in plan.dist_plan.steps if shifted_bases(plan.optimized[step.index])
    ]
