"""Configuration shared by the distributed suite's test modules.

A named module, not ``conftest``: ``from conftest import ...`` resolves to
whichever directory's ``conftest.py`` was imported first, so it breaks as
soon as two suites are collected together.
"""

#: Tiny tiles force multi-shard execution paths even on the small arrays
#: the tests use, so coverage hits sharding rather than serial fallbacks.
TINY_TILES = dict(parallel_tile_elements=16, parallel_serial_threshold=4)
