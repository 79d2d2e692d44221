"""The launch-history axis: a tier's bits do not depend on what ran before.

A ``native`` form runs its template on its first launch and compiled code
from its second, and an artifact cache that already holds the form binds it
on the first.  None of that may show in the result: a tier's bits are a
function of the program and the resolved configuration.  Float sums are
where it would show — float addition does not associate, so a fold written
twice (a compiled left-to-right loop beside NumPy's pairwise one) gave one
program different bits on its first flush and on its second.

Each sum runs three flushes on one engine per tier, once over an empty
artifact cache and once over the cache the first pass left, at the default
thresholds.  Every flush equals the first ``parallel`` flush bit for bit,
and so does the unoptimized interpreter.
"""

from __future__ import annotations

import math

import pytest

from repro.bytecode import dtypes
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.view import View
from repro.codegen import clear_memory_cache
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override

TIERS = ("interpreter", "parallel", "native", "dist")
FLUSHES = 3

#: ``id -> (shape, reduced axis)``: 100 000 elements each.
SUMS = {
    "full_1d": ((100_000,), 0),
    "rows_axis0": ((400, 250), 0),
    "rows_axis1": ((400, 250), 1),
}

#: Two tile threads give a full 1-D sum two spans of 50 000, where NumPy's
#: pairwise sum of the whole vector splits it too, so the tiled tiers have
#: the unoptimized interpreter's bits; other thread counts split elsewhere
#: and are held to each other only.
THREADS = 2


def _sum_program(dtype, shape, axis, closing_a_kernel):
    """``out = sum(values, axis)`` over ``values`` drawn in float64 and
    stored in ``dtype``: a bare sum of an array the program keeps, or the
    sum that closes the kernel computing ``values * 1.25``."""
    builder = ProgramBuilder()

    def new(element_dtype, extent):
        return View.full(builder.new_base(math.prod(extent), element_dtype), extent)

    draw = new(dtypes.float64, shape)
    builder.random(draw, 20161022)
    values = new(dtype, shape)
    builder.identity(values, draw)
    builder.free(draw)
    source = values
    if closing_a_kernel:
        source = new(dtype, shape)
        builder.multiply(source, values, 1.25)
    else:
        builder.sync(values)
    out = new(dtype, tuple(d for i, d in enumerate(shape) if i != axis) or (1,))
    builder.add_reduce(out, source, axis=axis)
    if closing_a_kernel:
        builder.free(source)
        builder.free(values)
    builder.sync(out)
    return builder.build(), out


@pytest.mark.parametrize("closing_a_kernel", [False, True], ids=["bare", "closing_a_kernel"])
@pytest.mark.parametrize("case", sorted(SUMS))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_flush_has_the_same_bits(dtype, case, closing_a_kernel, tmp_path):
    shape, axis = SUMS[case]
    program, out = _sum_program(
        dtypes.from_name(f"BH_{dtype.upper()}"), shape, axis, closing_a_kernel
    )
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    bits = {}
    for cache in ("empty", "warm"):
        clear_memory_cache()  # a fresh process: the artifacts are on disk or nowhere
        with config_override(codegen_cache_dir=str(tmp_path), parallel_num_threads=THREADS):
            for tier in TIERS:
                engine = ExecutionEngine(backend=tier, optimize=True)
                bits[cache, tier] = [
                    engine.execute(program).value(out).tobytes() for _ in range(FLUSHES)
                ]
    reference = bits["empty", "parallel"][0]
    for (cache, tier), flushes in bits.items():
        for flush, value in enumerate(flushes, 1):
            assert value == reference, f"{tier}, {cache} cache, flush {flush}"
    assert reference == oracle.value(out).tobytes()
