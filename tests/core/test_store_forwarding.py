"""Store forwarding: the backward direction of copy propagation.

``interior = f(work); nxt = work.copy(); nxt[1:-1, 1:-1] = interior`` must
end up storing ``f(work)`` straight into ``nxt``'s interior — no interior
temporary, no second copy, no orphaned ``BH_FREE`` — and every program that
misses one of the rewrite's conditions must keep its copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.dtypes import float32
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.core.copy_propagation import CopyPropagationPass
from repro.core.pipeline import default_pipeline
from repro.core.verifier import SemanticVerifier
from repro.frontend import creation, reductions
from repro.frontend import random as random_module
from repro.frontend.session import Session
from repro.runtime.engine import ExecutionEngine
from repro.utils.config import config_override
from repro.workloads import gaussian_blur, heat_equation, heat_equation_with_norm

LENGTH = 16


@pytest.fixture(autouse=True)
def per_session_seeds(monkeypatch):
    """An earlier test's ``random.seed()`` is process-wide; without one every
    session counts its own ``BH_RANDOM`` seeds, so an oracle session's line up."""
    monkeypatch.setattr(random_module, "_EXPLICIT_SEED", None)


def _forwarded(report_or_stats) -> int:
    """How many stores the copy-propagation runs of a report forwarded."""
    runs = getattr(report_or_stats, "pass_stats", None)
    runs = [report_or_stats] if runs is None else runs
    return sum(
        note.startswith("forwarded store")
        for stats in runs
        if stats.pass_name == "copy_propagation"
        for note in stats.notes
    )


def _copies(program: Program) -> int:
    """View-to-view ``BH_IDENTITY`` byte-codes, fused payloads included."""
    return sum(
        instruction.opcode is OpCode.BH_IDENTITY and bool(instruction.input_views)
        for instruction in program.flattened()
    )


def _fused(*payload: Instruction) -> Instruction:
    return Instruction(OpCode.BH_FUSED, (), kernel=payload, tag="fusion")


def _assert_bitwise_to_oracle(program: Program, optimized: Program, views) -> None:
    oracle = ExecutionEngine(backend="interpreter", optimize=False).execute(program)
    actual = ExecutionEngine(backend="interpreter", optimize=False).execute(optimized)
    for view in views:
        assert oracle.value(view).tobytes() == actual.value(view).tobytes()


class _Chain:
    """``a = arange; T = a + 1; dst <- T`` with ``T`` freed and ``dst`` synced.

    ``a`` comes from a generator, not an element-wise byte-code, so the bare
    producer has no chain to wait for.
    """

    def __init__(self, dst_of=None, dtype=None):
        self.builder = builder = ProgramBuilder()
        self.a = builder.new_vector(LENGTH, name="a")
        self.t = builder.new_vector(LENGTH, dtype=dtype, name="t")
        self.dst = dst_of(builder) if dst_of is not None else builder.new_vector(LENGTH, name="c")
        builder.arange(self.a)
        self.producer = builder.add(self.t, self.a, 1.0)

    def finish(self, free=True, sync=None):
        self.builder.identity(self.dst, self.t)
        if free:
            self.builder.free(self.t)
        self.builder.sync(sync if sync is not None else View.full(self.dst.base))
        return self.builder.build()


class TestPositive:
    def test_bare_producer_into_a_whole_fresh_base(self):
        chain = _Chain()
        program = chain.finish()
        result = CopyPropagationPass().run(program)
        assert _forwarded(result.stats) == 1 and result.stats.rewrites_applied == 1
        # c = (a + 1).copy()  ->  c = a + 1: the copy and the free are gone.
        assert [instruction.opcode for instruction in result.program] == [
            OpCode.BH_RANGE,
            OpCode.BH_ADD,
            OpCode.BH_SYNC,
        ]
        assert result.program[1].out.same_view(chain.dst)
        assert chain.t.base not in result.program.bases()
        _assert_bitwise_to_oracle(program, result.program, [chain.dst])

    def test_bare_producer_into_a_strided_window(self):
        def window(builder):
            full = builder.new_vector(2 * LENGTH + 3, name="wide")
            builder.identity(full, 7.0)
            return View(full.base, 3, (LENGTH,), (2,))

        chain = _Chain(dst_of=window)
        program = chain.finish()
        result = CopyPropagationPass().run(program)
        assert _forwarded(result.stats) == 1
        assert _copies(result.program) == 0
        _assert_bitwise_to_oracle(program, result.program, [View.full(chain.dst.base)])

    def test_fused_producer_moves_as_one_unit_and_the_full_copy_hoists(self):
        # One hand-fused stencil step over a 6 x 6 grid.
        builder = ProgramBuilder()
        work = builder.new_matrix(6, 6, name="work")
        nxt = builder.new_matrix(6, 6, name="nxt")
        partial = builder.new_matrix(4, 4, name="partial")
        interior = builder.new_matrix(4, 4, name="interior")
        up = View(work.base, 1, (4, 4), (6, 1))
        down = View(work.base, 13, (4, 4), (6, 1))
        window = View(nxt.base, 7, (4, 4), (6, 1))
        builder.arange(work)
        kernel = _fused(
            Instruction(OpCode.BH_ADD, (partial, up, down)),
            Instruction(OpCode.BH_MULTIPLY, (interior, partial, 0.5)),
        )
        builder.program.append(kernel)
        builder.identity(nxt, work)
        builder.identity(window, interior)
        builder.free(partial)
        builder.free(interior)
        builder.sync(nxt)
        program = builder.build()
        result = CopyPropagationPass().run(program)
        assert _forwarded(result.stats) == 1
        opcodes = [instruction.opcode for instruction in result.program]
        assert opcodes == [
            OpCode.BH_RANGE,
            OpCode.BH_IDENTITY,  # nxt = work.copy(), hoisted above the kernel
            OpCode.BH_FUSED,
            OpCode.BH_FREE,  # partial
            OpCode.BH_SYNC,
        ]
        assert result.program[2].kernel[1].out.same_view(window)
        assert interior.base not in result.program.bases()
        _assert_bitwise_to_oracle(program, result.program, [nxt])

    def test_a_bare_chain_tail_waits_for_fusion_then_moves_with_its_kernel(self):
        builder = ProgramBuilder()
        a = builder.new_vector(LENGTH, name="a")
        s = builder.new_vector(LENGTH, name="s")
        t = builder.new_vector(LENGTH, name="t")
        wide = builder.new_vector(LENGTH + 2, name="wide")
        window = View(wide.base, 1, (LENGTH,), (1,))
        builder.arange(a)
        builder.add(s, a, a)
        builder.multiply(t, s, 0.25)
        builder.identity(wide, 7.0)  # keeps the copy out of the chain's kernel
        builder.identity(window, t)
        builder.free(s)
        builder.free(t)
        builder.sync(wide)
        program = builder.build()
        # Alone, the pass leaves the tail where fusion can still reach it ...
        assert not CopyPropagationPass().run(program).changed
        # ... and the pipeline forwards the fused unit one sweep later.
        report = default_pipeline(verify=True).run(program)
        assert report.verified and _forwarded(report) == 1
        assert _copies(report.optimized) == 0
        (kernel,) = [i for i in report.optimized if i.is_fused()]
        assert kernel.kernel[-1].out.same_view(window)
        _assert_bitwise_to_oracle(program, report.optimized, [wide])


class TestNegative:
    """Each program misses exactly one condition and keeps its copy."""

    def _assert_kept(self, program, views):
        result = CopyPropagationPass().run(program)
        assert _forwarded(result.stats) == 0
        assert _copies(result.program) == _copies(program)
        report = default_pipeline(verify=True).run(program)
        assert report.verified and _forwarded(report) == 0
        _assert_bitwise_to_oracle(program, report.optimized, views)

    def test_temporary_read_twice(self):
        chain = _Chain()
        other = chain.builder.new_vector(LENGTH, name="other")
        chain.builder.multiply(other, chain.t, 2.0)
        chain.builder.sync(other)
        self._assert_kept(chain.finish(), [chain.dst, other])

    def test_temporary_synced(self):
        chain = _Chain()
        chain.builder.sync(chain.t)
        self._assert_kept(chain.finish(), [chain.dst, chain.t])

    def test_temporary_never_freed(self):
        chain = _Chain()
        self._assert_kept(chain.finish(free=False), [chain.dst])

    def test_dtype_changing_copy(self):
        chain = _Chain(dtype=float32)
        self._assert_kept(chain.finish(), [chain.dst])

    def test_temporary_written_by_two_launch_units(self):
        chain = _Chain()
        chain.builder.add(View(chain.t.base, 0, (4,), (1,)), View(chain.a.base, 0, (4,), (1,)), 9.0)
        self._assert_kept(chain.finish(), [chain.dst])

    def test_reduction_producer(self):
        builder = ProgramBuilder()
        matrix = builder.new_matrix(4, LENGTH, name="m")
        t = builder.new_vector(LENGTH, name="t")
        c = builder.new_vector(LENGTH, name="c")
        builder.arange(matrix)
        builder.add_reduce(t, matrix, axis=0)
        builder.identity(c, t)
        builder.free(t)
        builder.sync(c)
        self._assert_kept(builder.build(), [c])

    def test_extension_producer(self):
        builder = ProgramBuilder()
        left = builder.new_matrix(4, 4, name="l")
        t = builder.new_matrix(4, 4, name="t")
        c = builder.new_matrix(4, 4, name="c")
        builder.arange(left)
        builder.matmul(t, left, left)
        builder.identity(c, t)
        builder.free(t)
        builder.sync(c)
        self._assert_kept(builder.build(), [c])

    def test_producer_reads_the_destination_base(self):
        # g[1:-1, 1:-1] = (g[:-2, 1:-1] + g[2:, 1:-1]) * 0.5, in place: the
        # retargeted kernel would read rows it has already overwritten.
        session = Session(backend="interpreter", optimize=True)
        oracle = Session(backend="interpreter", optimize=False)
        outputs = []
        for target in (session, oracle):
            grid = creation.zeros((8, 8), session=target)
            grid[0, :] = 100.0
            grid[-1, :] = 3.0
            grid[1:-1, 1:-1] = (grid[:-2, 1:-1] + grid[2:, 1:-1]) * 0.5
            outputs.append(grid.to_numpy())
        assert _forwarded(session.last_report) == 0
        assert _copies(session.last_report.optimized) == 1
        assert outputs[0].tobytes() == outputs[1].tobytes()

    def test_a_second_path_from_producer_to_copy(self):
        # The kernel also defines v; nxt[0:n] = v sits between the kernel
        # and the copy and overlaps the copy's window: producer ~> it ~> copy.
        builder = ProgramBuilder()
        a = builder.new_vector(LENGTH, name="a")
        v = builder.new_vector(LENGTH, name="v")
        t = builder.new_vector(LENGTH, name="t")
        nxt = builder.new_vector(LENGTH + 1, name="nxt")
        builder.arange(a)
        builder.program.append(
            _fused(
                Instruction(OpCode.BH_ADD, (v, a, 1.0)),
                Instruction(OpCode.BH_MULTIPLY, (t, v, 2.0)),
            )
        )
        builder.identity(View(nxt.base, 0, (LENGTH,), (1,)), v)
        builder.identity(View(nxt.base, 1, (LENGTH,), (1,)), t)
        builder.free(v)
        builder.free(t)
        builder.sync(nxt)
        self._assert_kept(builder.build(), [nxt])

    def test_payload_that_reads_the_temporary_after_storing_it(self):
        builder = ProgramBuilder()
        a = builder.new_vector(LENGTH, name="a")
        t = builder.new_vector(LENGTH, name="t")
        u = builder.new_vector(LENGTH, name="u")
        c = builder.new_vector(LENGTH, name="c")
        builder.arange(a)
        builder.program.append(
            _fused(
                Instruction(OpCode.BH_MULTIPLY, (t, a, 2.0)),
                Instruction(OpCode.BH_ADD, (u, t, 1.0)),
            )
        )
        builder.identity(c, t)
        builder.free(t)
        builder.sync(c)
        builder.sync(u)
        self._assert_kept(builder.build(), [c, u])


def _jacobi_steps(size, steps, session):
    """``bench``'s flush-per-step Jacobi: the grid arrives from an earlier flush."""
    work = creation.zeros((size, size), session=session)
    work[0, :] = 100.0
    work[-1, :] = 100.0
    session.flush()
    for _ in range(steps):
        interior = (
            work[0:-2, 1:-1] + work[2:, 1:-1] + work[1:-1, 0:-2] + work[1:-1, 2:]
        ) * 0.25
        following = work.copy()
        following[1:-1, 1:-1] = interior
        del interior
        work = following
        session.flush()
    return work, []


STENCILS = {
    "heat_equation": (
        lambda size, session: (heat_equation(size, 3, session=session), []),
        3,
    ),
    "heat_equation_with_norm": (
        lambda size, session: heat_equation_with_norm(size, 3, session=session),
        3,
    ),
    # Each step's blur is also the next step's centre window, which the
    # forward direction redirects to the temporary: only the last forwards.
    "gaussian_blur": (
        lambda size, session: (gaussian_blur(size, size, 3, session=session), []),
        1,
    ),
    # Every step is the same program: one plan forwards, the rest replay it.
    "jacobi_step": (lambda size, session: _jacobi_steps(size, 3, session), 1),
}


def _shape(program: Program):
    return [
        (instruction.opcode, tuple(inner.opcode for inner in instruction.kernel or ()))
        for instruction in program
    ]


@pytest.mark.parametrize("scheduler", ["dag", "consecutive"])
@pytest.mark.parametrize("name", sorted(STENCILS))
def test_stencils_forward_bitwise_with_one_shape_at_both_sizes(name, scheduler):
    """64 elements (exact view overlap) and 65 536 (conservative) agree."""
    build, expected_forwards = STENCILS[name]
    shapes = []
    for size in (8, 256):
        with config_override(fusion_scheduler=scheduler, check_ir=True):
            session = Session(
                backend="interpreter", optimize=True, pipeline=default_pipeline(verify=True)
            )
            out, extras = build(size, session)
            values = [out.to_numpy()] + [extra.to_numpy() for extra in extras]
            plans = session.engine.plan_cache.values()
        oracle = Session(backend="interpreter", optimize=False)
        out, extras = build(size, oracle)
        expected = [out.to_numpy()] + [extra.to_numpy() for extra in extras]
        for actual, reference in zip(values, expected):
            assert actual.tobytes() == reference.tobytes()
        assert sum(_forwarded(plan.report) for plan in plans) == expected_forwards
        for plan in plans:
            assert plan.report.verified
            assert plan.report.ir_checks_run > 0 or not plan.report.changed
        # The plan check (check_ir) accepted every result the memory plan
        # put on a released slot, and there was one to accept — except where
        # each flush is a single step, which releases no slot before its
        # result is written.
        adopted = sum(plan.memory_plan.adopted_bases for plan in plans)
        assert (adopted > 0) == (name != "jacobi_step")
        assert all(plan.plan_checks_run > 0 for plan in plans)
        shapes.append([_shape(plan.optimized) for plan in plans])
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("scheduler", ["dag", "consecutive"])
def test_sinking_the_producer_past_a_reader_of_its_other_output(scheduler):
    """Finding (b): the fused stencil kernel also writes ``vertical``, which
    the interleaved reduction reads.  Forwarding hoists the full copy above
    the kernel; it must never sink the kernel below the reduction."""
    with config_override(fusion_scheduler=scheduler):
        session = Session(backend="interpreter", optimize=True)
        grid, norms = heat_equation_with_norm(16, 2, session=session)
        grid.to_numpy()
        report = session.last_report
        assert [float(norm.to_numpy()[0]) for norm in norms] == [700.0, 875.0]
    assert _forwarded(report) == 2
    assert SemanticVerifier().equivalent(report.original, report.optimized)


def test_a_reduction_of_the_copy_still_sees_the_forwarded_value():
    session = Session(backend="interpreter", optimize=True)
    a = creation.arange(LENGTH, session=session)
    c = (a + 1.0).copy()
    total = reductions.sum(c)
    assert float(total.to_numpy()[0]) == float(np.arange(LENGTH).sum() + LENGTH)
    assert _forwarded(session.last_report) == 1
