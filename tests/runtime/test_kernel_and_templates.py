"""Tests for kernel clustering, kernel templates and plan-less fused execution."""

import numpy as np

from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.program import Program
from repro.bytecode.view import View
from repro.runtime.interpreter import NumPyInterpreter
from repro.runtime.kernel import (
    MAX_KERNEL_SIZE,
    Kernel,
    compile_kernel_template,
    kernel_slot_views,
    partition_into_kernels,
)
from repro.runtime.memory import MemoryManager
from repro.runtime.parallel import ParallelBackend
from repro.utils.config import config_override


def chain_program(length=6, size=16):
    builder = ProgramBuilder()
    vector = builder.new_vector(size)
    builder.identity(vector, 1)
    for _ in range(length):
        builder.add(vector, vector, 1)
    builder.sync(vector)
    return builder.build(), vector


class TestPartitioning:
    def test_consecutive_elementwise_cluster_together(self):
        program, _ = chain_program(length=5)
        partition = partition_into_kernels(program)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert len(kernels) == 1
        assert kernels[0].size == 6  # identity + 5 adds
        # the trailing SYNC stays a bare instruction
        assert partition[-1].opcode is OpCode.BH_SYNC

    def test_non_elementwise_cuts_the_kernel(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(8)
        total = builder.new_vector(1)
        builder.identity(vector, 1)
        builder.add(vector, vector, 1)
        builder.add_reduce(total, vector, axis=0)
        builder.add(vector, vector, 1)
        program = builder.build()
        partition = partition_into_kernels(program)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [2, 1]

    def test_shape_change_cuts_the_kernel(self):
        builder = ProgramBuilder()
        small = builder.new_vector(4)
        large = builder.new_vector(8)
        builder.identity(small, 1)
        builder.identity(large, 1)
        partition = partition_into_kernels(builder.build())
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [1, 1]

    def test_max_kernel_size_respected(self):
        program, _ = chain_program(length=9)  # 10 element-wise byte-codes
        partition = partition_into_kernels(program, max_kernel_size=4)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [4, 4, 2]

    def test_kernel_metadata(self):
        program, vector = chain_program(length=2)
        kernel = [item for item in partition_into_kernels(program) if isinstance(item, Kernel)][0]
        assert kernel.shape == (16,)
        assert vector in kernel.output_views()
        assert vector in kernel.input_views()

    def test_bare_call_takes_the_size_argument(self):
        program, _ = chain_program(length=9)  # 10 element-wise byte-codes
        partition = partition_into_kernels(program, 4)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [4, 4, 2]
        partition = partition_into_kernels(program, 3)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [3, 3, 3, 1]

    def test_bare_call_defaults_to_max_kernel_size(self):
        program, _ = chain_program(length=MAX_KERNEL_SIZE + 4)
        kernels = [item for item in partition_into_kernels(program) if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [MAX_KERNEL_SIZE, 5]


class TestCanAcceptIterationSpaces:
    """Regression tests for Kernel.can_accept's input-view validation."""

    def _seed_kernel(self, length=8):
        builder = ProgramBuilder()
        out = builder.new_vector(length)
        source = builder.new_vector(length)
        instruction = builder.add(out, source, 1.0)
        kernel = Kernel()
        kernel.append(builder.build()[0])
        return kernel, builder

    def test_differently_shaped_input_view_is_rejected(self):
        # Candidate's *output* matches the kernel shape but an input view
        # iterates a different space (a reshaped window): it used to fuse.
        kernel, builder = self._seed_kernel(length=8)
        out2 = builder.new_vector(8)
        reshaped = View(builder.new_base(8), 0, (2, 4))
        candidate = Instruction(OpCode.BH_ADD, (out2, reshaped, 1.0))
        assert candidate.out.shape == kernel.shape
        assert not kernel.can_accept(candidate, max_size=32)

    def test_shifted_overlapping_view_chain_is_cut(self):
        # i1 writes a[0:8]; i2 reads the shifted window a[1:9].  Fusing
        # them into one iteration space would read elements the fused loop
        # already overwrote — the kernel must be cut.
        builder = ProgramBuilder()
        base = builder.new_base(9)
        lo = View(base, 0, (8,), (1,))
        hi = View(base, 1, (8,), (1,))
        out = builder.new_vector(8)
        builder.emit(OpCode.BH_ADD, lo, lo, 1.0)
        builder.emit(OpCode.BH_ADD, out, hi, 0.5)
        program = builder.build()
        partition = partition_into_kernels(program)
        kernels = [item for item in partition if isinstance(item, Kernel)]
        assert [k.size for k in kernels] == [1, 1]
        # The same chain through identical views still fuses.
        builder2 = ProgramBuilder()
        base2 = builder2.new_base(8)
        full = View(base2, 0, (8,), (1,))
        out2 = builder2.new_vector(8)
        builder2.emit(OpCode.BH_ADD, full, full, 1.0)
        builder2.emit(OpCode.BH_ADD, out2, full, 0.5)
        kernels2 = [
            item
            for item in partition_into_kernels(builder2.build())
            if isinstance(item, Kernel)
        ]
        assert [k.size for k in kernels2] == [2]

    def test_overlapping_write_over_earlier_read_is_cut(self):
        # i1 reads a[1:9]; i2 writes the shifted window a[0:8]: fusing
        # would let the loop overwrite elements i1 still needs.
        builder = ProgramBuilder()
        base = builder.new_base(9)
        lo = View(base, 0, (8,), (1,))
        hi = View(base, 1, (8,), (1,))
        out = builder.new_vector(8)
        builder.emit(OpCode.BH_ADD, out, hi, 1.0)
        builder.emit(OpCode.BH_IDENTITY, lo, 0.0)
        kernels = [
            item
            for item in partition_into_kernels(builder.build())
            if isinstance(item, Kernel)
        ]
        assert [k.size for k in kernels] == [1, 1]

    def test_cut_chain_still_executes_bitwise_like_the_interpreter(self):
        builder = ProgramBuilder()
        base = builder.new_base(9)
        lo = View(base, 0, (8,), (1,))
        hi = View(base, 1, (8,), (1,))
        out = builder.new_vector(8)
        builder.emit(OpCode.BH_IDENTITY, View.full(base), 2.0)
        builder.emit(OpCode.BH_ADD, lo, hi, 1.0)
        builder.emit(OpCode.BH_MULTIPLY, out, hi, 0.5)
        builder.sync(out)
        program = builder.build()
        reference = NumPyInterpreter().execute(program)
        with config_override(
            parallel_serial_threshold=2, parallel_num_threads=1, parallel_tile_elements=4
        ):
            tiled = ParallelBackend().execute(program)
        assert np.array_equal(reference.value(out), tiled.value(out))
        assert np.array_equal(
            reference.value(View.full(base)), tiled.value(View.full(base))
        )


class TestKernelCompilation:
    def test_compiled_kernel_computes_the_chain(self):
        program, vector = chain_program(length=4)
        kernel = [item for item in partition_into_kernels(program) if isinstance(item, Kernel)][0]
        memory = MemoryManager()
        template = compile_kernel_template(kernel.instructions)
        template.blocked(frozenset())(memory, kernel_slot_views(kernel.instructions))
        assert np.all(memory.read_view(vector) == 5.0)

    def test_as_instruction_wraps_payload(self):
        program, _ = chain_program(length=3)
        kernel = [item for item in partition_into_kernels(program) if isinstance(item, Kernel)][0]
        fused = kernel.as_instruction(tag="test")
        assert fused.opcode is OpCode.BH_FUSED
        assert len(fused.kernel) == kernel.size


#: Tiles of four elements: the 16-element chains launch templates per tile.
TINY_TILES = dict(parallel_tile_elements=4, parallel_serial_threshold=4)


class TestPlanLessFusedExecution:
    """``ParallelBackend().execute`` schedules an unfused program itself."""

    def test_results_match_interpreter(self):
        program, vector = chain_program(length=7)
        reference = NumPyInterpreter().execute(program).value(vector)
        with config_override(**TINY_TILES):
            tiled = ParallelBackend().execute(program).value(vector)
        assert np.array_equal(reference, tiled)

    def test_fewer_kernel_launches_than_interpreter(self):
        program, _ = chain_program(length=7)
        interpreter_launches = NumPyInterpreter().execute(program).stats.kernel_launches
        with config_override(**TINY_TILES):
            fused_launches = ParallelBackend().execute(program).stats.kernel_launches
        assert interpreter_launches == 8
        assert fused_launches == 1

    def test_template_cache_hits_on_repeated_execution(self):
        program, _ = chain_program(length=5)
        backend = ParallelBackend()
        with config_override(**TINY_TILES):
            backend.execute(program)
            assert backend.cache_stats()["tile_template_misses"] >= 1
            before_hits = backend.cache_stats()["tile_template_hits"]
            backend.execute(program)
        assert backend.cache_stats()["tile_template_hits"] > before_hits

    def test_mixed_program_with_reduction(self):
        builder = ProgramBuilder()
        vector = builder.new_vector(6)
        total = builder.new_vector(1)
        builder.arange(vector)
        builder.add(vector, vector, 1)
        builder.multiply(vector, vector, 2)
        builder.add_reduce(total, vector, axis=0)
        program = builder.build()
        with config_override(parallel_tile_elements=2, parallel_serial_threshold=2):
            result = ParallelBackend().execute(program)
        assert result.scalar(total) == float(sum((i + 1) * 2 for i in range(6)))

    def test_schedules_are_cached_across_repeated_executions(self):
        # Repeated plan-less executions of one structure replay one ad-hoc
        # plan; the dependency-graph analysis must not be re-paid.
        backend = ParallelBackend()
        backend.execute(chain_program(length=5)[0])
        assert backend.cache_stats()["tiling_cache_size"] == 1
        backend.execute(chain_program(length=5)[0])  # fresh bases, same structure
        stats = backend.cache_stats()
        assert stats["tiling_cache_size"] == 1
        assert stats["tiling_cache_hits"] == 1
        backend.execute(chain_program(length=7)[0])
        assert backend.cache_stats()["tiling_cache_size"] == 2

    def test_template_caches_are_bounded(self):
        """Kernel forms carry their constants, so a loop over ``x * i + 1.5``
        is a new form every flush: the template cache must evict, not grow
        with the flush count."""
        from repro.runtime.engine import ExecutionEngine

        engine = ExecutionEngine(backend="parallel", optimize=True)
        prefix = "tile_template_"
        with config_override(parallel_tile_elements=16, parallel_serial_threshold=4):
            for index in range(400):
                builder = ProgramBuilder()
                vector = builder.new_vector(32)
                builder.identity(vector, 1)
                builder.multiply(vector, vector, float(index))
                builder.add(vector, vector, 1.5)
                builder.sync(vector)
                result = engine.execute(builder.build())
        assert np.all(result.value(vector) == 399.0 + 1.5)
        stats = engine.cache_stats()
        assert stats[prefix + "misses"] == 400
        assert stats[prefix + "size"] <= stats[prefix + "capacity"] < 400
        assert stats[prefix + "evictions"] == 400 - stats[prefix + "size"]
        assert prefix + "contentions" in stats and "backend_lock_contentions" in stats

    def test_respects_preexisting_fused_instructions(self):
        program, vector = chain_program(length=3)
        kernel = [item for item in partition_into_kernels(program) if isinstance(item, Kernel)][0]
        wrapped = Program([kernel.as_instruction(), program[-1]])
        with config_override(**TINY_TILES):
            result = ParallelBackend().execute(wrapped)
        assert np.all(result.value(vector) == 4.0)
        assert result.stats.kernel_launches == 1
