"""Tests for the lazy BhArray type and the recording session."""

import numpy as np
import pytest

from repro import frontend as bh
from repro.bytecode.opcodes import OpCode
from repro.frontend.array import BhArray
from repro.frontend.session import Session, get_session, reset_session, set_session
from repro.utils.config import config_override
from repro.utils.errors import FrontendError


@pytest.fixture
def session():
    return reset_session(backend="interpreter", optimize=True)


class TestLazyRecording:
    def test_operations_record_without_executing(self, session):
        a = bh.zeros(10)
        a += 1
        a += 1
        assert session.pending_size() == 3  # identity + 2 adds
        assert session.flush_count == 0

    def test_flush_happens_on_observation(self, session):
        a = bh.zeros(10)
        a += 1
        values = a.to_numpy()
        assert session.flush_count == 1
        assert session.pending_size() == 0
        assert np.all(values == 1.0)

    def test_paper_listing_1_result(self, session):
        a = bh.zeros(10)
        a += 1
        a += 1
        a += 1
        assert np.all(a.to_numpy() == 3.0)

    def test_optimizer_ran_during_flush(self, session):
        a = bh.zeros(10)
        a += 1
        a += 1
        a += 1
        a.to_numpy()
        report = session.last_report
        assert report is not None
        assert report.instructions_before > report.instructions_after

    def test_optimize_disabled_session(self):
        session = reset_session(backend="interpreter", optimize=False)
        a = bh.zeros(10)
        a += 1
        a.to_numpy()
        assert session.last_report is None

    def test_values_survive_across_flushes(self, session):
        a = bh.zeros(4)
        a += 2
        first = a.to_numpy()
        a *= 3
        second = a.to_numpy()
        assert np.all(first == 2.0)
        assert np.all(second == 6.0)
        assert session.flush_count == 2

    def test_flush_of_empty_session_is_noop(self, session):
        assert session.flush() is None

    def test_total_stats_accumulate(self, session):
        a = bh.zeros(8)
        a += 1
        a.to_numpy()
        b = bh.ones(8)
        (b * 2).to_numpy()
        total = session.total_stats()
        assert total.kernel_launches >= 2

    def test_default_session_is_shared(self):
        session = reset_session()
        assert get_session() is session
        replacement = Session()
        set_session(replacement)
        assert get_session() is replacement

    def test_backend_selected_from_config(self):
        with config_override(default_backend="parallel"):
            session = Session()
            assert session.backend.name == "parallel"


class TestArithmetic:
    def test_add_sub_mul_div(self, session):
        a = bh.full(6, 12.0)
        assert np.all((a + 3).to_numpy() == 15.0)
        assert np.all((a - 2).to_numpy() == 10.0)
        assert np.all((a * 2).to_numpy() == 24.0)
        assert np.all((a / 4).to_numpy() == 3.0)

    def test_reflected_operators(self, session):
        a = bh.full(4, 2.0)
        assert np.all((10 + a).to_numpy() == 12.0)
        assert np.all((10 - a).to_numpy() == 8.0)
        assert np.all((10 * a).to_numpy() == 20.0)
        assert np.all((10 / a).to_numpy() == 5.0)

    def test_power_and_neg_abs(self, session):
        a = bh.full(4, -3.0)
        assert np.all((a ** 2).to_numpy() == 9.0)
        assert np.all((-a).to_numpy() == 3.0)
        assert np.all(abs(a).to_numpy() == 3.0)

    def test_array_array_operations(self, session):
        a = bh.array([1.0, 2.0, 3.0])
        b = bh.array([10.0, 20.0, 30.0])
        assert list((a + b).to_numpy()) == [11.0, 22.0, 33.0]
        assert list((b / a).to_numpy()) == [10.0, 10.0, 10.0]

    def test_inplace_operators_write_same_base(self, session):
        a = bh.zeros(4)
        original_base = a.view.base
        a += 5
        a *= 2
        assert a.view.base is original_base
        assert np.all(a.to_numpy() == 10.0)

    def test_broadcasting_scalar_array(self, session):
        matrix = bh.ones((2, 3))
        row = bh.array([1.0, 2.0, 3.0])
        total = matrix + row
        assert total.shape == (2, 3)
        assert np.allclose(total.to_numpy(), [[2, 3, 4], [2, 3, 4]])

    def test_incompatible_shapes_rejected(self, session):
        with pytest.raises(FrontendError):
            bh.ones(3) + bh.ones(4)

    def test_inplace_shape_growth_rejected(self, session):
        a = bh.ones(3)
        with pytest.raises(FrontendError):
            a += bh.ones((2, 3))

    def test_comparisons_produce_bool_arrays(self, session):
        a = bh.array([1.0, 5.0, 3.0])
        mask = a > 2.5
        assert mask.dtype.is_bool
        assert list(mask.to_numpy()) == [False, True, True]

    def test_mixing_sessions_rejected(self):
        first = Session()
        second = Session()
        a = BhArray.new(4, session=first)
        b = BhArray.new(4, session=second)
        with pytest.raises(FrontendError):
            a + b

    def test_numpy_operand_is_wrapped(self, session):
        a = bh.ones(3)
        result = a + np.array([1.0, 2.0, 3.0])
        assert list(result.to_numpy()) == [2.0, 3.0, 4.0]

    def test_matmul_operator(self, session):
        matrix = bh.array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        vector = bh.array(np.array([1.0, 1.0]))
        assert list((matrix @ vector).to_numpy()) == [3.0, 7.0]


class TestShapeAndScalars:
    def test_properties(self, session):
        a = bh.zeros((3, 4))
        assert a.shape == (3, 4)
        assert a.ndim == 2
        assert a.size == 12
        assert len(a) == 3

    def test_reshape_and_flatten(self, session):
        a = bh.arange(12)
        matrix = a.reshape(3, 4)
        assert matrix.shape == (3, 4)
        assert matrix.flatten().shape == (12,)

    def test_copy_is_independent(self, session):
        a = bh.zeros(4)
        b = a.copy()
        a += 5
        assert np.all(b.to_numpy() == 0.0)
        assert np.all(a.to_numpy() == 5.0)

    def test_transpose(self, session):
        a = bh.array(np.arange(6.0).reshape(2, 3))
        assert a.T.shape == (3, 2)
        assert np.array_equal(a.T.to_numpy(), np.arange(6.0).reshape(2, 3).T)

    def test_item_and_float_conversion(self, session):
        total = bh.array([41.0]) + 1
        assert float(total) == 42.0
        assert int(total) == 42
        assert total.item() == 42.0

    def test_item_requires_single_element(self, session):
        with pytest.raises(FrontendError):
            bh.ones(3).item()

    def test_repr_and_str_show_values(self, session):
        a = bh.full(3, 7.0)
        assert "7." in str(a)
        assert "BhArray" in repr(a)


class TestFreeOnGarbageCollection:
    def test_temporaries_emit_free(self, session):
        a = bh.ones(8)
        result = (a + 1) * 2  # the (a + 1) temporary dies immediately
        result.to_numpy()
        import gc

        gc.collect()
        frees = [i for i in session.last_report.original if i.opcode is OpCode.BH_FREE]
        assert len(frees) >= 1

    def test_named_arrays_are_not_freed(self, session):
        a = bh.ones(8)
        kept = a + 1
        kept.to_numpy()
        freed_bases = {
            view.base
            for instruction in session.last_report.original
            if instruction.opcode is OpCode.BH_FREE
            for view in instruction.views()
        }
        assert kept.view.base not in freed_bases
        assert a.view.base not in freed_bases

    def test_slices_do_not_free_parent_base(self, session):
        a = bh.ones(8)
        a[0:4].to_numpy()  # temporary slice object dies after this line
        import gc

        gc.collect()
        a += 1  # the base must still be usable
        assert np.all(a.to_numpy() == 2.0)


class TestFreeBeforeAllocate:
    """A deferred free leads the flush unless the flush uses the base."""

    @staticmethod
    def _opcodes(session):
        return [instruction.opcode for instruction in session.last_report.original]

    def test_an_unused_base_is_freed_at_the_front(self, session):
        previous = bh.ones(8) + 1
        previous.to_numpy()
        base = previous.view.base
        del previous
        following = bh.ones(8) + 2
        assert np.all(following.to_numpy() == 3.0)
        first = session.last_report.original[0]
        assert first.opcode is OpCode.BH_FREE and first.operands[0].base is base
        assert not session.memory.is_allocated(base)

    def test_the_previous_result_is_released_before_the_next_allocation(self, session):
        for _ in range(3):
            out = (bh.ones(1000) + 1).to_numpy()
        # ones and the sum; the previous sum went back to the pool first.
        assert session.stats_history[-1].actual_peak_bytes == 2 * 8000
        assert np.all(out == 2.0)

    def test_a_base_the_pending_program_references_keeps_its_free_at_the_end(self, session):
        source = bh.ones(8) + 1
        source.to_numpy()
        base = source.view.base
        result = source * 3  # recorded use of the base ...
        del source  # ... then the last reference goes
        assert np.all(result.to_numpy() == 6.0)
        assert self._opcodes(session)[-1] is OpCode.BH_FREE
        assert session.last_report.original[-1].operands[0].base is base
        assert self._opcodes(session)[0] is not OpCode.BH_FREE
        assert not session.memory.is_allocated(base)

    def test_a_base_a_sync_view_references_keeps_its_free_at_the_end(self, session):
        array = bh.ones(8) + 1
        array.to_numpy()
        view = array.view
        session.release_base(view.base)  # collected while its value is awaited
        session.flush(sync_views=(view,))
        assert self._opcodes(session) == [OpCode.BH_SYNC, OpCode.BH_FREE]

    def test_observing_a_computed_array_with_frees_pending_still_works(self, session):
        kept = bh.ones(8) + 1
        kept.to_numpy()
        dropped = bh.ones(8) + 5
        dropped.to_numpy()
        del dropped
        assert np.all(kept.to_numpy() == 2.0)
        assert self._opcodes(session) == [OpCode.BH_FREE, OpCode.BH_SYNC]

    def test_storage_from_an_earlier_flush_is_released_when_the_optimizer_drops_the_free(
        self, session
    ):
        # ``buffer`` already holds storage when the second flush redefines
        # it whole, forwards that definition into ``padded`` and deletes
        # the copy and the free: the earlier storage must still go.
        buffer = bh.ones(6)
        buffer.to_numpy()
        base = buffer.view.base
        padded = bh.zeros(8)
        padded.to_numpy()
        buffer[:] = bh.arange(6)
        padded[1:7] = buffer
        del buffer
        assert np.array_equal(padded.to_numpy(), [0, 0, 1, 2, 3, 4, 5, 0])
        freed = [
            instruction.operands[0].base
            for instruction in session.last_report.optimized
            if instruction.opcode is OpCode.BH_FREE
        ]
        assert base not in freed, "the scenario no longer drops the free"
        assert not session.memory.is_allocated(base)
