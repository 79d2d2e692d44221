"""Tests for View geometry, equality, overlap and reshaping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.base import BaseArray
from repro.bytecode.view import View, contiguous_strides


class TestConstruction:
    def test_default_view_covers_base(self):
        base = BaseArray(10)
        view = View(base)
        assert view.shape == (10,)
        assert view.strides == (1,)
        assert view.offset == 0
        assert view.covers_base()

    def test_full_with_shape(self):
        base = BaseArray(12)
        view = View.full(base, (3, 4))
        assert view.shape == (3, 4)
        assert view.strides == (4, 1)
        assert view.nelem == 12

    def test_full_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            View.full(BaseArray(10), (3, 4))

    def test_from_slice_matches_paper_notation(self):
        base = BaseArray(10, name="a0")
        view = View.from_slice(base, 0, 10, 1)
        assert view.shape == (10,)
        assert view.strides == (1,)

    def test_from_slice_with_step(self):
        base = BaseArray(10)
        view = View.from_slice(base, 1, 9, 2)
        assert view.offset == 1
        assert view.shape == (4,)
        assert view.strides == (2,)

    def test_from_slice_invalid(self):
        base = BaseArray(10)
        with pytest.raises(ValueError):
            View.from_slice(base, 0, 10, 0)
        with pytest.raises(ValueError):
            View.from_slice(base, 5, 2)

    def test_out_of_bounds_rejected(self):
        base = BaseArray(10)
        with pytest.raises(ValueError):
            View(base, offset=5, shape=(10,))

    def test_stride_shape_rank_mismatch(self):
        base = BaseArray(10)
        with pytest.raises(ValueError):
            View(base, 0, (2, 5), (1,))

    def test_contiguous_strides_helper(self):
        assert contiguous_strides((3, 4, 5)) == (20, 5, 1)
        assert contiguous_strides((7,)) == (1,)
        assert contiguous_strides(()) == ()


class TestGeometry:
    def test_nelem_and_nbytes(self):
        view = View.full(BaseArray(12), (3, 4))
        assert view.nelem == 12
        assert view.nbytes == 96

    def test_is_contiguous(self):
        base = BaseArray(12)
        assert View.full(base, (3, 4)).is_contiguous()
        strided = View(base, 0, (3,), (4,))
        assert not strided.is_contiguous()

    def test_element_indices_1d_strided(self):
        base = BaseArray(10)
        view = View(base, 1, (4,), (2,))
        assert view.element_indices() == (1, 3, 5, 7)

    def test_element_indices_2d(self):
        base = BaseArray(6)
        view = View.full(base, (2, 3))
        assert view.element_indices() == (0, 1, 2, 3, 4, 5)

    def test_element_indices_2d_with_offset(self):
        base = BaseArray(16)
        view = View(base, 5, (2, 2), (4, 1))
        assert view.element_indices() == (5, 6, 9, 10)


class TestRelations:
    def test_same_view_equality(self):
        base = BaseArray(10)
        assert View.full(base) == View.full(base)
        assert View(base, 0, (5,)) != View(base, 5, (5,))

    def test_views_on_different_bases_never_equal(self):
        assert View.full(BaseArray(10)) != View.full(BaseArray(10))

    def test_hashable(self):
        base = BaseArray(10)
        assert len({View.full(base), View.full(base)}) == 1

    def test_overlap_disjoint_halves(self):
        base = BaseArray(10)
        first, second = View(base, 0, (5,)), View(base, 5, (5,))
        assert not first.overlaps(second)

    def test_overlap_shared_region(self):
        base = BaseArray(10)
        first, second = View(base, 0, (6,)), View(base, 4, (6,))
        assert first.overlaps(second)

    def test_overlap_interleaved_strided_views(self):
        base = BaseArray(10)
        evens = View(base, 0, (5,), (2,))
        odds = View(base, 1, (5,), (2,))
        assert not evens.overlaps(odds)

    def test_overlap_different_bases(self):
        assert not View.full(BaseArray(4)).overlaps(View.full(BaseArray(4)))

    def test_empty_view_never_overlaps(self):
        base = BaseArray(4)
        empty = View(base, 0, (0,))
        assert not empty.overlaps(View.full(base))

    def test_an_exact_answer_enumerates_nothing(self, monkeypatch):
        """A view and itself, and two C-contiguous views whose ranges meet
        (each is an interval), are answered without building element sets."""

        def refuse(view):
            raise AssertionError(f"enumerated {view}")

        monkeypatch.setattr(View, "element_indices", refuse)
        base = BaseArray(64 * 64)
        rows, next_rows = View(base, 0, (2, 64)), View(base, 64, (2, 64))
        column = View(base, 5, (64,), (64,))
        assert rows.overlaps(next_rows) and next_rows.overlaps(rows)
        assert column.overlaps(column)
        assert not rows.overlaps(View(base, 128, (2, 64)))


#: A base the drawn views live in: small enough to enumerate every view.
_BASE_ELEMENTS = 96


@st.composite
def _views_of(draw, base):
    """A view of ``base``: a rank-1..3 shape of small extents (zero
    included), strides in -6..6 (zero included), or a C-contiguous one; its
    offset drawn so that every element it touches lies in the base."""
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
    if draw(st.booleans()):
        strides = contiguous_strides(shape)
    else:
        strides = tuple(draw(st.integers(-6, 6)) for _ in shape)
    low = sum((dim - 1) * stride for dim, stride in zip(shape, strides) if dim and stride < 0)
    high = sum((dim - 1) * stride for dim, stride in zip(shape, strides) if dim and stride > 0)
    if high - low >= base.nelem:
        shape, strides, low, high = (1,), (1,), 0, 0
    offset = draw(st.integers(-low, base.nelem - 1 - high))
    return View(base, offset, shape, strides)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_overlaps_is_element_set_intersection(data):
    """On views small enough to enumerate, ``overlaps`` answers exactly:
    the two views share an element — including a view and itself, and two
    contiguous views whose ranges meet."""
    base = BaseArray(_BASE_ELEMENTS)
    first = data.draw(_views_of(base))
    second = first if data.draw(st.booleans()) else data.draw(_views_of(base))
    shared = set(first.element_indices()) & set(second.element_indices())
    assert first.overlaps(second) == bool(shared)
    assert second.overlaps(first) == bool(shared)


class TestReshape:
    def test_reshape_contiguous(self):
        view = View.full(BaseArray(12))
        reshaped = view.reshape((3, 4))
        assert reshaped.shape == (3, 4)
        assert reshaped.base is view.base

    def test_reshape_wrong_count(self):
        with pytest.raises(ValueError):
            View.full(BaseArray(12)).reshape((5, 3))

    def test_reshape_non_contiguous_rejected(self):
        base = BaseArray(12)
        strided = View(base, 0, (3,), (4,))
        with pytest.raises(ValueError):
            strided.reshape((3, 1))
