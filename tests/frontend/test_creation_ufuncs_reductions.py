"""Tests for creation functions, ufuncs, reductions and random generation."""

import math

import numpy as np
import pytest

from repro import frontend as bh
from repro.bytecode.dtypes import float64, int64
from repro.frontend.session import reset_session
from repro.utils.errors import FrontendError


@pytest.fixture
def session():
    return reset_session(backend="interpreter", optimize=True)


class TestCreation:
    def test_zeros_ones_full(self, session):
        assert np.all(bh.zeros(5).to_numpy() == 0.0)
        assert np.all(bh.ones(5).to_numpy() == 1.0)
        assert np.all(bh.full(5, 7.5).to_numpy() == 7.5)

    def test_2d_creation(self, session):
        grid = bh.zeros((3, 4))
        assert grid.shape == (3, 4)
        assert grid.to_numpy().shape == (3, 4)

    def test_like_variants(self, session):
        template = bh.zeros((2, 3), dtype=int64)
        assert bh.zeros_like(template).shape == (2, 3)
        assert bh.ones_like(template).dtype is int64
        assert bh.empty_like(template).shape == (2, 3)

    def test_empty_is_allocated_but_not_initialised(self, session):
        empty = bh.empty(4)
        assert session.pending_size() == 0  # no byte-code recorded
        assert empty.to_numpy().shape == (4,)

    def test_arange_variants(self, session):
        assert list(bh.arange(5).to_numpy()) == [0, 1, 2, 3, 4]
        assert list(bh.arange(2, 6).to_numpy()) == [2, 3, 4, 5]
        assert list(bh.arange(0, 10, 2.5).to_numpy()) == [0.0, 2.5, 5.0, 7.5]

    def test_arange_invalid(self, session):
        with pytest.raises(FrontendError):
            bh.arange(5, 5)
        with pytest.raises(FrontendError):
            bh.arange(0, 10, 0)

    def test_linspace(self, session):
        values = bh.linspace(0.0, 1.0, 5).to_numpy()
        assert np.allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_linspace_requires_two_points(self, session):
        with pytest.raises(FrontendError):
            bh.linspace(0.0, 1.0, 1)

    def test_array_from_list_and_numpy(self, session):
        assert list(bh.array([1, 2, 3]).to_numpy()) == [1, 2, 3]
        matrix = bh.array(np.arange(6.0).reshape(2, 3))
        assert matrix.shape == (2, 3)

    def test_array_with_explicit_dtype(self, session):
        converted = bh.array([1.7, 2.2], dtype=int64)
        assert converted.dtype is int64
        assert list(converted.to_numpy()) == [1, 2]

    def test_invalid_shape_rejected(self, session):
        with pytest.raises(FrontendError):
            bh.zeros(0)


class TestUfuncs:
    def test_sqrt_exp_log(self, session):
        a = bh.full(4, 4.0)
        assert np.allclose(bh.sqrt(a).to_numpy(), 2.0)
        assert np.allclose(bh.log(bh.exp(a)).to_numpy(), 4.0)

    def test_trigonometry(self, session):
        angles = bh.array([0.0, math.pi / 2])
        assert np.allclose(bh.sin(angles).to_numpy(), [0.0, 1.0])
        assert np.allclose(bh.cos(angles).to_numpy(), [1.0, 0.0], atol=1e-12)
        assert np.allclose(bh.arctan(bh.tan(bh.array([0.5]))).to_numpy(), [0.5])

    def test_arcsin_arccos(self, session):
        values = bh.array([0.0, 0.5, 1.0])
        assert np.allclose(bh.arcsin(values).to_numpy(), np.arcsin([0.0, 0.5, 1.0]))
        assert np.allclose(bh.arccos(values).to_numpy(), np.arccos([0.0, 0.5, 1.0]))

    def test_erf_matches_scipy(self, session):
        scipy_erf = pytest.importorskip("scipy.special").erf

        values = bh.array([-1.0, 0.0, 0.5, 2.0])
        assert np.allclose(bh.erf(values).to_numpy(), scipy_erf([-1.0, 0.0, 0.5, 2.0]))

    def test_binary_ufuncs(self, session):
        a = bh.array([1.0, 5.0, 3.0])
        b = bh.array([4.0, 2.0, 3.0])
        assert list(bh.maximum(a, b).to_numpy()) == [4.0, 5.0, 3.0]
        assert list(bh.minimum(a, b).to_numpy()) == [1.0, 2.0, 3.0]
        assert list(bh.add(a, 1).to_numpy()) == [2.0, 6.0, 4.0]
        assert list(bh.power(a, 2).to_numpy()) == [1.0, 25.0, 9.0]

    def test_binary_ufunc_with_scalar_left(self, session):
        a = bh.array([1.0, 2.0])
        assert list(bh.subtract(10.0, a).to_numpy()) == [9.0, 8.0]

    def test_ufunc_requires_arrays(self, session):
        with pytest.raises(FrontendError):
            bh.sqrt(4.0)
        with pytest.raises(FrontendError):
            bh.add(1.0, 2.0)

    def test_negative_and_absolute(self, session):
        a = bh.array([-2.0, 3.0])
        assert list(bh.negative(a).to_numpy()) == [2.0, -3.0]
        assert list(bh.absolute(a).to_numpy()) == [2.0, 3.0]

    def test_unary_float_promotion_of_integer_input(self, session):
        a = bh.array([1, 4, 9])
        result = bh.sqrt(a)
        assert result.dtype is float64
        assert np.allclose(result.to_numpy(), [1.0, 2.0, 3.0])


class TestReductions:
    def test_full_sum_prod_max_min(self, session):
        a = bh.array([1.0, 2.0, 3.0, 4.0])
        assert float(bh.sum(a)) == 10.0
        assert float(bh.prod(a)) == 24.0
        assert float(bh.amax(a)) == 4.0
        assert float(bh.amin(a)) == 1.0
        assert float(bh.mean(a)) == 2.5

    def test_method_forms(self, session):
        a = bh.array([1.0, 2.0, 3.0, 4.0])
        assert float(a.sum()) == 10.0
        assert float(a.prod()) == 24.0
        assert float(a.max()) == 4.0
        assert float(a.min()) == 1.0
        assert float(a.mean()) == 2.5

    def test_axis_reductions(self, session):
        matrix = bh.array(np.arange(6.0).reshape(2, 3))
        assert list(matrix.sum(axis=0).to_numpy()) == [3.0, 5.0, 7.0]
        assert list(matrix.sum(axis=1).to_numpy()) == [3.0, 12.0]
        assert list(matrix.max(axis=0).to_numpy()) == [3.0, 4.0, 5.0]
        assert list(matrix.mean(axis=1).to_numpy()) == [1.0, 4.0]

    def test_negative_axis(self, session):
        matrix = bh.array(np.arange(6.0).reshape(2, 3))
        assert list(matrix.sum(axis=-1).to_numpy()) == [3.0, 12.0]

    def test_axis_out_of_range(self, session):
        with pytest.raises(FrontendError):
            bh.ones((2, 3)).sum(axis=2)

    def test_full_2d_reduction(self, session):
        matrix = bh.ones((4, 5))
        assert float(matrix.sum()) == 20.0

    def test_reduction_of_boolean_mask_counts(self, session):
        a = bh.array([0.5, 1.5, 2.5, 3.5])
        count = ((a > 1.0) * 1.0).sum()
        assert float(count) == 3.0


class TestRandom:
    def test_values_in_unit_interval(self, session):
        values = bh.random.random(1000).to_numpy()
        assert values.shape == (1000,)
        assert np.all((values >= 0.0) & (values < 1.0))

    def test_seed_makes_streams_reproducible(self, session):
        bh.random.seed(7)
        first = bh.random.random(64).to_numpy()
        bh.random.seed(7)
        second = bh.random.random(64).to_numpy()
        assert np.array_equal(first, second)

    def test_rand_shape_spelling(self, session):
        assert bh.random.rand(3, 4).shape == (3, 4)

    def test_uniform_range(self, session):
        bh.random.seed(11)
        values = bh.random.uniform(5.0, 9.0, 512).to_numpy()
        assert values.min() >= 5.0
        assert values.max() < 9.0

    def test_unseeded_streams_differ(self, session):
        first = bh.random.random(64).to_numpy()
        second = bh.random.random(64).to_numpy()
        assert not np.array_equal(first, second)
