"""Tests for addition-chain construction (paper Equation 1, Listings 4-5)."""

import pytest

from repro.core.addition_chains import (
    available_strategies,
    binary_chain,
    chain_for,
    chain_multiply_count,
    naive_chain,
    optimal_chain,
    power_of_two_chain,
)


def is_addition_chain(chain):
    """Does ``chain`` start at 1, end at its target, and add two earlier values per step?"""
    values = chain.values
    return (
        values[:1] == (1,)
        and values[-1] == chain.target
        and len(chain.steps) == len(values) - 1
        and all(
            i <= k and j <= k and values[i] + values[j] == values[k + 1]
            for k, (i, j) in enumerate(chain.steps)
        )
    )


class TestNaiveChain:
    def test_listing_4_count_for_ten(self):
        # Listing 4: x^10 with nine BH_MULTIPLYs.
        assert naive_chain(10).num_multiplies == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_count_is_n_minus_one(self, n):
        assert naive_chain(n).num_multiplies == max(0, n - 1)

    def test_chain_is_valid_and_two_register(self):
        chain = naive_chain(12)
        assert is_addition_chain(chain)
        assert chain.fits_two_registers()


class TestPowerOfTwoChain:
    def test_listing_5_chain_for_ten(self):
        # Listing 5: x^2, x^4, x^8, x^9, x^10 — five BH_MULTIPLYs.
        chain = power_of_two_chain(10)
        assert chain.values == (1, 2, 4, 8, 9, 10)
        assert chain.num_multiplies == 5
        assert chain.fits_two_registers()

    @pytest.mark.parametrize("n, expected", [(2, 1), (4, 2), (8, 3), (16, 4), (15, 10), (9, 4)])
    def test_counts(self, n, expected):
        assert power_of_two_chain(n).num_multiplies == expected

    @pytest.mark.parametrize("n", range(2, 40))
    def test_valid_for_small_exponents(self, n):
        chain = power_of_two_chain(n)
        assert is_addition_chain(chain)
        assert chain.fits_two_registers()


class TestBinaryChain:
    def test_ten_needs_four_multiplies(self):
        chain = binary_chain(10)
        assert chain.num_multiplies == 4
        assert chain.values[-1] == 10
        assert chain.fits_two_registers()

    @pytest.mark.parametrize("n", range(2, 65))
    def test_count_formula(self, n):
        expected = (n.bit_length() - 1) + bin(n).count("1") - 1
        assert binary_chain(n).num_multiplies == expected

    @pytest.mark.parametrize("n", range(2, 65))
    def test_valid_and_two_register(self, n):
        chain = binary_chain(n)
        assert is_addition_chain(chain)
        assert chain.fits_two_registers()

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_powers_of_two_use_only_squarings(self, n):
        chain = binary_chain(n)
        assert chain.num_multiplies == n.bit_length() - 1

    @pytest.mark.parametrize("n", range(2, 65))
    def test_never_worse_than_paper_strategy(self, n):
        assert binary_chain(n).num_multiplies <= power_of_two_chain(n).num_multiplies


class TestOptimalChain:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_valid(self, n):
        assert is_addition_chain(optimal_chain(n))

    @pytest.mark.parametrize("n", range(2, 33))
    def test_never_worse_than_binary(self, n):
        assert optimal_chain(n).num_multiplies <= binary_chain(n).num_multiplies

    @pytest.mark.parametrize(
        "n, length",
        [(15, 5), (23, 6), (31, 7), (2, 1), (3, 2), (7, 4)],
    )
    def test_known_optimal_lengths(self, n, length):
        assert optimal_chain(n).num_multiplies == length

    def test_fifteen_beats_binary(self):
        # The classic example: binary needs 6 multiplies, the optimal chain 5.
        assert binary_chain(15).num_multiplies == 6
        assert optimal_chain(15).num_multiplies == 5


class TestChainAPI:
    def test_strategy_lookup(self):
        assert chain_for(10, "naive").strategy == "naive"
        assert chain_for(10, "optimal").strategy == "optimal"
        with pytest.raises(KeyError):
            chain_for(10, "magic")

    def test_available_strategies(self):
        assert set(available_strategies()) == {"naive", "power_of_two", "binary", "optimal"}

    def test_chain_multiply_count_helper(self):
        assert chain_multiply_count(10, "naive") == 9
        assert chain_multiply_count(10, "power_of_two") == 5
        assert chain_multiply_count(10, "binary") == 4

    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_non_positive_exponent_rejected(self, bad):
        with pytest.raises(ValueError):
            naive_chain(bad)
        with pytest.raises(ValueError):
            binary_chain(bad)

    def test_exponent_one_is_empty_chain(self):
        for strategy in available_strategies():
            chain = chain_for(1, strategy)
            assert chain.num_multiplies == 0
            assert chain.values == (1,)
