"""E3 — addition-chain quality (Listing 5 vs Listing 4 vs better chains).

Measures, across an exponent sweep, how many multiplies each strategy emits
and how long the chain construction itself takes.  Expected shape: naive
grows linearly in n, the paper's square-then-increment chain grows like
log2(n) plus the remainder, binary like log2(n) plus popcount, and the
optimal chain search matches or beats binary everywhere.
"""

import pytest

from repro.core.addition_chains import (
    binary_chain,
    chain_multiply_count,
    naive_chain,
    optimal_chain,
    power_of_two_chain,
)

from bench_report import record_table

EXPONENTS = tuple(range(2, 65))


@pytest.mark.parametrize(
    "strategy, builder",
    [
        ("naive", naive_chain),
        ("power_of_two", power_of_two_chain),
        ("binary", binary_chain),
        ("optimal", optimal_chain),
    ],
)
def test_chain_construction(benchmark, strategy, builder):
    """Time to build chains for every exponent up to 64, plus their lengths."""

    def build_all():
        return [builder(exponent).num_multiplies for exponent in EXPONENTS]

    lengths = benchmark(build_all)
    benchmark.group = "E3 chain construction (n=2..64)"
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["total_multiplies"] = sum(lengths)
    benchmark.extra_info["worst_case"] = max(lengths)


def test_chain_length_table(benchmark):
    """The series the paper's Listings 4/5 exemplify, over a sweep of exponents."""

    def build():
        rows = []
        for exponent in (2, 3, 4, 7, 10, 15, 16, 23, 32, 33, 47, 64):
            rows.append(
                {
                    "exponent": exponent,
                    "naive": chain_multiply_count(exponent, "naive"),
                    "power_of_two": chain_multiply_count(exponent, "power_of_two"),
                    "binary": chain_multiply_count(exponent, "binary"),
                    "optimal": chain_multiply_count(exponent, "optimal"),
                }
            )
        return rows

    rows = benchmark(build)
    benchmark.group = "E3 chain lengths"
    record_table(
        benchmark,
        "E3: multiplies per exponent and strategy",
        rows,
        ["exponent", "naive", "power_of_two", "binary", "optimal"],
    )
    for row in rows:
        assert row["optimal"] <= row["binary"] <= row["power_of_two"] <= row["naive"]
