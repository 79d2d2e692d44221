"""Addition chains for the power-expansion transformation (Equation 1).

Rewriting ``x**n`` into multiplications is the problem of finding an
*addition chain* for ``n``: a sequence ``1 = c_0, c_1, ..., c_r = n`` where
every element is the sum of two earlier elements; each step is one
``BH_MULTIPLY``.  The paper presents two concrete chains for ``n = 10``:

* the naive chain ``1, 2, 3, ..., 10`` — nine multiplies (Listing 4), and
* a square-then-increment chain ``1, 2, 4, 8, 9, 10`` — five multiplies
  (Listing 5).

This module implements four strategies with increasing quality:

* :func:`naive_chain` — ``n - 1`` multiplies; only ever uses the previous
  element and ``x`` (Listing 4).
* :func:`power_of_two_chain` — square up to the largest power of two below
  ``n``, then multiply by ``x`` for the remainder (Listing 5).
* :func:`binary_chain` — left-to-right square-and-multiply;
  ``floor(log2 n) + popcount(n) - 1`` multiplies.  Like the two chains
  above it only ever needs the origin tensor and the result tensor, which
  is the register constraint the paper highlights.
* :func:`optimal_chain` — shortest addition chain found by iterative-
  deepening search (may require extra temporaries, i.e. relaxes the paper's
  two-register constraint; exposed as an extension and used by the ablation
  benchmark).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class AdditionChain:
    """An addition chain for an exponent.

    Attributes
    ----------
    target:
        The exponent the chain computes.
    values:
        The chain values, starting at 1 and ending at ``target``.
    steps:
        For every value after the first, the pair of *indices into values*
        that sum to it.  ``steps[k]`` produces ``values[k + 1]``.
    strategy:
        Name of the strategy that produced the chain.
    """

    target: int
    values: Tuple[int, ...]
    steps: Tuple[Tuple[int, int], ...]
    strategy: str

    @property
    def num_multiplies(self) -> int:
        """Number of ``BH_MULTIPLY`` byte-codes needed to realise the chain."""
        return len(self.steps)

    def fits_two_registers(self) -> bool:
        """True when every step only uses ``x`` (index 0) or the previous value.

        This is the structural property of Listings 4 and 5: each multiply
        reads the running result and/or the origin tensor, never an older
        intermediate, so no temporary tensors are required.
        """
        for position, (i, j) in enumerate(self.steps):
            allowed = {0, position}
            if i not in allowed or j not in allowed:
                return False
        return True


def _validate_exponent(exponent: int) -> int:
    exponent = int(exponent)
    if exponent < 1:
        raise ValueError(f"addition chains require a positive exponent, got {exponent}")
    return exponent


def naive_chain(exponent: int) -> AdditionChain:
    """The chain ``1, 2, 3, ..., n``: ``n - 1`` multiplies (paper Listing 4)."""
    exponent = _validate_exponent(exponent)
    values = tuple(range(1, exponent + 1))
    steps = tuple((index, 0) for index in range(exponent - 1))
    return AdditionChain(exponent, values, steps, strategy="naive")


def power_of_two_chain(exponent: int) -> AdditionChain:
    """Square to the largest power of two <= n, then increment (paper Listing 5).

    For ``n = 10`` this produces ``1, 2, 4, 8, 9, 10`` — the exact chain of
    Listing 5 with five multiplies.
    """
    exponent = _validate_exponent(exponent)
    values: List[int] = [1]
    steps: List[Tuple[int, int]] = []
    current = 1
    while current * 2 <= exponent:
        steps.append((len(values) - 1, len(values) - 1))
        current *= 2
        values.append(current)
    while current < exponent:
        steps.append((len(values) - 1, 0))
        current += 1
        values.append(current)
    return AdditionChain(exponent, tuple(values), tuple(steps), strategy="power_of_two")


def binary_chain(exponent: int) -> AdditionChain:
    """Left-to-right square-and-multiply: ``floor(log2 n) + popcount(n) - 1`` steps.

    Still satisfies the paper's constraint of only touching the origin and
    the result tensor, but is never worse (and often better) than the
    square-then-increment chain of Listing 5 — e.g. ``n = 10`` needs four
    multiplies instead of five.
    """
    exponent = _validate_exponent(exponent)
    bits = bin(exponent)[2:]
    values: List[int] = [1]
    steps: List[Tuple[int, int]] = []
    current = 1
    for bit in bits[1:]:
        steps.append((len(values) - 1, len(values) - 1))
        current *= 2
        values.append(current)
        if bit == "1":
            steps.append((len(values) - 1, 0))
            current += 1
            values.append(current)
    return AdditionChain(exponent, tuple(values), tuple(steps), strategy="binary")


@functools.lru_cache(maxsize=4096)
def _optimal_chain_values(exponent: int) -> Tuple[int, ...]:
    """Shortest addition chain values for ``exponent`` via iterative deepening.

    Exponential worst case, but with the standard pruning bound
    (largest reachable value doubles per level) it is fast for the exponent
    range the optimizer handles (<= a few hundred).
    """
    if exponent == 1:
        return (1,)
    lower_bound = max(1, exponent.bit_length() - 1)
    for limit in range(lower_bound, exponent + 1):
        found = _search_chain([1], exponent, limit)
        if found is not None:
            return tuple(found)
    raise RuntimeError(f"no addition chain found for {exponent}")  # pragma: no cover


def _search_chain(chain: List[int], target: int, limit: int) -> Optional[List[int]]:
    current = chain[-1]
    if current == target:
        return list(chain)
    remaining = limit - (len(chain) - 1)
    if remaining <= 0:
        return None
    # Pruning: even doubling every remaining step cannot reach the target.
    if current << remaining < target:
        return None
    # Try larger sums first — reaching big values quickly shortens chains.
    candidates = set()
    for a in chain:
        value = current + a
        if value <= target and value > current:
            candidates.add(value)
    for value in sorted(candidates, reverse=True):
        chain.append(value)
        result = _search_chain(chain, target, limit)
        chain.pop()
        if result is not None:
            return result
    return None


def optimal_chain(exponent: int) -> AdditionChain:
    """Shortest addition chain (may need temporaries beyond two registers)."""
    exponent = _validate_exponent(exponent)
    values = _optimal_chain_values(exponent)
    steps: List[Tuple[int, int]] = []
    for position in range(1, len(values)):
        step = _find_step(values, position)
        steps.append(step)
    return AdditionChain(exponent, values, tuple(steps), strategy="optimal")


def _find_step(values: Sequence[int], position: int) -> Tuple[int, int]:
    target = values[position]
    for i in range(position - 1, -1, -1):
        for j in range(i, -1, -1):
            if values[i] + values[j] == target:
                return (i, j)
    raise ValueError(f"{values[:position]} cannot produce {target}")  # pragma: no cover


_STRATEGIES = {
    "naive": naive_chain,
    "power_of_two": power_of_two_chain,
    "binary": binary_chain,
    "optimal": optimal_chain,
}


def chain_for(exponent: int, strategy: str = "binary") -> AdditionChain:
    """Build a chain for ``exponent`` with the named strategy."""
    try:
        builder = _STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown chain strategy {strategy!r}; available: {tuple(_STRATEGIES)}"
        ) from None
    return builder(exponent)


def available_strategies() -> Tuple[str, ...]:
    """Names of the chain-construction strategies."""
    return tuple(_STRATEGIES)


def chain_multiply_count(exponent: int, strategy: str = "binary") -> int:
    """Number of multiplies the named strategy needs for ``exponent``."""
    return chain_for(exponent, strategy).num_multiplies
