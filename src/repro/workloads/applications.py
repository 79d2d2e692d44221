"""Front-end-level scientific workloads (the paper's motivating use cases).

Each function takes the numbers of a realistic kernel and expresses it with
the lazy front-end exactly as a NumPy user would write it — no byte-code
level tricks.  The value returned is a :class:`~repro.frontend.array.BhArray`
(or a tuple of them); nothing has been executed yet, so the caller decides
when to flush and with which configuration (optimized / unoptimized, which
backend), which is what benchmark E7 does.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.frontend import creation, random as bh_random, reductions, ufuncs
from repro.frontend.array import BhArray
from repro.frontend.session import Session


def heat_equation(
    grid_size: int = 64,
    iterations: int = 10,
    hot_edge_value: float = 100.0,
    session: Optional[Session] = None,
) -> BhArray:
    """Jacobi iteration for the 2-D heat equation on a square grid.

    The classic Bohrium demonstration workload: each iteration replaces the
    interior with the average of its four neighbours, expressed with shifted
    views (no explicit Python loops over elements).
    """
    grid = creation.zeros((grid_size, grid_size), session=session)
    grid[0, :] = hot_edge_value
    grid[-1, :] = hot_edge_value
    work = grid
    for _ in range(iterations):
        up = work[0:-2, 1:-1]
        down = work[2:, 1:-1]
        left = work[1:-1, 0:-2]
        right = work[1:-1, 2:]
        interior = (up + down + left + right) * 0.25
        next_grid = work.copy()
        next_grid[1:-1, 1:-1] = interior
        work = next_grid
    return work


def heat_equation_with_norm(
    grid_size: int = 64,
    iterations: int = 10,
    hot_edge_value: float = 100.0,
    session: Optional[Session] = None,
) -> Tuple[BhArray, list]:
    """Heat-equation Jacobi iteration with a per-step norm diagnostic.

    Identical stencil to :func:`heat_equation`, but every step also records
    a convergence diagnostic — the summed vertical neighbour contribution —
    **mid-chain**: the reduction is emitted between the element-wise
    byte-codes of the stencil, exactly where a monitoring statement lands
    in real simulation codes.  Consecutive-only fusion cuts the
    element-wise chain at the interleaved reduction; the dependency-graph
    fusion scheduler legally reorders the reduction past the rest of the
    chain and fuses the whole stencil step into one kernel, so this
    workload launches strictly fewer kernels with the scheduler on.

    Returns the final grid plus the list of per-step norm arrays (one
    single-element array per iteration).
    """
    grid = creation.zeros((grid_size, grid_size), session=session)
    grid[0, :] = hot_edge_value
    grid[-1, :] = hot_edge_value
    work = grid
    norms = []
    for _ in range(iterations):
        up = work[0:-2, 1:-1]
        down = work[2:, 1:-1]
        left = work[1:-1, 0:-2]
        right = work[1:-1, 2:]
        vertical = up + down
        # The per-step "norm": interleaved into the stencil's chain on
        # purpose (see the docstring).
        norm = reductions.sum(vertical) * 0.25
        interior = ((vertical + left) + right) * 0.25
        next_grid = work.copy()
        next_grid[1:-1, 1:-1] = interior
        norms.append(norm)
        work = next_grid
    return work, norms


def black_scholes(
    num_options: int = 10_000,
    strike: float = 100.0,
    rate: float = 0.05,
    volatility: float = 0.2,
    maturity: float = 1.0,
    session: Optional[Session] = None,
) -> BhArray:
    """European call prices under Black-Scholes for random spot prices.

    A long element-wise pipeline (log, sqrt, erf, exp, many multiplies) —
    the kind of chain where fusion and constant handling matter.
    """
    spot = bh_random.uniform(80.0, 120.0, num_options, session=session)
    sqrt_t = math.sqrt(maturity)
    log_moneyness = ufuncs.log(spot / strike)
    d1 = (log_moneyness + (rate + 0.5 * volatility * volatility) * maturity) / (
        volatility * sqrt_t
    )
    d2 = d1 - volatility * sqrt_t
    cdf_d1 = (ufuncs.erf(d1 / math.sqrt(2.0)) + 1.0) * 0.5
    cdf_d2 = (ufuncs.erf(d2 / math.sqrt(2.0)) + 1.0) * 0.5
    discount = math.exp(-rate * maturity)
    return spot * cdf_d1 - (strike * discount) * cdf_d2


def monte_carlo_pi(
    num_samples: int = 100_000, session: Optional[Session] = None
) -> BhArray:
    """Monte-Carlo estimate of pi from uniform samples in the unit square.

    Returns a single-element array holding the estimate.
    """
    x = bh_random.random(num_samples, session=session)
    y = bh_random.random(num_samples, session=session)
    radius_squared = x * x + y * y
    inside = radius_squared <= 1.0
    # Boolean -> float accumulation: multiply by 1.0 to promote, then reduce.
    hits = reductions.sum(inside * 1.0)
    return hits * (4.0 / num_samples)


def gaussian_blur(
    height: int = 64,
    width: int = 64,
    iterations: int = 3,
    session: Optional[Session] = None,
) -> BhArray:
    """Iterated 3x3 box/Gaussian-style blur of a random image via shifted views.

    Stands in for the imaging-pipeline workloads of the CINEMA project the
    paper is embedded in (X-ray tomography post-processing).
    """
    image = bh_random.random((height, width), session=session)
    work = image
    for _ in range(iterations):
        centre = work[1:-1, 1:-1]
        up = work[0:-2, 1:-1]
        down = work[2:, 1:-1]
        left = work[1:-1, 0:-2]
        right = work[1:-1, 2:]
        corners = (
            work[0:-2, 0:-2] + work[0:-2, 2:] + work[2:, 0:-2] + work[2:, 2:]
        )
        blurred = centre * 0.25 + (up + down + left + right) * 0.125 + corners * 0.0625
        next_image = work.copy()
        next_image[1:-1, 1:-1] = blurred
        work = next_image
    return work


def polynomial_evaluation(
    size: int = 10_000,
    exponent: int = 10,
    session: Optional[Session] = None,
) -> BhArray:
    """Evaluate ``x**exponent + 3`` over a random vector.

    A tiny workload combining the paper's two headline transformations:
    the power is expanded into a multiplication chain and the trailing
    constant additions are merged.
    """
    x = bh_random.uniform(0.5, 1.5, size, session=session)
    result = x ** exponent
    result += 1
    result += 1
    result += 1
    return result

