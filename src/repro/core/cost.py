"""The cost model: the one place programs are priced.

The paper's Section 4 observes that power expansion is only enabled because
"benchmarks have shown that for values close to a power of 2, multiplying
multiple times is faster than doing an actual BH_POWER".  The
:class:`CostModel` prices whole programs against a device profile, so a
report can say what a rewrite is predicted to save on a modelled device.

The **roofline** model of one device lives here and nowhere else: each
kernel costs::

    launch_overhead + max(flops / flop_rate, bytes / bandwidth)

(:class:`DeviceProfile`, :func:`simulate_program_time`).  How work scales
over several processes is not modelled: the ``dist`` backend runs it.

Pricing is a report: no backend executes through it and no optimizer
decision reads it.  The fusion scheduler and the passes decide by legality
and by their limits; the CLI's ``--profile``, the benchmarks and the
examples price what they decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.bytecode.instruction import Instruction
from repro.bytecode.opcodes import OpCode
from repro.bytecode.operand import is_view
from repro.bytecode.program import Program
from repro.utils.errors import CostModelError


#: Approximate floating-point operations per output element for each
#: element-wise / reduction op-code.  Transcendentals and ``pow`` are far
#: more expensive than one fused-multiply-add, which is precisely why the
#: paper's power-expansion rewrite pays off.
FLOP_WEIGHTS: Dict[OpCode, float] = {
    OpCode.BH_IDENTITY: 0.0,
    OpCode.BH_ADD: 1.0,
    OpCode.BH_SUBTRACT: 1.0,
    OpCode.BH_MULTIPLY: 1.0,
    OpCode.BH_DIVIDE: 4.0,
    OpCode.BH_MOD: 4.0,
    OpCode.BH_NEGATIVE: 1.0,
    OpCode.BH_ABSOLUTE: 1.0,
    OpCode.BH_RECIPROCAL: 4.0,
    # pow() on real hardware costs on the order of a hundred cycles per
    # element (it goes through exp/log), which is what makes the paper's
    # expansion into a handful of one-flop multiplies profitable.
    OpCode.BH_POWER: 150.0,
    OpCode.BH_SQRT: 8.0,
    OpCode.BH_EXP: 20.0,
    OpCode.BH_LOG: 20.0,
    OpCode.BH_SIN: 20.0,
    OpCode.BH_COS: 20.0,
    OpCode.BH_TAN: 24.0,
    OpCode.BH_ARCSIN: 24.0,
    OpCode.BH_ARCCOS: 24.0,
    OpCode.BH_ARCTAN: 24.0,
    OpCode.BH_ERF: 30.0,
    OpCode.BH_MAXIMUM: 1.0,
    OpCode.BH_MINIMUM: 1.0,
    OpCode.BH_GREATER: 1.0,
    OpCode.BH_GREATER_EQUAL: 1.0,
    OpCode.BH_LESS: 1.0,
    OpCode.BH_LESS_EQUAL: 1.0,
    OpCode.BH_EQUAL: 1.0,
    OpCode.BH_NOT_EQUAL: 1.0,
    OpCode.BH_LOGICAL_AND: 1.0,
    OpCode.BH_LOGICAL_OR: 1.0,
    OpCode.BH_LOGICAL_NOT: 1.0,
    OpCode.BH_ADD_REDUCE: 1.0,
    OpCode.BH_MULTIPLY_REDUCE: 1.0,
    OpCode.BH_MAXIMUM_REDUCE: 1.0,
    OpCode.BH_MINIMUM_REDUCE: 1.0,
    OpCode.BH_RANGE: 1.0,
    OpCode.BH_RANDOM: 10.0,
    OpCode.BH_TRANSPOSE: 0.0,
}


@dataclass(frozen=True)
class DeviceProfile:
    """Performance parameters of a modelled device.

    Attributes
    ----------
    name:
        Profile name (``"gpu"``, ``"multicore"``, ``"single_core"``).
    kernel_launch_overhead_s:
        Fixed latency charged per kernel launch.
    flops_per_second:
        Peak floating-point rate.
    bytes_per_second:
        Peak memory bandwidth.
    """

    name: str
    kernel_launch_overhead_s: float
    flops_per_second: float
    bytes_per_second: float

    def roofline_time(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution-time estimate for one kernel (without launch)."""
        compute_time = flops / self.flops_per_second if self.flops_per_second else 0.0
        memory_time = bytes_moved / self.bytes_per_second if self.bytes_per_second else 0.0
        return max(compute_time, memory_time)


DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    # Numbers are order-of-magnitude figures for a 2016-era discrete GPU,
    # a quad-core CPU using all cores, and a single core with the GIL held —
    # the three execution targets the paper contrasts.
    "gpu": DeviceProfile(
        name="gpu",
        kernel_launch_overhead_s=10e-6,
        flops_per_second=4e12,
        bytes_per_second=300e9,
    ),
    "multicore": DeviceProfile(
        name="multicore",
        kernel_launch_overhead_s=2e-6,
        flops_per_second=2e11,
        bytes_per_second=40e9,
    ),
    "single_core": DeviceProfile(
        name="single_core",
        kernel_launch_overhead_s=0.5e-6,
        flops_per_second=3e10,
        bytes_per_second=20e9,
    ),
}


def instruction_flops(instruction: Instruction) -> float:
    """Floating-point work of one byte-code under the cost model."""
    opcode = instruction.opcode
    if instruction.is_system():
        return 0.0
    if opcode is OpCode.BH_FUSED:
        return sum(instruction_flops(inner) for inner in instruction.kernel or ())
    out = instruction.out
    nelem = out.nelem if out is not None else 0
    if opcode in FLOP_WEIGHTS:
        return FLOP_WEIGHTS[opcode] * nelem
    # Dense linear-algebra extension methods: flop counts from their
    # classical algorithm complexity.
    views = instruction.input_views
    if opcode is OpCode.BH_MATMUL:
        a = views[0]
        n, k = a.shape
        m = views[1].shape[1] if views[1].ndim == 2 else 1
        return 2.0 * n * k * m
    if opcode is OpCode.BH_MATRIX_INVERSE:
        n = views[0].shape[0]
        return 2.0 * n ** 3
    if opcode is OpCode.BH_LU:
        n = views[0].shape[0]
        return (2.0 / 3.0) * n ** 3
    if opcode is OpCode.BH_LU_SOLVE:
        n = views[0].shape[0]
        rhs_cols = views[1].shape[1] if views[1].ndim == 2 else 1
        return (2.0 / 3.0) * n ** 3 + 2.0 * n ** 2 * rhs_cols
    raise CostModelError(f"no flop model for op-code {opcode.value}")


def instruction_bytes(instruction: Instruction) -> float:
    """Memory traffic (bytes) of one byte-code under the cost model."""
    if instruction.is_system():
        return 0.0
    if instruction.opcode is OpCode.BH_FUSED:
        # A fused kernel streams each distinct operand once, not once per
        # fused byte-code: count unique views only.
        seen = set()
        total = 0.0
        for inner in instruction.kernel or ():
            for view in inner.views():
                key = (id(view.base), view.offset, view.shape, view.strides)
                if key not in seen:
                    seen.add(key)
                    total += view.nbytes
        return total
    total = 0.0
    out = instruction.out
    if out is not None:
        total += out.nbytes
    for operand in instruction.inputs:
        if is_view(operand):
            total += operand.nbytes
    return total


def simulate_program_time(program: Program, profile: DeviceProfile) -> float:
    """Total modelled seconds to execute ``program`` on ``profile``.

    Every top-level non-system byte-code is one kernel launch.
    """
    total = 0.0
    for instruction in program:
        if instruction.is_system():
            continue
        flops = instruction_flops(instruction)
        bytes_moved = instruction_bytes(instruction)
        total += profile.kernel_launch_overhead_s + profile.roofline_time(flops, bytes_moved)
    return total


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #


@dataclass
class CostBreakdown:
    """Itemised cost of a program under one device profile."""

    kernel_launches: int
    flops: float
    bytes_moved: float
    seconds: float


class CostModel:
    """Prices byte-codes and programs for one device profile."""

    def __init__(self, profile: Union[str, DeviceProfile] = "gpu") -> None:
        if isinstance(profile, DeviceProfile):
            self.profile = profile
        else:
            try:
                self.profile = DEVICE_PROFILES[profile]
            except KeyError:
                raise CostModelError(
                    f"unknown device profile {profile!r}; available: {tuple(DEVICE_PROFILES)}"
                ) from None

    def program_cost(self, program: Program) -> float:
        """Modelled seconds for a whole program."""
        return simulate_program_time(program, self.profile)

    def breakdown(self, program: Program) -> CostBreakdown:
        """Itemised cost of a program."""
        launches = 0
        flops = 0.0
        bytes_moved = 0.0
        for instruction in program:
            if instruction.is_system():
                continue
            launches += 1
            flops += instruction_flops(instruction)
            bytes_moved += instruction_bytes(instruction)
        return CostBreakdown(
            kernel_launches=launches,
            flops=flops,
            bytes_moved=bytes_moved,
            seconds=self.program_cost(program),
        )
