"""Floating-point unit latency model.

FDIV and FSQRT on the LEON3 GRFPU take a *variable* number of cycles
depending on the values operated (iterative SRT-style algorithms finish
early for simple operands).  With plain MBTA this forces the user to
prove that the operand values exercised at analysis upper-bound those at
operation — infeasible in general.  The paper's modification: during the
**analysis phase** FDIV/FSQRT run at a *fixed latency equal to their
worst case*, making the FPU jitterless at analysis and guaranteeing the
analysis-time behaviour upper-bounds operation.

This module models both modes:

* :attr:`FpuMode.OPERATION` — value-dependent latency.  The latency of a
  divide/sqrt is driven by an *operand class* recorded in the instruction
  trace (how many quotient digit iterations the operand pair needs),
  mapped into ``[min_latency, max_latency]``.
* :attr:`FpuMode.ANALYSIS` — every FDIV/FSQRT takes ``max_latency``.

All other FP operations (add/sub/mul/convert/compare) have fixed
latencies on the GRFPU and are therefore jitterless in both modes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["FpuMode", "FpOp", "FpuConfig", "FpuStats", "Fpu"]


class FpuMode(enum.Enum):
    """Analysis-time (fixed worst latency) vs operation (value-dependent)."""

    ANALYSIS = "analysis"
    OPERATION = "operation"


class FpOp(enum.Enum):
    """Floating-point operation classes with distinct timing."""

    ADD = "fadd"
    SUB = "fsub"
    MUL = "fmul"
    DIV = "fdiv"
    SQRT = "fsqrt"
    CONV = "fconv"
    CMP = "fcmp"


#: Default fixed latencies (cycles) for the jitterless operations,
#: patterned after the GRFPU pipeline.
_DEFAULT_FIXED_LATENCIES: Dict[FpOp, int] = {
    FpOp.ADD: 4,
    FpOp.SUB: 4,
    FpOp.MUL: 4,
    FpOp.CONV: 4,
    FpOp.CMP: 2,
}


@dataclass(frozen=True)
class FpuConfig:
    """FPU timing configuration.

    Attributes
    ----------
    mode:
        :class:`FpuMode` — ANALYSIS forces worst-case FDIV/FSQRT latency.
    div_min_latency / div_max_latency:
        Latency range of FDIV in operation mode (GRFPU-like: ~15..25).
    sqrt_min_latency / sqrt_max_latency:
        Latency range of FSQRT in operation mode (~15..28).
    fixed_latencies:
        Per-op fixed latencies for the jitterless operations.
    """

    mode: FpuMode = FpuMode.ANALYSIS
    div_min_latency: int = 15
    div_max_latency: int = 25
    sqrt_min_latency: int = 15
    sqrt_max_latency: int = 28
    fixed_latencies: Dict[FpOp, int] = field(
        default_factory=lambda: dict(_DEFAULT_FIXED_LATENCIES)
    )

    def __post_init__(self) -> None:
        if self.div_min_latency > self.div_max_latency:
            raise ValueError("div_min_latency must be <= div_max_latency")
        if self.sqrt_min_latency > self.sqrt_max_latency:
            raise ValueError("sqrt_min_latency must be <= sqrt_max_latency")
        for op in (FpOp.DIV, FpOp.SQRT):
            if op in self.fixed_latencies:
                raise ValueError(f"{op} latency is range-configured, not fixed")


@dataclass
class FpuStats:
    """Per-run FPU activity counters."""

    ops: int = 0
    div_ops: int = 0
    sqrt_ops: int = 0
    total_cycles: int = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.ops = 0
        self.div_ops = 0
        self.sqrt_ops = 0
        self.total_cycles = 0


class Fpu:
    """Latency oracle for floating-point instructions.

    The instruction trace records, for each FDIV/FSQRT, an *operand
    class* in ``[0, 1]``: 0 means the operand pair terminates the
    iterative algorithm as early as possible, 1 means it needs the full
    iteration count.  Operation-mode latency interpolates the configured
    range; analysis mode ignores the class and returns the maximum.
    """

    def __init__(self, config: FpuConfig) -> None:
        self.config = config
        self.stats = FpuStats()

    @property
    def mode(self) -> FpuMode:
        """Current timing mode."""
        return self.config.mode

    def reset_stats(self) -> None:
        """Zero activity counters."""
        self.stats.reset()

    def _variable_latency(self, lo: int, hi: int, operand_class: float) -> int:
        if math.isnan(operand_class):
            # Charge the worst case, as operand_class_of does for
            # non-finite operands.
            return hi
        clamped = min(max(operand_class, 0.0), 1.0)
        return lo + int(round(clamped * (hi - lo)))

    def latency(self, op: FpOp, operand_class: float = 1.0) -> int:
        """Cycles consumed by one FP instruction.

        Parameters
        ----------
        op:
            The operation class.
        operand_class:
            Value-dependence knob in ``[0, 1]`` for DIV/SQRT; ignored for
            fixed-latency ops and in analysis mode.
        """
        if op is FpOp.DIV:
            self.stats.div_ops += 1
            if self.config.mode is FpuMode.ANALYSIS:
                cycles = self.config.div_max_latency
            else:
                cycles = self._variable_latency(
                    self.config.div_min_latency,
                    self.config.div_max_latency,
                    operand_class,
                )
        elif op is FpOp.SQRT:
            self.stats.sqrt_ops += 1
            if self.config.mode is FpuMode.ANALYSIS:
                cycles = self.config.sqrt_max_latency
            else:
                cycles = self._variable_latency(
                    self.config.sqrt_min_latency,
                    self.config.sqrt_max_latency,
                    operand_class,
                )
        else:
            cycles = self.config.fixed_latencies[op]
        self.stats.ops += 1
        self.stats.total_cycles += cycles
        return cycles

    def worst_case_latency(self, op: FpOp) -> int:
        """Upper bound of the latency of ``op`` across both modes."""
        if op is FpOp.DIV:
            return self.config.div_max_latency
        if op is FpOp.SQRT:
            return self.config.sqrt_max_latency
        return self.config.fixed_latencies[op]


def operand_class_of(dividend: float, divisor: float) -> float:
    """Heuristic operand class of an actual FP divide.

    Used by the TVCA workload generator to derive realistic
    value-dependent latencies from the *actual* numbers the control loop
    computes: operand pairs whose quotient has few significant fraction
    bits terminate early (class near 0), irrational-looking quotients run
    the full iteration count (class near 1).
    """
    if divisor == 0 or not math.isfinite(dividend) or not math.isfinite(divisor):
        return 1.0
    quotient = abs(dividend / divisor)
    if quotient == 0.0:
        return 0.0
    mantissa, _ = math.frexp(quotient)
    # Count significant fraction bits of the mantissa (up to 24).
    scaled = int(mantissa * (1 << 24))
    if scaled == 0:
        return 0.0
    trailing_zeros = (scaled & -scaled).bit_length() - 1
    significant = 24 - trailing_zeros
    return min(max(significant / 24.0, 0.0), 1.0)
