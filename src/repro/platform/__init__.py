"""Time-randomized LEON3-like platform model (the hardware substrate).

This subpackage is a trace-driven timing model of the paper's 4-core
LEON3 FPGA board: 7-stage in-order cores with 16 KB 4-way IL1/DL1 (DL1
write-through no-write-allocate), 64-entry ITLB/DTLB, a shared bus and a
DRAM controller — plus the paper's MBPTA-enabling hardware changes
(random modulo placement, random replacement, analysis-mode FPU, a
SIL3-style PRNG).

Entry points: :func:`leon3_rand` and :func:`leon3_det` build the two
platforms compared in the paper; :class:`Platform.run` executes one
measured run under the flush/reset/reseed protocol.
"""

from .batch import (
    BatchRunOutcome,
    BatchUnsupported,
    batch_unsupported_reason,
    numpy_available,
    run_batch,
    run_batch_segments,
)
from .bus import Bus, BusConfig, BusStats
from .cache import Cache, CacheConfig, CacheStats
from .core import Core, CoreConfig, CoreStepper, RunResult
from .fpu import FpOp, Fpu, FpuConfig, FpuMode, FpuStats, operand_class_of
from .memory import MemoryConfig, MemoryController, MemoryStats
from .pipeline import PipelineConfig, PipelineModel, PipelineStats
from .placement import (
    HashRandomPlacement,
    ModuloPlacement,
    PlacementPolicy,
    RandomModuloPlacement,
    make_placement,
)
from .prng import (
    CombinedLfsrPrng,
    HealthTestResult,
    Lfsr,
    SplitMix64,
    derive_seed,
    run_health_tests,
)
from .replacement import (
    LruReplacement,
    PseudoLruTreeReplacement,
    RandomReplacement,
    ReplacementPolicy,
    RoundRobinReplacement,
    make_replacement,
)
from .soc import (
    ConcurrentRunResult,
    Platform,
    PlatformConfig,
    leon3_det,
    leon3_rand,
)
from .tlb import Tlb, TlbConfig, TlbStats
from .trace import Instruction, InstrKind, Trace, TraceBuilder

__all__ = [
    "BatchRunOutcome",
    "BatchUnsupported",
    "Bus",
    "BusConfig",
    "BusStats",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CombinedLfsrPrng",
    "ConcurrentRunResult",
    "Core",
    "CoreConfig",
    "CoreStepper",
    "FpOp",
    "Fpu",
    "FpuConfig",
    "FpuMode",
    "FpuStats",
    "HashRandomPlacement",
    "HealthTestResult",
    "Instruction",
    "InstrKind",
    "Lfsr",
    "LruReplacement",
    "MemoryConfig",
    "MemoryController",
    "MemoryStats",
    "ModuloPlacement",
    "PipelineConfig",
    "PipelineModel",
    "PipelineStats",
    "PlacementPolicy",
    "Platform",
    "PlatformConfig",
    "PseudoLruTreeReplacement",
    "RandomModuloPlacement",
    "RandomReplacement",
    "ReplacementPolicy",
    "RoundRobinReplacement",
    "RunResult",
    "SplitMix64",
    "Tlb",
    "TlbConfig",
    "TlbStats",
    "Trace",
    "TraceBuilder",
    "batch_unsupported_reason",
    "derive_seed",
    "leon3_det",
    "leon3_rand",
    "make_placement",
    "make_replacement",
    "numpy_available",
    "operand_class_of",
    "run_batch",
    "run_batch_segments",
    "run_health_tests",
]
