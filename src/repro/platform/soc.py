"""System-on-chip assembly: cores + shared bus + DRAM controller.

:class:`Platform` is the top-level object the measurement harness talks
to.  It owns the run protocol of the paper's campaign:

    "We flush caches, reset the FPGA and reload the executable across
    executions to have the same conditions for each execution.  We also
    set a new seed for each experiment after the binary has been
    reloaded."

:meth:`Platform.run` performs exactly that — full state reset, per-run
seed installation, then trace execution — and returns the end-to-end
cycle count plus per-resource statistics.

:meth:`Platform.run_concurrent` opens the multicore axis: it co-schedules
one trace per core and interleaves the cores' resumable steppers in
cycle order (always advancing the core with the smallest local time, ties
broken by core id), so the shared bus and DRAM controller see genuinely
overlapping masters.  Co-runner traces can loop so they stay active for
the whole run of the core under analysis; the result carries per-core
:class:`~repro.platform.core.RunResult`\\ s plus the bus/memory
contention breakdown.

Two factory presets mirror the paper's two platforms:

* :func:`leon3_rand` — the MBPTA-compliant configuration: random modulo
  placement + random replacement in IL1/DL1, random replacement in the
  TLBs, FPU in analysis mode (worst-latency FDIV/FSQRT).
* :func:`leon3_det` — the deterministic baseline (DET): modulo placement,
  LRU everywhere, FPU in operation mode (value-dependent latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional

from .bus import Bus, BusConfig, BusStats
from .cache import CacheConfig
from .core import Core, CoreConfig, CoreStepper, RunResult
from .fpu import FpuConfig, FpuMode
from .memory import MemoryConfig, MemoryController, MemoryStats
from .prng import (
    CombinedLfsrPrng,
    derive_seed,
    run_health_tests,
)
from .schedule import run_min_time_interleave
from .tlb import TlbConfig
from .trace import Trace

__all__ = [
    "PlatformConfig",
    "Platform",
    "ConcurrentRunResult",
    "leon3_rand",
    "leon3_det",
]


@dataclass(frozen=True)
class PlatformConfig:
    """Full SoC configuration.

    Attributes
    ----------
    name:
        Human-readable configuration name used in reports ("RAND", "DET").
    num_cores:
        Cores sharing the bus (the paper's board: 4).
    core:
        Per-core resource configuration (identical across cores).
    bus / memory:
        Shared interconnect and DRAM controller parameters.
    check_prng_health:
        Run the SIL3-style health battery on the platform PRNG at
        construction (cheap, catches bad custom generators early).
    """

    name: str = "platform"
    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    check_prng_health: bool = False

    @property
    def is_randomized(self) -> bool:
        """True when any resource consumes per-run randomness."""
        core = self.core
        return (
            core.icache.placement != "modulo"
            or core.dcache.placement != "modulo"
            or core.icache.replacement == "random"
            or core.dcache.replacement == "random"
            or core.itlb.replacement == "random"
            or core.dtlb.replacement == "random"
        )


@dataclass(frozen=True)
class ConcurrentRunResult:
    """Outcome of one co-scheduled execution on several cores.

    ``per_core`` maps core id to that core's
    :class:`~repro.platform.core.RunResult` (the co-runners' results are
    snapshots taken when the analysis core finished); ``bus`` and
    ``memory`` are the shared-resource counters of the whole run,
    including the per-master contention split.
    """

    analysis_core: int
    per_core: Dict[int, RunResult]
    bus: BusStats
    memory: MemoryStats

    @property
    def analysis(self) -> RunResult:
        """The result of the core under analysis."""
        return self.per_core[self.analysis_core]

    @property
    def cycles(self) -> int:
        """End-to-end cycles of the core under analysis."""
        return self.analysis.cycles

    @property
    def contention_by_core(self) -> Dict[int, int]:
        """Cycles each core spent waiting for the shared bus."""
        return {
            core_id: result.bus_contention_cycles
            for core_id, result in sorted(self.per_core.items())
        }

    def to_metadata(self) -> Dict[str, Any]:
        """JSON-safe per-core/contention breakdown for run records."""
        return {
            "analysis_core": self.analysis_core,
            "cores": sorted(self.per_core),
            "per_core_cycles": {
                str(cid): r.cycles for cid, r in sorted(self.per_core.items())
            },
            "per_core_instructions": {
                str(cid): r.instructions
                for cid, r in sorted(self.per_core.items())
            },
            "contention_by_core": {
                str(cid): wait
                for cid, wait in sorted(self.contention_by_core.items())
            },
            "bus": self.bus.to_dict(),
            "memory": self.memory.to_dict(),
        }


class Platform:
    """The modelled SoC: ``num_cores`` cores, one bus, one DRAM controller."""

    def __init__(self, config: PlatformConfig) -> None:
        self.config = config
        self.bus = Bus(config.bus)
        self.memory = MemoryController(config.memory)
        self.cores: List[Core] = [
            Core(
                core_id,
                config.core,
                self.bus,
                self.memory,
            )
            for core_id in range(config.num_cores)
        ]
        if config.check_prng_health:
            results = run_health_tests(CombinedLfsrPrng(0xDA7E2017), window_bits=4000)
            failed = [r for r in results if not r.passed]
            if failed:
                names = ", ".join(r.name for r in failed)
                raise RuntimeError(f"platform PRNG failed health tests: {names}")

    @property
    def name(self) -> str:
        """Configuration name ("RAND" / "DET" in the presets)."""
        return self.config.name

    def reset(self, seed: int = 0) -> None:
        """Full platform reset: bus, memory and every core (all cores
        flushed and reseeded with sub-seeds derived from ``seed``)."""
        self.bus.reset()
        self.bus.reset_stats()
        self.memory.reset()
        self.memory.reset_stats()
        for core in self.cores:
            core.prepare_run(derive_seed(seed, core.core_id + 101))

    def run(self, trace: Trace, seed: int, core_id: int = 0) -> RunResult:
        """One measured execution under the paper's run protocol.

        Flushes and reseeds everything, then executes ``trace`` on
        ``core_id`` and returns its :class:`RunResult`.
        """
        if not 0 <= core_id < len(self.cores):
            raise ValueError(f"core_id {core_id} out of range")
        self.reset(seed)
        return self.cores[core_id].execute(trace)

    def run_concurrent(
        self,
        traces_by_core: Mapping[int, Trace],
        seed: int,
        analysis_core: Optional[int] = None,
        loop_co_runners: bool = True,
    ) -> ConcurrentRunResult:
        """One measured execution with workloads co-scheduled on cores.

        Each entry of ``traces_by_core`` runs on its core; the cores'
        resumable steppers are interleaved in cycle order (smallest local
        time first, ties broken by core id — a deterministic policy, so
        co-scheduled runs are exactly reproducible from ``seed`` and the
        traces).  The run ends when ``analysis_core`` (default: the
        lowest scheduled core) finishes its trace; with
        ``loop_co_runners=True`` (default) the other traces restart from
        the top whenever they run out, so contention is sustained for the
        whole measured interval.  Co-runner results are snapshots at the
        halt point.

        A single-entry mapping degenerates to :meth:`run` exactly — same
        reset, same instruction sequence, bit-identical cycle counts.
        """
        if not traces_by_core:
            raise ValueError("traces_by_core must not be empty")
        for core_id in sorted(traces_by_core):
            if not 0 <= core_id < len(self.cores):
                raise ValueError(f"core_id {core_id} out of range")
        if analysis_core is None:
            analysis_core = min(traces_by_core)
        elif analysis_core not in traces_by_core:
            raise ValueError(
                f"analysis_core {analysis_core} has no scheduled trace"
            )
        self.reset(seed)
        steppers = {
            core_id: CoreStepper(
                self.cores[core_id],
                trace,
                loop=loop_co_runners and core_id != analysis_core,
            )
            for core_id, trace in sorted(traces_by_core.items())
        }
        run_min_time_interleave(steppers, analysis_core)
        return ConcurrentRunResult(
            analysis_core=analysis_core,
            per_core={
                core_id: stepper.result()
                for core_id, stepper in steppers.items()
            },
            bus=self.bus.stats.copy(),
            memory=replace(self.memory.stats),
        )


def _l1_config(placement: str, replacement: str, cache_kb: int) -> CacheConfig:
    return CacheConfig(
        size_bytes=cache_kb * 1024,
        line_bytes=32,
        ways=4,
        placement=placement,
        replacement=replacement,
        write_through_no_allocate=True,
    )


def leon3_rand(
    num_cores: int = 4,
    check_prng_health: bool = False,
    fpu_mode: FpuMode = FpuMode.ANALYSIS,
    cache_kb: int = 16,
    placement: str = "random_modulo",
) -> Platform:
    """The paper's MBPTA-compliant platform (RAND).

    Random modulo placement and random replacement in both L1 caches,
    random replacement in both TLBs, and the FPU in analysis mode so that
    FDIV/FSQRT are jitterless at their worst-case latency.  ``fpu_mode``
    can be flipped to OPERATION to model the *deployed* randomized
    platform (where value-dependent latencies are upper-bounded by the
    analysis-time behaviour).  ``cache_kb`` scales the L1s (16 KB on the
    paper's board; the benches also use a scaled-pressure configuration
    — see EXPERIMENTS.md).  ``placement`` switches between
    ``random_modulo`` (DAC'16, the paper's design) and ``hash_random``
    (DATE'13) for the placement ablation.
    """
    core = CoreConfig(
        icache=_l1_config(placement, "random", cache_kb),
        dcache=_l1_config(placement, "random", cache_kb),
        itlb=TlbConfig(entries=64, replacement="random"),
        dtlb=TlbConfig(entries=64, replacement="random"),
        fpu=FpuConfig(mode=fpu_mode),
    )
    return Platform(
        PlatformConfig(
            name="RAND",
            num_cores=num_cores,
            core=core,
            check_prng_health=check_prng_health,
        )
    )


def leon3_det(num_cores: int = 4, cache_kb: int = 16) -> Platform:
    """The deterministic baseline platform (DET).

    Conventional modulo placement and LRU replacement; the FPU runs in
    operation mode (value-dependent FDIV/FSQRT latency).  Execution time
    varies only with program inputs and memory layout — the jitter MBTA
    practice covers with an engineering margin.
    """
    core = CoreConfig(
        icache=_l1_config("modulo", "lru", cache_kb),
        dcache=_l1_config("modulo", "lru", cache_kb),
        itlb=TlbConfig(entries=64, replacement="lru"),
        dtlb=TlbConfig(entries=64, replacement="lru"),
        fpu=FpuConfig(mode=FpuMode.OPERATION),
    )
    return Platform(
        PlatformConfig(name="DET", num_cores=num_cores, core=core)
    )
