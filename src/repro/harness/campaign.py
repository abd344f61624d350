"""MBPTA measurement campaigns.

Implements the paper's experimental protocol:

    "We execute TVCA 3,000 times to collect execution times ...  We
    flush caches, reset the FPGA and reload the executable across
    executions to have the same conditions for each execution.  We also
    set a new seed for each experiment after the binary has been
    reloaded."

:class:`CampaignConfig` owns the per-run seeding discipline — every run
``r`` derives a fresh platform seed and an independent workload input
seed from the campaign's base seed.  Execution itself lives in
:class:`repro.api.runner.CampaignRunner`, which runs any
:class:`repro.api.workload.Workload` serially or in parallel shards and
collects execution times into
:class:`~repro.harness.measurements.PathSamples` keyed by the executed
path (the paper performs per-path analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..platform.prng import derive_seed
from .measurements import ExecutionTimeSample, PathSamples
from .records import RunRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> harness)
    from ..core.convergence import CampaignConvergenceSummary

__all__ = ["CampaignConfig", "CampaignResult"]


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level parameters.

    Attributes
    ----------
    runs:
        Number of measured executions (the paper uses 3,000).
    base_seed:
        Root of the per-run seed derivations.
    vary_inputs:
        When False every run replays identical workload inputs, leaving
        platform randomization as the only variation source (useful for
        isolating hardware effects in ablations).
    """

    runs: int = 1000
    base_seed: int = 2017
    vary_inputs: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def platform_seed(self, run_index: int) -> int:
        """Per-run platform randomization seed."""
        return derive_seed(self.base_seed, 1, run_index)

    def input_seed(self, run_index: int) -> int:
        """Per-run workload input seed (constant when vary_inputs=False)."""
        if not self.vary_inputs:
            return derive_seed(self.base_seed, 2, 0)
        return derive_seed(self.base_seed, 2, run_index)


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    ``run_details`` holds one typed :class:`RunRecord` per measured
    execution, sorted by run index — cycles, path, and the exact seeds
    that reproduce the run.

    Adaptive campaigns additionally set ``runs_requested`` (the run cap
    that was asked for) and ``convergence`` (the stopping decision with
    per-path checkpoint histories); fixed-budget campaigns leave both
    ``None``.

    ``backend`` records which execution backend the runner resolved to
    (``"scalar"`` or ``"batch"``) — provenance only: the two backends
    are bit-identical, so it never affects the observations.
    """

    label: str
    samples: PathSamples
    run_details: List[RunRecord] = field(default_factory=list)
    runs_requested: Optional[int] = None
    convergence: Optional["CampaignConvergenceSummary"] = None
    backend: Optional[str] = None

    @property
    def records(self) -> List[RunRecord]:
        """Alias for ``run_details`` under its modern name."""
        return self.run_details

    @property
    def merged(self) -> ExecutionTimeSample:
        """All execution times pooled across paths (collection order)."""
        ordered = ExecutionTimeSample(label=self.label)
        for value, _ in self._ordered_observations():
            ordered.add(value)
        return ordered

    def _ordered_observations(self) -> List[Tuple[float, str]]:
        return [(record.cycles, record.path) for record in self.run_details]

    @property
    def num_runs(self) -> int:
        """Number of measured executions."""
        return len(self.run_details)

    @property
    def runs_used(self) -> int:
        """Alias for :attr:`num_runs` in adaptive-campaign vocabulary."""
        return len(self.run_details)

    @property
    def stopped_early(self) -> bool:
        """Whether an adaptive campaign converged before its cap."""
        return (
            self.runs_requested is not None
            and len(self.run_details) < self.runs_requested
        )
