"""Result types of the staged analysis pipeline.

:class:`PathAnalysis` and :class:`AnalysisResult` are the pipeline's
output: every seed-era field plus the per-path estimator choice,
fit-quality diagnostics and bootstrap confidence bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...harness.measurements import ExecutionTimeSample
from ..convergence import ConvergenceReport
from ..evt.diagnostics import FitQuality
from ..evt.tail import FittedTail
from ..multipath import PWCETEnvelope, RarePathFloor
from ..pwcet import PWCETCurve
from ..stats.iid import IidVerdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bootstrap import ConfidenceBand
    from .config import AnalysisConfig

__all__ = ["PathAnalysis", "AnalysisResult"]


@dataclass
class PathAnalysis:
    """Full analysis of one path's sample."""

    path: str
    sample: ExecutionTimeSample
    iid: IidVerdict
    tail: FittedTail
    curve: PWCETCurve
    gof_p_value: float
    gev_shape: Optional[float] = None
    gev_shape_p_value: Optional[float] = None
    convergence: Optional[ConvergenceReport] = None
    method: str = ""
    quality: Optional[FitQuality] = None
    selection_note: str = ""

    @property
    def degenerate(self) -> bool:
        """True when the sample had (almost) no spread."""
        return self.sample.std == 0.0

    @property
    def band(self) -> Optional["ConfidenceBand"]:
        """The path's bootstrap confidence band (None when not computed)."""
        return self.curve.band


@dataclass
class AnalysisResult:
    """Outcome of one pipeline run."""

    config: "AnalysisConfig"
    paths: Dict[str, PathAnalysis]
    envelope: PWCETEnvelope
    rare_paths: List[RarePathFloor]
    label: str = ""
    method: str = ""

    @property
    def iid_ok(self) -> bool:
        """All fitted paths passed the i.i.d. gate."""
        return all(p.iid.passed for p in self.paths.values())

    @property
    def has_bands(self) -> bool:
        """Whether any path carries a bootstrap confidence band."""
        return any(p.band is not None for p in self.paths.values())

    def bands(self) -> Dict[str, "ConfidenceBand"]:
        """Per-path confidence bands (paths without a band omitted),
        sorted by path key for stable rendering order."""
        return {
            path: analysis.band
            for path, analysis in sorted(self.paths.items())
            if analysis.band is not None
        }

    def quantile(self, p: float) -> float:
        """Envelope pWCET at exceedance probability ``p``."""
        return self.envelope.quantile(p)

    def exceedance(self, x: float) -> float:
        """Envelope exceedance probability of budget ``x``."""
        return self.envelope.exceedance(x)

    def pwcet_table(self) -> List[Tuple[float, float]]:
        """(cutoff, pWCET) rows at the configured cutoffs."""
        return self.envelope.pwcet_table(self.config.cutoffs)

    def band_table(self) -> List[Tuple[float, float, float]]:
        """(cutoff, lower, upper) envelope band rows (empty if no bands)."""
        return self.envelope.band_table(self.config.cutoffs)

    def dominant_path(self) -> str:
        """Path with the most observations."""
        if not self.paths:
            return self.rare_paths[0].path if self.rare_paths else ""
        return max(self.paths.items(), key=lambda kv: len(kv[1].sample))[0]

    def report(self) -> str:
        """Multi-section textual report (the tool-output equivalent)."""
        from ..report import render_report

        return render_report(self)
