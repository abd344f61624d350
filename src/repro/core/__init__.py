"""MBPTA analysis (the paper's primary contribution).

Pipeline: i.i.d. gate (Ljung-Box + two-sample KS at 5%), convergence
check, EVT tail fit (block maxima + Gumbel by default; POT/GPD
alternative), per-path pWCET curves, max envelope across paths, and the
industrial MBTA baseline for comparison.
"""

from . import evt, stats
from .analysis import (
    AnalysisConfig,
    AnalysisPipeline,
    AnalysisResult,
    ConfidenceBand,
    PathAnalysis,
    TailModel,
    create_estimator,
    estimator_description,
    estimator_names,
    register_estimator,
)
from .convergence import (
    CampaignConvergence,
    CampaignConvergenceSummary,
    ConvergenceMonitor,
    ConvergencePolicy,
    ConvergenceReport,
    assess_convergence,
)
from .mbta import MbtaEstimate, mbta_bound
from .multipath import PWCETEnvelope, RarePathFloor
from .pwcet import PWCETCurve, STANDARD_CUTOFFS
from .report import render_pwcet_table, render_report

__all__ = [
    "AnalysisConfig",
    "AnalysisPipeline",
    "AnalysisResult",
    "ConfidenceBand",
    "ConvergenceMonitor",
    "ConvergenceReport",
    "MbtaEstimate",
    "PWCETCurve",
    "PWCETEnvelope",
    "PathAnalysis",
    "RarePathFloor",
    "STANDARD_CUTOFFS",
    "TailModel",
    "assess_convergence",
    "create_estimator",
    "estimator_description",
    "estimator_names",
    "evt",
    "mbta_bound",
    "register_estimator",
    "render_pwcet_table",
    "render_report",
    "stats",
]
