"""Composable analysis: staged pipeline, estimator registry, bootstrap.

The analysis counterpart of the registry-driven, vectorized execution
stack: :class:`AnalysisPipeline` chains explicit stages (normalize →
i.i.d. gate → tail fit → diagnostics → bootstrap → envelope), tail
estimators are string-keyed registry entries returning a common
:class:`TailModel`, and pWCET uncertainty comes from numpy-batched
bootstrap refits (:class:`ConfidenceBand`).

Entry point: ``AnalysisPipeline(AnalysisConfig(...)).run(samples)``;
the default configuration reproduces the seed analysis bit for bit.
"""

from .bootstrap import (
    ConfidenceBand,
    bootstrap_band,
    naive_bootstrap_band,
    path_bootstrap_seed,
)
from .config import AnalysisConfig, BOOTSTRAP_KINDS
from .estimators import (
    TailModel,
    create_estimator,
    estimator_description,
    estimator_names,
    register_estimator,
)
from .pipeline import (
    AnalysisContext,
    AnalysisPipeline,
    BootstrapStage,
    DiagnosticsStage,
    EnvelopeStage,
    IidGateStage,
    NormalizeStage,
    TailFitStage,
    default_stages,
)
from .result import AnalysisResult, PathAnalysis

__all__ = [
    "AnalysisConfig",
    "AnalysisContext",
    "AnalysisPipeline",
    "AnalysisResult",
    "BOOTSTRAP_KINDS",
    "BootstrapStage",
    "ConfidenceBand",
    "DiagnosticsStage",
    "EnvelopeStage",
    "IidGateStage",
    "NormalizeStage",
    "PathAnalysis",
    "TailFitStage",
    "TailModel",
    "bootstrap_band",
    "create_estimator",
    "default_stages",
    "estimator_description",
    "estimator_names",
    "naive_bootstrap_band",
    "path_bootstrap_seed",
    "register_estimator",
]
