"""Configuration of the staged analysis pipeline.

One frozen dataclass carries every knob of the pipeline: which tail
estimator to use (a registry key, see
:mod:`repro.core.analysis.estimators`), the i.i.d. gate level, the
rare-path policy, and the bootstrap-uncertainty settings.
:class:`repro.api.requests.AnalysisRequest` (the CLI and service form)
builds one of these, so every entry point shares one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..evt.block_maxima import MIN_MAXIMA
from ..pwcet import STANDARD_CUTOFFS

__all__ = ["AnalysisConfig", "BOOTSTRAP_KINDS"]

#: Supported bootstrap resampling schemes.
BOOTSTRAP_KINDS = ("parametric", "block")


@dataclass(frozen=True)
class AnalysisConfig:
    """Pipeline configuration.

    Attributes
    ----------
    method:
        Tail-estimator registry key (``"block-maxima-gumbel"``,
        ``"gev"``, ``"pot-gpd"``, or ``"auto"`` — selected per path via
        fit-quality diagnostics).
    alpha:
        Significance level of the i.i.d. gate (paper: 0.05).
    block_size:
        Fixed block size for block-maxima estimators; 0 selects
        automatically via a GoF screen.
    pot_quantile:
        Threshold quantile for the POT/GPD estimator.
    min_path_samples:
        Paths with fewer runs get a flagged HWM-plus-margin floor
        instead of an EVT fit.
    rare_path_margin:
        The margin of those floors.
    cutoffs:
        Cutoff probabilities for the pWCET table (Figure 3 sweep).
    check_convergence:
        Also replay the stopping rule on each path sample.
    require_iid:
        Raise if any fitted path fails the i.i.d. gate.
    ci:
        Confidence level for bootstrap pWCET bands (e.g. 0.95); None
        disables the bootstrap stage.
    bootstrap:
        Number of bootstrap replicates.
    bootstrap_kind:
        ``"parametric"`` (resample from the fitted distribution) or
        ``"block"`` (resample the fitted block maxima / excesses).
    bootstrap_seed:
        Base seed of the bootstrap resampler (per-path streams are
        derived deterministically from it).
    """

    method: str = "block-maxima-gumbel"
    alpha: float = 0.05
    block_size: int = 0
    pot_quantile: float = 0.90
    min_path_samples: int = 200
    rare_path_margin: float = 0.20
    cutoffs: Sequence[float] = STANDARD_CUTOFFS
    check_convergence: bool = True
    require_iid: bool = False
    ci: Optional[float] = None
    bootstrap: int = 200
    bootstrap_kind: str = "parametric"
    bootstrap_seed: int = 2017

    def __post_init__(self) -> None:
        from .estimators import estimator_names

        if self.method not in estimator_names():
            known = ", ".join(estimator_names())
            raise ValueError(
                f"unknown estimator {self.method!r} (known: {known})"
            )
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.block_size < 0:
            raise ValueError("block_size must be >= 0 (0 = automatic)")
        if not 0.5 <= self.pot_quantile < 1.0:
            raise ValueError("pot_quantile must be in [0.5, 1)")
        if self.min_path_samples < 4 * MIN_MAXIMA:
            raise ValueError(
                f"min_path_samples must be >= {4 * MIN_MAXIMA} for a "
                "meaningful EVT fit"
            )
        if self.ci is not None and not 0.0 < self.ci < 1.0:
            raise ValueError("ci must be in (0, 1)")
        if self.bootstrap < 20:
            raise ValueError("bootstrap needs >= 20 replicates")
        if self.bootstrap_kind not in BOOTSTRAP_KINDS:
            raise ValueError(
                f"bootstrap_kind must be one of {BOOTSTRAP_KINDS}"
            )
