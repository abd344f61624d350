"""String-keyed tail-estimator registry.

Each estimator turns one path's execution-time sample into a
:class:`TailModel`: a fitted :class:`~repro.core.evt.tail.FittedTail`
plus the data the fit was computed on (block maxima or threshold
excesses) and its goodness-of-fit evidence.  New tail methods are one
:func:`register_estimator` call away — the pipeline, the CLI
(``--method``) and the `auto` selector all resolve estimators by name,
mirroring the platform/workload/scenario registries in
:mod:`repro.api.registry`.

Built-in estimators:

* ``block-maxima-gumbel`` — the classical MBPTA tail (auto-sized block
  maxima + Gumbel by PWM); bit-identical to the seed analysis's
  default path,
* ``gev`` — block maxima + full three-parameter GEV by L-moments (the
  moment-style fit the vectorized bootstrap can batch),
* ``pot-gpd`` — peaks-over-threshold GPD, identical to the seed
  ``tail_method="pot"`` route,
* ``auto`` — fits every candidate above and selects per path via the
  :func:`~repro.core.evt.diagnostics.fit_quality` diagnostics,
  recording the selection rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..evt.block_maxima import best_block_size, block_maxima
from ..evt.diagnostics import FitQuality, fit_quality
from ..evt.gev import fit_lmoments
from ..evt.gumbel import fit_pwm
from ..evt.pot import fit_pot
from ..evt.tail import BlockMaximaTail, FittedTail, PotTail
from ..stats.anderson_darling import anderson_darling_test

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import AnalysisConfig

__all__ = [
    "TailModel",
    "TailEstimator",
    "register_estimator",
    "create_estimator",
    "estimator_names",
    "estimator_description",
]


@dataclass
class TailModel:
    """Common result type every tail estimator returns.

    Attributes
    ----------
    method:
        Registry key of the estimator that produced the fit.
    tail:
        The fitted tail, ready for a :class:`~repro.core.pwcet.PWCETCurve`.
    gof_p_value:
        Anderson-Darling p-value of the fit against ``fit_data``
        (1.0 when the data is too tied for the test, as in the seed).
    fit_data:
        The observations the distribution was fitted on — block maxima
        for block-maxima estimators, threshold excesses for POT.  The
        diagnostics and the bootstrap stages both operate on this.
    distribution:
        The fitted distribution object (Gumbel/GEV/GPD), for QQ and
        return-level diagnostics.
    quality:
        Combined fit-quality summary (filled by the diagnostics stage).
    selection_note:
        How/why this estimator was chosen (filled by ``auto``).
    """

    method: str
    tail: FittedTail
    gof_p_value: float
    fit_data: List[float] = field(default_factory=list)
    distribution: object = None
    quality: Optional[FitQuality] = None
    selection_note: str = ""


TailEstimator = Callable[[Sequence[float], "AnalysisConfig"], TailModel]

_ESTIMATORS: Dict[str, TailEstimator] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_estimator(
    name: str, estimator: TailEstimator, description: str = ""
) -> None:
    """Register (or replace) a tail estimator under ``name``.

    ``estimator(values, config)`` must return a :class:`TailModel`;
    it may raise :class:`ValueError` when the sample cannot support the
    fit (the ``auto`` selector treats that as "candidate unavailable").
    """
    _ESTIMATORS[name] = estimator
    _DESCRIPTIONS[name] = description


def create_estimator(name: str) -> TailEstimator:
    """Resolve the estimator registered under ``name``."""
    try:
        return _ESTIMATORS[name]
    except KeyError:
        known = ", ".join(estimator_names())
        raise KeyError(f"unknown estimator {name!r} (known: {known})") from None


def estimator_names() -> List[str]:
    """Registered estimator names, sorted."""
    return sorted(_ESTIMATORS)


def estimator_description(name: str) -> str:
    """One-line description of a registered estimator ('' if none)."""
    return _DESCRIPTIONS.get(name, "")


# ----------------------------------------------------------------------
# Built-in estimators.
# ----------------------------------------------------------------------
def _extract_maxima(
    values: Sequence[float], config: "AnalysisConfig"
) -> Tuple[int, List[float]]:
    """(block size, block maxima) per the configured block policy.

    The block-size GoF screen is the expensive part of a block-maxima
    fit; ``auto`` computes it once and shares it across the Gumbel and
    GEV candidates.
    """
    size = config.block_size or best_block_size(values)
    return size, block_maxima(values, size).maxima


def _gumbel_from_maxima(size: int, maxima: List[float]) -> TailModel:
    """The seed default path, op for op: Gumbel by PWM over block
    maxima + Anderson-Darling GoF."""
    fit = fit_pwm(maxima)
    gof = 1.0
    if len(set(maxima)) >= 5:
        gof = anderson_darling_test(maxima, fit.cdf).p_value
    return TailModel(
        method="block-maxima-gumbel",
        tail=BlockMaximaTail(distribution=fit, block_size=size),
        gof_p_value=gof,
        fit_data=list(maxima),
        distribution=fit,
    )


def _gev_from_maxima(size: int, maxima: List[float]) -> TailModel:
    """Three-parameter GEV by L-moments over block maxima.

    L-moments (not MLE) so the point fit uses the same moment-style
    estimator the vectorized bootstrap batches — the band is centred on
    the statistic it resamples.
    """
    fit = fit_lmoments(maxima)
    gof = 1.0
    if len(set(maxima)) >= 5:
        gof = anderson_darling_test(maxima, fit.cdf).p_value
    return TailModel(
        method="gev",
        tail=BlockMaximaTail(distribution=fit, block_size=size),
        gof_p_value=gof,
        fit_data=list(maxima),
        distribution=fit,
    )


def _gumbel_block_maxima(
    values: Sequence[float], config: "AnalysisConfig"
) -> TailModel:
    size, maxima = _extract_maxima(values, config)
    return _gumbel_from_maxima(size, maxima)


def _gev_block_maxima(
    values: Sequence[float], config: "AnalysisConfig"
) -> TailModel:
    size, maxima = _extract_maxima(values, config)
    return _gev_from_maxima(size, maxima)


def _pot_gpd(values: Sequence[float], config: "AnalysisConfig") -> TailModel:
    """The seed ``tail_method="pot"`` route, op for op."""
    pot = fit_pot(values, quantile=config.pot_quantile)
    excesses = [v - pot.threshold for v in values if v > pot.threshold]
    gof = 1.0
    if len(set(excesses)) >= 5:
        gof = anderson_darling_test(excesses, pot.gpd.cdf).p_value
    return TailModel(
        method="pot-gpd",
        tail=PotTail(fit=pot),
        gof_p_value=gof,
        fit_data=list(excesses),
        distribution=pot.gpd,
    )


#: Candidate order of the ``auto`` selector: the Gumbel restriction is
#: preferred when adequate (the safest extrapolation, per the MBPTA
#: literature), then the full GEV, then POT.
AUTO_CANDIDATES = ("block-maxima-gumbel", "gev", "pot-gpd")


def _raiser(message: str) -> Callable[[], TailModel]:
    def raise_unavailable() -> TailModel:
        raise ValueError(message)

    return raise_unavailable


def _auto(values: Sequence[float], config: "AnalysisConfig") -> TailModel:
    """Fit every candidate and select via fit-quality diagnostics.

    Selection rule: the first candidate (in ``AUTO_CANDIDATES`` order)
    whose :class:`~repro.core.evt.diagnostics.FitQuality` is adequate
    wins; if none is adequate, the candidate with the highest QQ
    correlation wins and the rationale says so.  Candidates whose fit
    raises are recorded as unavailable.
    """
    # The block-size screen is shared by the two block-maxima
    # candidates; pot-gpd selects its own threshold.
    try:
        size, maxima = _extract_maxima(values, config)
        block_candidates = {
            "block-maxima-gumbel": lambda: _gumbel_from_maxima(size, maxima),
            "gev": lambda: _gev_from_maxima(size, maxima),
        }
    except ValueError as exc:
        message = str(exc)
        block_candidates = {
            "block-maxima-gumbel": _raiser(message),
            "gev": _raiser(message),
        }

    fitted: List[TailModel] = []
    notes: List[str] = []
    for name in AUTO_CANDIDATES:
        try:
            if name in block_candidates:
                model = block_candidates[name]()
            else:
                model = create_estimator(name)(values, config)
        except (ValueError, RuntimeError) as exc:
            notes.append(f"{name}: unavailable ({exc})")
            continue
        model.quality = fit_quality(model.fit_data, model.distribution)
        q = model.quality
        notes.append(
            f"{name}: AD p={q.anderson_darling_p:.3f}, KS p={q.ks_p:.3f}, "
            f"QQ r={q.qq_correlation:.4f}"
            f"{' [adequate]' if q.adequate else ''}"
        )
        fitted.append(model)
    if not fitted:
        raise ValueError(
            "auto estimator: no candidate tail fit is available for this "
            "sample (" + "; ".join(notes) + ")"
        )
    chosen = None
    for model in fitted:
        if model.quality.adequate:
            chosen = model
            reason = f"first adequate candidate ({model.method})"
            break
    if chosen is None:
        chosen = max(fitted, key=lambda m: m.quality.qq_correlation)
        reason = f"no candidate adequate; best QQ correlation ({chosen.method})"
    chosen.selection_note = f"auto: {reason}. " + "; ".join(notes)
    return chosen


register_estimator(
    "block-maxima-gumbel",
    _gumbel_block_maxima,
    "auto-sized block maxima + Gumbel by PWM (the classical MBPTA tail)",
)
register_estimator(
    "gev",
    _gev_block_maxima,
    "block maxima + three-parameter GEV by L-moments",
)
register_estimator(
    "pot-gpd",
    _pot_gpd,
    "peaks-over-threshold GPD above an auto-selected quantile threshold",
)
register_estimator(
    "auto",
    _auto,
    "fit every candidate, select per path via fit-quality diagnostics",
)
