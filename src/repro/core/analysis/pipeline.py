"""The staged analysis pipeline.

The seed-era monolithic analysis, decomposed into explicit stages over a shared :class:`AnalysisContext`:

1. :class:`NormalizeStage` — group the input by path, split off paths
   too rare for an EVT fit (HWM-plus-margin floors),
2. :class:`IidGateStage` — Ljung-Box + split-half KS per fitted path,
3. :class:`TailFitStage` — resolve the configured estimator from the
   registry and fit each path's tail (constant paths short-circuit),
4. :class:`DiagnosticsStage` — fit-quality summary (AD/KS/QQ), the GEV
   shape cross-check on the default path, and the convergence replay,
5. :class:`BootstrapStage` — vectorized bootstrap confidence bands
   (active when ``config.ci`` is set),
6. :class:`EnvelopeStage` — the i.i.d. requirement, the max envelope
   across paths, and the final :class:`AnalysisResult`.

Running the default configuration reproduces the seed analysis's output
bit for bit (pinned by ``tests/core/test_analysis_parity.py``); every
other estimator is a registry entry away.  Custom stage lists can be
passed for experimentation, but the default list is the supported
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ...harness.measurements import ExecutionTimeSample, PathSamples
from ..convergence import assess_convergence
from ..evt.block_maxima import MIN_MAXIMA, block_maxima
from ..evt.diagnostics import fit_quality
from ..evt.gev import shape_likelihood_ratio_test
from ..evt.gumbel import GumbelDistribution
from ..evt.tail import BlockMaximaTail
from ..multipath import PWCETEnvelope, RarePathFloor
from ..pwcet import PWCETCurve
from ..stats.iid import IidVerdict, iid_gate
from .bootstrap import bootstrap_band, path_bootstrap_seed
from .config import AnalysisConfig
from .estimators import TailModel, create_estimator
from .result import AnalysisResult, PathAnalysis

__all__ = [
    "AnalysisContext",
    "AnalysisPipeline",
    "NormalizeStage",
    "IidGateStage",
    "TailFitStage",
    "DiagnosticsStage",
    "BootstrapStage",
    "EnvelopeStage",
    "default_stages",
]

AnalysisInput = Union[PathSamples, ExecutionTimeSample, Sequence[float]]


@dataclass
class AnalysisContext:
    """Mutable state threaded through the pipeline stages."""

    config: AnalysisConfig
    label: str = ""
    groups: Dict[str, ExecutionTimeSample] = field(default_factory=dict)
    rare: List[RarePathFloor] = field(default_factory=list)
    iid: Dict[str, IidVerdict] = field(default_factory=dict)
    models: Dict[str, Optional[TailModel]] = field(default_factory=dict)
    paths: Dict[str, PathAnalysis] = field(default_factory=dict)
    result: Optional[AnalysisResult] = None


class NormalizeStage:
    """Split the per-path groups into fittable paths and rare floors."""

    name = "normalize"

    def run(self, ctx: AnalysisContext) -> None:
        cfg = ctx.config
        fittable: Dict[str, ExecutionTimeSample] = {}
        for path, sample in ctx.groups.items():
            if len(sample) < cfg.min_path_samples:
                ctx.rare.append(
                    RarePathFloor(
                        path=path,
                        observations=len(sample),
                        hwm=sample.hwm,
                        margin=cfg.rare_path_margin,
                    )
                )
                continue
            fittable[path] = sample
        ctx.groups = fittable
        if not fittable and not ctx.rare:
            raise ValueError("no observations to analyse")


class IidGateStage:
    """Per-path i.i.d. gate (Ljung-Box + split-half two-sample KS)."""

    name = "iid-gate"

    def run(self, ctx: AnalysisContext) -> None:
        for path, sample in ctx.groups.items():
            ctx.iid[path] = iid_gate(list(sample.values), alpha=ctx.config.alpha)


class TailFitStage:
    """Fit each path's tail with the configured registry estimator."""

    name = "tail-fit"

    def run(self, ctx: AnalysisContext) -> None:
        cfg = ctx.config
        estimator = create_estimator(cfg.method)
        for path, sample in ctx.groups.items():
            values = list(sample.values)
            if len(set(values)) == 1:
                # A perfectly constant path: its "tail" is the constant.
                constant = values[0]
                tail = BlockMaximaTail(
                    distribution=GumbelDistribution(
                        location=constant,
                        scale=max(abs(constant), 1.0) * 1e-9,
                    ),
                    block_size=1,
                )
                ctx.models[path] = None
                ctx.paths[path] = PathAnalysis(
                    path=path,
                    sample=sample,
                    iid=ctx.iid[path],
                    tail=tail,
                    curve=PWCETCurve(observations=values, tail=tail),
                    gof_p_value=1.0,
                    method="constant",
                )
                continue
            model = estimator(values, cfg)
            ctx.models[path] = model
            ctx.paths[path] = PathAnalysis(
                path=path,
                sample=sample,
                iid=ctx.iid[path],
                tail=model.tail,
                curve=PWCETCurve(observations=values, tail=model.tail),
                gof_p_value=model.gof_p_value,
                method=model.method,
                quality=model.quality,
                selection_note=model.selection_note,
            )


class DiagnosticsStage:
    """Fit-quality summary, GEV shape cross-check, convergence replay."""

    name = "diagnostics"

    def run(self, ctx: AnalysisContext) -> None:
        cfg = ctx.config
        for path, analysis in ctx.paths.items():
            model = ctx.models.get(path)
            if model is None:  # constant path: nothing to diagnose
                continue
            values = list(analysis.sample.values)

            if analysis.quality is None and len(model.fit_data) >= 3:
                try:
                    analysis.quality = fit_quality(
                        model.fit_data, model.distribution
                    )
                except (ValueError, ZeroDivisionError):
                    pass
                model.quality = analysis.quality

            tail = analysis.tail
            if model.method == "block-maxima-gumbel" and isinstance(
                tail, BlockMaximaTail
            ):
                maxima = block_maxima(values, tail.block_size).maxima
                if len(set(maxima)) >= 8:
                    try:
                        gev, _, p_value = shape_likelihood_ratio_test(maxima)
                        analysis.gev_shape = gev.shape
                        analysis.gev_shape_p_value = p_value
                    except (ValueError, RuntimeError):
                        pass

            if cfg.check_convergence and len(values) >= 400:
                block = (
                    tail.block_size if isinstance(tail, BlockMaximaTail) else 20
                )
                analysis.convergence = assess_convergence(
                    values,
                    probability=1e-9,
                    block_size=min(block, len(values) // MIN_MAXIMA),
                )


class BootstrapStage:
    """Vectorized bootstrap confidence bands (when ``config.ci`` is set)."""

    name = "bootstrap"

    def run(self, ctx: AnalysisContext) -> None:
        cfg = ctx.config
        if cfg.ci is None:
            return
        for path, analysis in ctx.paths.items():
            model = ctx.models.get(path)
            if model is None:
                continue
            analysis.curve.band = bootstrap_band(
                model,
                hwm=analysis.sample.hwm,
                cutoffs=cfg.cutoffs,
                level=cfg.ci,
                replicates=cfg.bootstrap,
                kind=cfg.bootstrap_kind,
                seed=path_bootstrap_seed(cfg.bootstrap_seed, path),
            )


class EnvelopeStage:
    """The i.i.d. requirement, the cross-path envelope, the result."""

    name = "envelope"

    def run(self, ctx: AnalysisContext) -> None:
        cfg = ctx.config
        if cfg.require_iid:
            failing = [p for p, a in ctx.paths.items() if not a.iid.passed]
            if failing:
                raise RuntimeError(
                    f"i.i.d. gate failed for paths: {failing}; MBPTA is "
                    "not applicable to these measurements"
                )
        envelope = PWCETEnvelope(
            curves={p: a.curve for p, a in ctx.paths.items()},
            rare_paths=ctx.rare,
        )
        ctx.result = AnalysisResult(
            config=cfg,
            paths=ctx.paths,
            envelope=envelope,
            rare_paths=ctx.rare,
            label=ctx.label,
            method=cfg.method,
        )


def default_stages() -> List[object]:
    """The supported stage list, in execution order."""
    return [
        NormalizeStage(),
        IidGateStage(),
        TailFitStage(),
        DiagnosticsStage(),
        BootstrapStage(),
        EnvelopeStage(),
    ]


class AnalysisPipeline:
    """Configure once, analyse many samples."""

    def __init__(
        self,
        config: AnalysisConfig = AnalysisConfig(),
        stages: Optional[Sequence[object]] = None,
    ) -> None:
        self.config = config
        self.stages = list(stages) if stages is not None else default_stages()

    def run(self, data: AnalysisInput, label: str = "") -> AnalysisResult:
        """Run every stage on ``data`` and return the result.

        ``data`` may be per-path samples (the normal case), a single
        pooled sample, or a bare sequence of execution times (treated
        as a single path).
        """
        ctx = AnalysisContext(
            config=self.config,
            label=label or getattr(data, "label", ""),
            groups=self._group(data, label),
        )
        for stage in self.stages:
            stage.run(ctx)
        if ctx.result is None:
            raise RuntimeError(
                "pipeline finished without a result (custom stage lists "
                "must end with EnvelopeStage)"
            )
        return ctx.result

    # Kept as the one input-normalization point (the seed `_normalize`).
    @staticmethod
    def _group(
        data: AnalysisInput, label: str
    ) -> Dict[str, ExecutionTimeSample]:
        if isinstance(data, PathSamples):
            return dict(data.paths)
        if isinstance(data, ExecutionTimeSample):
            return {data.label or label or "<all>": data}
        sample = ExecutionTimeSample(values=list(data), label=label or "<all>")
        return {sample.label: sample}
