"""End-to-end experiment drivers (DET vs RAND comparisons).

Figure 3 of the paper puts side by side, for the same application:

* the average execution time on the DET and RAND platforms (first two
  bars — showing randomization does not hurt average performance),
* the industrial-practice MBTA bound: DET high-watermark inflated by an
  engineering factor (e.g. 50%),
* MBPTA pWCET estimates at cutoff probabilities from 1e-6 down to 1e-15.

:func:`compare_requests` runs the same workload campaign on both
platforms with **identical workload-input seeds** (so only the platform
differs) and returns the raw material for that comparison; the analysis
layer (:mod:`repro.core`) turns the RAND sample into pWCET estimates.

:func:`compare_scenarios_request` opens the second comparison axis of a
multicore MBPTA story: the same workload, same platform, same seeds —
only the *co-runners* differ.  Isolation is the baseline; each
contention scenario's sample sits at or above it, and the gap is the
measured contention the pWCET must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, TYPE_CHECKING

from .campaign import CampaignResult
from .measurements import ExecutionTimeSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> harness)
    from ..api.requests import AnalysisRequest, CampaignRequest
    from ..core.analysis import AnalysisResult

__all__ = [
    "DetRandComparison",
    "compare_requests",
    "ScenarioComparison",
    "compare_scenarios_request",
    "band_relation",
]


def band_relation(
    a_low: float, a_high: float, b_low: float, b_high: float
) -> str:
    """How two confidence intervals relate: the statistically honest
    successor of comparing two point estimates.

    Returns ``"above"`` when interval A sits entirely above B (a real
    separation at the bands' confidence level), ``"below"`` for the
    mirror case, and ``"overlap"`` when the intervals intersect — i.e.
    the point ordering is not resolvable at this uncertainty.
    """
    if a_low > b_high:
        return "above"
    if a_high < b_low:
        return "below"
    return "overlap"


@dataclass
class DetRandComparison:
    """Raw measurements of one workload on both platforms."""

    det: CampaignResult
    rand: CampaignResult

    @property
    def det_sample(self) -> ExecutionTimeSample:
        """Pooled DET execution times."""
        return self.det.merged

    @property
    def rand_sample(self) -> ExecutionTimeSample:
        """Pooled RAND execution times."""
        return self.rand.merged

    def average_ratio(self) -> float:
        """mean(RAND) / mean(DET) — the paper reports ~1.0."""
        return self.rand_sample.mean / self.det_sample.mean

    def hwm_ratio(self) -> float:
        """hwm(RAND) / hwm(DET)."""
        return self.rand_sample.hwm / self.det_sample.hwm

    def summary(self) -> Dict[str, float]:
        """Headline numbers of the comparison."""
        det = self.det_sample
        rand = self.rand_sample
        return {
            "det_mean": det.mean,
            "rand_mean": rand.mean,
            "det_hwm": det.hwm,
            "rand_hwm": rand.hwm,
            "average_ratio": self.average_ratio(),
            "hwm_ratio": self.hwm_ratio(),
        }

    def analyse_rand(
        self, analysis: Optional["AnalysisRequest"] = None
    ) -> "AnalysisResult":
        """Run the analysis pipeline on the RAND per-path samples.

        ``analysis`` picks the estimator and bands (None =
        ``AnalysisRequest()``).  Unless it pins ``min_path_samples``, the
        per-path fitting floor is ``max(120, runs // 2)``: the
        comparison's own rule, stricter than a single campaign's.
        """
        from ..api.requests import AnalysisRequest
        from ..core.analysis import AnalysisPipeline

        if analysis is None:
            analysis = AnalysisRequest()
        runs = self.rand.num_runs
        if analysis.min_path_samples is None:
            analysis = replace(analysis, min_path_samples=max(120, runs // 2))
        return AnalysisPipeline(analysis.analysis_config(runs)).run(self.rand.samples)

    def mbta_vs_band(
        self, result: "AnalysisResult", cutoff: float, mbta: float
    ) -> Optional[Dict[str, float]]:
        """Where the industrial MBTA bound sits relative to the pWCET
        confidence band at ``cutoff``.

        Returns ``{"point", "lower", "upper", "mbta", "relation"}`` with
        relation per :func:`band_relation` (the *pWCET band* relative to
        the MBTA point) — "above" means the entire band exceeds the MBTA
        bound, i.e. the engineering margin is genuinely insufficient,
        not just nominally below a point estimate.  None when the
        analysis carries no band covering ``cutoff``.
        """
        interval = result.envelope.band(cutoff)
        if interval is None:
            return None
        lower, upper = interval
        return {
            "point": result.quantile(cutoff),
            "lower": lower,
            "upper": upper,
            "mbta": mbta,
            "relation": band_relation(lower, upper, mbta, mbta),
        }


def compare_requests(
    det_request: "CampaignRequest",
    rand_request: "CampaignRequest",
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> DetRandComparison:
    """Run two campaign requests and pair them into a comparison.

    Callers build two :class:`~repro.api.requests.CampaignRequest`
    objects (typically differing only in ``platform``) and this driver
    executes both via
    :meth:`~repro.api.runner.CampaignRunner.run_request`.  Using the
    same ``base_seed`` in both requests reproduces the paper's
    controlled comparison (identical workload inputs, platform as the
    only variable).  ``progress`` receives ``("DET"|"RAND", done,
    total)`` labelled by the request's platform name upper-cased.
    """
    from ..api.runner import CampaignRunner

    def wrap(name: str) -> Optional[Callable[[int, int], None]]:
        if progress is None:
            return None
        return lambda done, total: progress(name, done, total)

    det = CampaignRunner.run_request(
        det_request, progress=wrap(det_request.platform.upper())
    )
    rand = CampaignRunner.run_request(
        rand_request, progress=wrap(rand_request.platform.upper())
    )
    return DetRandComparison(det=det, rand=rand)


@dataclass
class ScenarioComparison:
    """One workload measured under several contention scenarios."""

    workload: str
    by_scenario: Dict[str, CampaignResult]

    @property
    def isolation(self) -> Optional[CampaignResult]:
        """The isolation baseline, when it was part of the sweep."""
        return self.by_scenario.get("isolation")

    def sample(self, scenario: str) -> ExecutionTimeSample:
        """Pooled execution times of one scenario."""
        return self.by_scenario[scenario].merged

    def slowdown(self, scenario: str) -> float:
        """mean(scenario) / mean(isolation) — requires the baseline."""
        baseline = self.isolation
        if baseline is None:
            raise ValueError("sweep did not include the isolation scenario")
        return self.sample(scenario).mean / baseline.merged.mean

    def summary(
        self,
        cutoff: Optional[float] = None,
        analysis: Optional["AnalysisRequest"] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Per-scenario headline numbers (mean, hwm, mean slowdown).

        With ``cutoff`` each row additionally carries ``pwcet`` — the
        MBPTA estimate at that exceedance probability, fitted on the
        scenario's per-path samples as ``analysis`` asks (default
        ``AnalysisRequest()``, whose per-path fitting floor derives
        from each scenario's run count).  With ``analysis.ci`` each
        fitted row further carries ``pwcet_lo`` / ``pwcet_hi``, the
        bootstrap confidence band at ``cutoff`` — so the contention
        gap can be judged by band overlap
        (:func:`band_relation`), not just point ordering.  Scenarios
        whose sample cannot be fitted (too few observations per path)
        simply omit the rows, so one thin scenario never sinks the
        whole comparison.
        """
        if analysis is None:
            from ..api.requests import AnalysisRequest

            analysis = AnalysisRequest()
        has_baseline = self.isolation is not None
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.by_scenario):
            sample = self.sample(name)
            row = {"mean": sample.mean, "hwm": sample.hwm}
            if has_baseline:
                row["slowdown"] = self.slowdown(name)
            if cutoff is not None:
                result = self._analyse(name, analysis)
                if result is not None:
                    row["pwcet"] = result.quantile(cutoff)
                    interval = result.envelope.band(cutoff)
                    if interval is not None:
                        row["pwcet_lo"], row["pwcet_hi"] = interval
            out[name] = row
        return out

    def _analyse(
        self, scenario: str, analysis: "AnalysisRequest"
    ) -> Optional["AnalysisResult"]:
        """The scenario's analysis result (None if unfittable)."""
        from ..core.analysis import AnalysisPipeline

        result = self.by_scenario[scenario]
        pipeline = AnalysisPipeline(analysis.analysis_config(result.num_runs))
        try:
            return pipeline.run(result.samples)
        except (ValueError, RuntimeError):
            return None


def compare_scenarios_request(
    base_request: "CampaignRequest",
    scenarios: Sequence[str] = ("isolation", "opponent-memory-hammer"),
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> ScenarioComparison:
    """Measure one request's workload under several contention scenarios.

    ``base_request`` fixes the workload, platform, seeding and backend;
    each sweep entry is ``base_request.with_scenario(name)`` executed
    via :meth:`~repro.api.runner.CampaignRunner.run_request`.  Every
    campaign therefore shares one base seed — identical per-run
    platform seeds and workload inputs, so the sample gap between
    scenarios *is* the contention.  A fresh platform and workload are
    built per scenario (scenario execution mutates platform state and
    the workload's trace cache; isolation between campaigns keeps them
    shard-safe and order-independent).
    """
    from ..api.runner import CampaignRunner

    results: Dict[str, CampaignResult] = {}
    for name in scenarios:
        wrapped = None
        if progress is not None:
            def wrapped(done: int, total: int, _name: str = name) -> None:
                progress(_name, done, total)
        results[name] = CampaignRunner.run_request(
            base_request.with_scenario(name), progress=wrapped
        )
    return ScenarioComparison(
        workload=base_request.workload, by_scenario=results
    )

