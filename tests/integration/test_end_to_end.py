"""Integration tests: the full paper pipeline at reduced scale.

These reproduce, in miniature, each claim of the evaluation section:
i.i.d. on the randomized platform, a pWCET curve that upper-bounds the
observations, the MBTA comparison and the DET/RAND average parity.
"""

from dataclasses import replace

import pytest

from repro.api import CampaignRequest, CampaignRunner, TvcaWorkload
from repro.core import AnalysisConfig, AnalysisPipeline
from repro.harness import CampaignConfig, compare_requests
from repro.platform import leon3_det, leon3_rand
from repro.workloads.tvca import TvcaApplication, TvcaConfig

# Scaled-pressure configuration (see EXPERIMENTS.md): small estimator on
# 4 KB caches keeps the footprint/capacity ratio of the measured setup
# while running fast enough for CI.
APP_KWARGS = {"estimator_dim": 12, "aero_window": 16}
APP_CONFIG = TvcaConfig(**APP_KWARGS)
CACHE_KB = 4
RUNS = 150


@pytest.fixture(scope="module")
def rand_campaign():
    app = TvcaApplication(APP_CONFIG)
    runner = CampaignRunner(CampaignConfig(runs=RUNS, base_seed=20170327))
    return runner.run(
        TvcaWorkload(app=app), leon3_rand(num_cores=1, cache_kb=CACHE_KB)
    )


@pytest.fixture(scope="module")
def analysis(rand_campaign):
    config = AnalysisConfig(min_path_samples=80, check_convergence=False)
    return AnalysisPipeline(config).run(rand_campaign.samples)


class TestPaperPipeline:
    def test_iid_gate_passes_on_randomized_platform(self, analysis):
        """Section III: Ljung-Box and KS above 0.05 enable MBPTA."""
        assert analysis.iid_ok
        for path_analysis in analysis.paths.values():
            assert path_analysis.iid.independence.p_value >= 0.05
            assert path_analysis.iid.identical_distribution.p_value >= 0.05

    def test_pwcet_upper_bounds_observations(self, analysis, rand_campaign):
        """Figure 2: the projection tightly upper-bounds the sample."""
        hwm = rand_campaign.merged.hwm
        assert analysis.quantile(1e-6) >= hwm
        for path_analysis in analysis.paths.values():
            assert path_analysis.curve.verify_upper_bounds_observations()

    def test_pwcet_monotone_with_cutoff(self, analysis):
        """Figure 3: lower cutoff probability -> larger pWCET."""
        table = analysis.pwcet_table()
        estimates = [q for _, q in table]
        assert estimates == sorted(estimates)

    def test_pwcet_same_order_of_magnitude(self, analysis, rand_campaign):
        """Figure 3: estimates stay within the same order of magnitude
        as the observed execution times even at 1e-15."""
        hwm = rand_campaign.merged.hwm
        assert analysis.quantile(1e-15) < 10.0 * hwm

    def test_mbpta_competitive_with_mbta(self, analysis):
        """Conclusions: pWCET at 1e-6 does not exceed the industrial
        HWM + 50% bound computed on the same platform's observations."""
        merged_hwm = analysis.envelope.hwm()
        mbta = merged_hwm * 1.5
        assert analysis.quantile(1e-6) <= mbta

    def test_det_rand_average_parity(self):
        """Figure 3 first two bars: no noticeable average difference."""
        det = CampaignRequest(
            workload="tvca",
            platform="det",
            runs=40,
            base_seed=7,
            workload_kwargs=APP_KWARGS,
            platform_kwargs={"num_cores": 1, "cache_kb": CACHE_KB},
        )
        comparison = compare_requests(det, replace(det, platform="rand"))
        assert comparison.average_ratio() == pytest.approx(1.0, abs=0.08)

    def test_det_platform_fails_randomization_premise(self):
        """On DET, platform randomization contributes nothing: with fixed
        inputs every run takes identical time (the reason MBPTA needs the
        hardware support)."""
        app = TvcaApplication(APP_CONFIG)
        det = leon3_det(num_cores=1, cache_kb=CACHE_KB)
        cycles = {
            app.run_once(det, run_seed=s, input_seed=123).cycles for s in range(5)
        }
        assert len(cycles) == 1

    def test_rand_platform_randomization_visible(self):
        """On RAND, fixed inputs still produce execution-time variation
        (placement/replacement randomization at work)."""
        app = TvcaApplication(APP_CONFIG)
        rand = leon3_rand(num_cores=1, cache_kb=CACHE_KB)
        cycles = {
            app.run_once(rand, run_seed=s, input_seed=123).cycles
            for s in range(12)
        }
        assert len(cycles) > 1

    def test_report_renders(self, analysis):
        report = analysis.report()
        assert "MBPTA analysis report" in report
        assert "pWCET" in report
